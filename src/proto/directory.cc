#include "proto/directory.hh"

#include <algorithm>

#include "sim/log.hh"

namespace pimdsm
{

DirEntry &
DirectoryTable::entry(Addr line)
{
    const std::uint32_t slot = entries_.insert(line);
    if (present_.size() * 64 < entries_.slotCount())
        present_.resize((entries_.slotCount() + 63) / 64);
    std::uint64_t &word = present_[slot >> 6];
    const std::uint64_t bit = 1ull << (slot & 63);
    if (!(word & bit)) {
        word |= bit;
        ++size_;
    }
    return entries_[slot];
}

const DirEntry *
DirectoryTable::find(Addr line) const
{
    const std::uint32_t slot = entries_.slotOf(line);
    return present(slot) ? &entries_[slot] : nullptr;
}

DirEntry *
DirectoryTable::find(Addr line)
{
    const std::uint32_t slot = entries_.slotOf(line);
    return present(slot) ? &entries_[slot] : nullptr;
}

std::size_t
DirectoryTable::queued(Addr line) const
{
    auto it = queues_.find(line);
    return it == queues_.end() ? 0 : it->second.size();
}

void
DirectoryTable::clear()
{
    entries_.clear();
    present_.clear();
    size_ = 0;
    queues_.clear();
}

std::vector<Addr>
DirectoryTable::sortedLines() const
{
    std::vector<Addr> lines;
    lines.reserve(size_);
    const std::uint32_t perPage = entries_.linesPerPage();
    const Addr lineBytes = entries_.lineBytes();
    entries_.forEachPage([&](Addr page, std::uint32_t first) {
        for (std::uint32_t i = 0; i < perPage; ++i) {
            if (present(first + i))
                lines.push_back(page + i * lineBytes);
        }
    });
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
DirectoryTable::forEach(
    FunctionRef<void(Addr, const DirEntry &)> fn) const
{
    for (Addr addr : sortedLines()) {
        if (const DirEntry *e = find(addr))
            fn(addr, *e);
    }
}

void
DirectoryTable::forEach(FunctionRef<void(Addr, DirEntry &)> fn)
{
    // Iterating over a sorted key snapshot (rather than page blocks)
    // keeps the walk to the entries that existed when it began.
    for (Addr addr : sortedLines()) {
        if (DirEntry *e = find(addr))
            fn(addr, *e);
    }
}

} // namespace pimdsm
