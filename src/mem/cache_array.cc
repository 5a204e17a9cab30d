#include "mem/cache_array.hh"

#include <sstream>

#include "sim/log.hh"

namespace pimdsm
{

const char *
cohStateName(CohState s)
{
    switch (s) {
      case CohState::Invalid:
        return "I";
      case CohState::Shared:
        return "S";
      case CohState::SharedMaster:
        return "Sm";
      case CohState::Dirty:
        return "D";
      default:
        return "?";
    }
}

void
CacheLine::tagOverflow(Addr line_addr)
{
    std::ostringstream os;
    os << "line address 0x" << std::hex << line_addr
       << " does not fit a 32-bit cache tag: tags hold "
       << std::dec << (1 << kTagShift)
       << " B-aligned addresses below 0x" << std::hex << kTagLimit
       << " (64 GiB)";
    panic(os.str());
}

CacheArray::CacheArray(std::uint64_t size_bytes, int assoc, int line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    if (!isPow2(static_cast<std::uint64_t>(line_bytes)))
        fatal("cache line size must be a power of two");
    if (line_bytes < (1 << CacheLine::kTagShift))
        fatal("cache line size must be at least the 16 B tag unit");
    if (assoc <= 0)
        fatal("associativity must be positive");
    std::uint64_t lines = size_bytes / line_bytes;
    if (lines < static_cast<std::uint64_t>(assoc))
        lines = assoc;
    numSets_ = static_cast<int>(lines / assoc);
    if (numSets_ == 0)
        numSets_ = 1;
    setShift_ = log2i(static_cast<std::uint64_t>(lineBytes_));
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

int
CacheArray::setIndex(Addr addr) const
{
    return static_cast<int>((addr >> setShift_) %
                            static_cast<std::uint64_t>(numSets_));
}

CacheLine *
CacheArray::find(Addr addr)
{
    // Compared at 64 bits: an address past the tag range matches no
    // line instead of aliasing a truncated tag.
    const Addr tag = align(addr) >> CacheLine::kTagShift;
    const int set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].tag_ == tag && base[w].valid())
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

int
CacheArray::replacementRank(const CacheLine &line, VictimPolicy policy) const
{
    if (!line.valid())
        return 0;
    if (policy == VictimPolicy::Lru)
        return 1;
    // ComaPriority: non-master shared copies are cheap to drop; master
    // and dirty lines require injection, so keep them longest.
    switch (line.state) {
      case CohState::Shared:
        return 1;
      case CohState::SharedMaster:
        return 2;
      case CohState::Dirty:
        return 3;
      default:
        return 1;
    }
}

int
CacheArray::randomWay()
{
    // xorshift64: deterministic across runs and platforms.
    randState_ ^= randState_ << 13;
    randState_ ^= randState_ >> 7;
    randState_ ^= randState_ << 17;
    return static_cast<int>(randState_ % assoc_);
}

CacheLine *
CacheArray::victim(Addr addr, VictimPolicy policy)
{
    const int set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];

    if (policy == VictimPolicy::Random) {
        for (int w = 0; w < assoc_; ++w) {
            if (!base[w].valid())
                return &base[w];
        }
        return &base[randomWay()];
    }

    CacheLine *best = &base[0];
    int best_rank = replacementRank(base[0], policy);
    for (int w = 1; w < assoc_; ++w) {
        const int rank = replacementRank(base[w], policy);
        if (rank < best_rank ||
            (rank == best_rank && base[w].lastUse_ < best->lastUse_)) {
            best = &base[w];
            best_rank = rank;
        }
    }
    return best;
}

void
CacheArray::renumberStamps()
{
    std::vector<std::uint32_t *> stamps;
    stamps.reserve(lines_.size());
    for (auto &line : lines_)
        stamps.push_back(&line.lastUse_);
    lruClock_.restart(stamps);
}

void
CacheArray::invalidateAll()
{
    for (auto &line : lines_)
        line.reset();
}

void
CacheArray::forEach(FunctionRef<void(CacheLine &)> fn)
{
    for (auto &line : lines_)
        fn(line);
}

void
CacheArray::forEach(FunctionRef<void(const CacheLine &)> fn) const
{
    for (const auto &line : lines_)
        fn(line);
}

void
CacheArray::forEachInSet(int set, FunctionRef<void(CacheLine &)> fn)
{
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    for (int w = 0; w < assoc_; ++w)
        fn(base[w]);
}

std::uint64_t
CacheArray::countValid() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines_) {
        if (line.valid())
            ++n;
    }
    return n;
}

} // namespace pimdsm
