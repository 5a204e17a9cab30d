#include "mem/tagged_memory.hh"

#include <cmath>

#include "sim/log.hh"

namespace pimdsm
{

TaggedMemory::TaggedMemory(std::uint64_t size_bytes, const MemParams &params)
    : params_(params),
      array_(size_bytes, params.assoc, params.lineBytes)
{
    double frac = params.onChipFraction;
    if (frac < 0.0)
        frac = 0.0;
    if (frac > 1.0)
        frac = 1.0;
    onChipWays_ = static_cast<int>(std::lround(frac * array_.assoc()));
    if (onChipWays_ < 1)
        onChipWays_ = 1; // a node always has some on-chip DRAM
    if (onChipWays_ > array_.assoc())
        onChipWays_ = array_.assoc();

    // Ways [0, onChipWays_) of every set start on chip; residence then
    // only moves by swapping flags, preserving the per-set count.
    for (int set = 0; set < array_.numSets(); ++set) {
        int way = 0;
        array_.forEachInSet(set, [&](CacheLine &line) {
            line.onChip = way++ < onChipWays_;
        });
    }
}

Tick
TaggedMemory::accessAndMigrate(CacheLine &line)
{
    array_.touch(line);
    if (line.onChip)
        return params_.onChipLatency;

    if (onChipWays_ < array_.assoc()) {
        // Swap residence with the LRU on-chip line of the same set.
        const int set = array_.setIndex(line.lineAddr());
        CacheLine *lru_on_chip = nullptr;
        array_.forEachInSet(set, [&](CacheLine &cand) {
            if (&cand == &line || !cand.onChip)
                return;
            if (!lru_on_chip || cand.lastUse() < lru_on_chip->lastUse())
                lru_on_chip = &cand;
        });
        if (lru_on_chip) {
            lru_on_chip->onChip = false;
            line.onChip = true;
            ++migrations_;
        }
    }
    return params_.offChipLatency;
}

void
TaggedMemory::install(CacheLine &way, Addr line_addr, CohState state)
{
    const bool residence = way.onChip;
    way.reset();
    way.onChip = residence;
    way.setLineAddr(array_.align(line_addr));
    way.state = state;
    array_.touch(way);
}

bool
TaggedMemory::checkOnChipInvariant() const
{
    bool ok = true;
    auto &arr = const_cast<CacheArray &>(array_);
    for (int set = 0; set < arr.numSets(); ++set) {
        int on_chip = 0;
        arr.forEachInSet(set, [&](CacheLine &line) {
            if (line.onChip)
                ++on_chip;
        });
        if (on_chip != onChipWays_)
            ok = false;
    }
    return ok;
}

} // namespace pimdsm
