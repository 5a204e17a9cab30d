/**
 * @file
 * On-chip L1/L2 cache model.
 *
 * The caches act as tag filters in front of the node coherence layer:
 * they hold 64 B lines, write back dirty victims to the level below, and
 * enforce inclusion underneath the node-level 128 B coherence grain (an
 * invalidation of a memory line clears every covered cache line).
 */

#ifndef PIMDSM_MEM_CACHE_HH
#define PIMDSM_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "mem/cache_array.hh"
#include "sim/function_ref.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace pimdsm
{

class Cache
{
  public:
    Cache(std::string name, const CacheParams &params);

    const std::string &name() const { return name_; }
    Tick latency() const { return params_.latency; }
    int lineBytes() const { return params_.lineBytes; }

    /** Tag lookup without LRU update. */
    bool probe(Addr addr) const;

    /**
     * Access for a load or store. On a hit the line becomes MRU and a
     * store sets its dirty bit.
     * @retval true on hit.
     */
    bool access(Addr addr, bool is_write);

    /** Outcome of inserting a line: the victim, if one was displaced. */
    struct Fill
    {
        Addr evictedLine = kInvalidAddr;
        bool evictedDirty = false;
        CohState evictedState = CohState::Invalid;
        Version evictedVersion = 0;
    };

    /**
     * Insert @p addr's line (optionally already dirty) with coherence
     * state @p state and functional version @p version (NUMA keeps the
     * node's coherence rights directly in the L2 tags).
     */
    Fill fill(Addr addr, bool dirty, CohState state = CohState::Shared,
              Version version = 0);

    /**
     * Invalidate the single cache line holding @p addr if present.
     * @retval true if the invalidated line was dirty.
     */
    bool invalidateLine(Addr addr);

    /**
     * Invalidate every cache line covered by the @p span_bytes-sized
     * block at @p block_addr (used when a 128 B memory line is recalled).
     * @retval true if any invalidated line was dirty.
     */
    bool invalidateBlock(Addr block_addr, int span_bytes);

    /**
     * Clear the dirty bits of every cache line covered by the
     * @p span_bytes block at @p block_addr (the node-level line was
     * downgraded and its data written back; the copies stay valid).
     */
    void cleanBlock(Addr block_addr, int span_bytes);

    /** Drop everything (role change / thread switch). */
    void invalidateAll() { array_.invalidateAll(); }

    /** Visit every valid line (coherence-oracle and census scans). */
    void
    forEachValidLine(FunctionRef<void(const CacheLine &)> fn) const
    {
        array_.forEach([&](const CacheLine &l) {
            if (l.valid())
                fn(l);
        });
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    CacheArray &array() { return array_; }
    const CacheArray &array() const { return array_; }

  private:
    std::string name_;
    CacheParams params_;
    CacheArray array_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_MEM_CACHE_HH
