/**
 * @file
 * Tagged local DRAM organized as a cache (Section 2.1.1).
 *
 * The node's local memory — part on chip, part off chip, with exclusive
 * contents — is treated as a set-associative cache over the global
 * address space. Lines migrate from the off-chip to the on-chip portion
 * on reference, displacing the least recently used on-chip line of the
 * set (memory-line-grain transfer, as in the paper).
 */

#ifndef PIMDSM_MEM_TAGGED_MEMORY_HH
#define PIMDSM_MEM_TAGGED_MEMORY_HH

#include <cstdint>

#include "mem/cache_array.hh"
#include "sim/function_ref.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pimdsm
{

class TaggedMemory
{
  public:
    /**
     * @param size_bytes total local DRAM (on-chip + off-chip)
     * @param params latency/associativity parameters
     */
    TaggedMemory(std::uint64_t size_bytes, const MemParams &params);

    CacheArray &array() { return array_; }
    const CacheArray &array() const { return array_; }

    int lineBytes() const { return params_.lineBytes; }
    std::uint64_t capacityLines() const { return array_.numLines(); }

    CacheLine *find(Addr addr) { return array_.find(addr); }
    const CacheLine *find(Addr addr) const { return array_.find(addr); }

    /** Victim way for inserting @p addr (policy per architecture). */
    CacheLine *
    victim(Addr addr, VictimPolicy policy = VictimPolicy::Lru)
    {
        return array_.victim(addr, policy);
    }

    /**
     * Touch @p line for a demand access: bumps LRU and, if the line is
     * off chip, migrates it on chip by swapping residence with the LRU
     * on-chip line of the set.
     * @return the round-trip access latency (on- or off-chip).
     */
    Tick accessAndMigrate(CacheLine &line);

    /**
     * Install a new line over @p way (caller has disposed of the
     * victim). The way keeps its current on-/off-chip residence.
     */
    void install(CacheLine &way, Addr line_addr, CohState state);

    /** Occupancy of the memory port for moving one line. */
    Tick
    transferOccupancy() const
    {
        return ceilDiv(static_cast<std::uint64_t>(params_.lineBytes),
                       static_cast<std::uint64_t>(
                           params_.bandwidthBytesPerTick));
    }

    /** The (single) memory port; callers serialize transfers on it. */
    Resource &port() { return port_; }

    std::uint64_t migrations() const { return migrations_; }

    /** Visit every valid line (coherence-oracle and census scans). */
    void
    forEachValidLine(FunctionRef<void(const CacheLine &)> fn) const
    {
        array_.forEach([&](const CacheLine &l) {
            if (l.valid())
                fn(l);
        });
    }

    /** Verify the per-set on-chip way count invariant (tests). */
    bool checkOnChipInvariant() const;

    int onChipWaysPerSet() const { return onChipWays_; }

  private:
    MemParams params_;
    CacheArray array_;
    Resource port_;
    int onChipWays_;
    std::uint64_t migrations_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_MEM_TAGGED_MEMORY_HH
