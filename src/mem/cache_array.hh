/**
 * @file
 * Generic set-associative tag array used by the L1/L2 caches, the tagged
 * local memories of AGG P-nodes, and COMA attraction memories.
 */

#ifndef PIMDSM_MEM_CACHE_ARRAY_HH
#define PIMDSM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/function_ref.hh"
#include "sim/stamp_clock.hh"
#include "sim/types.hh"

namespace pimdsm
{

/**
 * Node-level coherence state of a memory line (Section 2.1.1 plus the
 * COMA-inspired shared-master state of Section 2.2.2).
 */
enum class CohState : std::uint8_t
{
    Invalid = 0,
    Shared,       ///< read-only copy; home (or a master) also has it
    SharedMaster, ///< read-only copy holding mastership; must write back
    Dirty,        ///< exclusive modified copy; no home placeholder in AGG
};

const char *cohStateName(CohState s);

/** True for states that hold readable data. */
constexpr bool
cohValid(CohState s)
{
    return s != CohState::Invalid;
}

/** True for states whose displacement must reach the home. */
constexpr bool
cohOwned(CohState s)
{
    return s == CohState::Dirty || s == CohState::SharedMaster;
}

/**
 * One tag-array entry, packed to 16 B so that four share a 64 B host
 * cache line: a 32-bit tag, LRU stamp and version, and three bytes of
 * state. An address that does not fit the tag panics.
 */
struct CacheLine
{
    /** A tag counts 16 B units, so it holds lines below 64 GiB. */
    static constexpr int kTagShift = 4;
    /** First line address a tag cannot hold. */
    static constexpr Addr kTagLimit = Addr{0xffffffffu} << kTagShift;

    CohState state = CohState::Invalid;
    bool dirty = false;           ///< L1/L2 write-back bit
    bool onChip = true;           ///< tagged-memory on-/off-chip residence
    Version version = 0;          ///< functional data version (node level)

    bool valid() const { return state != CohState::Invalid; }

    /** Aligned line address (kInvalidAddr after reset()). */
    Addr
    lineAddr() const
    {
        return tag_ == kNoTag ? kInvalidAddr : Addr{tag_} << kTagShift;
    }

    /** Panics unless @p line_addr is 16 B aligned and below kTagLimit. */
    void
    setLineAddr(Addr line_addr)
    {
        if (line_addr >= kTagLimit ||
            (line_addr & ((Addr{1} << kTagShift) - 1)) != 0)
            tagOverflow(line_addr);
        tag_ = static_cast<std::uint32_t>(line_addr >> kTagShift);
    }

    /** LRU stamp: higher is more recent. */
    std::uint32_t lastUse() const { return lastUse_; }

    void
    reset()
    {
        tag_ = kNoTag;
        state = CohState::Invalid;
        dirty = false;
        lastUse_ = 0;
        version = 0;
    }

  private:
    friend class CacheArray;

    static constexpr std::uint32_t kNoTag = 0xffffffffu;

    [[noreturn]] static void tagOverflow(Addr line_addr);

    std::uint32_t tag_ = kNoTag;
    std::uint32_t lastUse_ = 0;
};

static_assert(sizeof(CacheLine) == 16,
              "CacheLine grew past 16 B; four must share a host line");

/** Victim-selection disciplines. */
enum class VictimPolicy
{
    Lru,  ///< invalid first, then least recently used
    /**
     * COMA replacement (Section 3): invalid and non-master lines are
     * replaced first; master/dirty lines only as a last resort.
     */
    ComaPriority,
    /**
     * Invalid first, then pseudo-random. DRAM caches favor simple
     * replacement, and random avoids LRU's zero-retention pathology
     * on cyclic sweeps larger than the capacity.
     */
    Random,
};

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     */
    CacheArray(std::uint64_t size_bytes, int assoc, int line_bytes);

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    int lineBytes() const { return lineBytes_; }
    std::uint64_t numLines() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_;
    }

    /** Set index for an address. */
    int setIndex(Addr addr) const;

    /** Align an address to this array's line size. */
    Addr align(Addr addr) const
    {
        return blockAlign(addr, static_cast<std::uint64_t>(lineBytes_));
    }

    /** Find the valid entry holding @p addr's line, or nullptr. */
    CacheLine *find(Addr addr);
    const CacheLine *find(Addr addr) const;

    /**
     * Choose the way that an insertion of @p addr's line would use:
     * an invalid way if available, otherwise the policy's victim.
     * Never returns nullptr.
     */
    CacheLine *victim(Addr addr, VictimPolicy policy = VictimPolicy::Lru);

    /** Mark @p line most recently used. */
    void
    touch(CacheLine &line)
    {
        line.lastUse_ = lruClock_.next([this] { renumberStamps(); });
    }

    /** Move the LRU clock forward (tests: force a stamp wrap soon). */
    void
    advanceLruClockForTest(std::uint32_t to)
    {
        lruClock_.advanceForTest(to);
    }

    /** Invalidate all lines (does not report dirty victims). */
    void invalidateAll();

    /** Visit every entry (valid or not). */
    void forEach(FunctionRef<void(CacheLine &)> fn);
    void forEach(FunctionRef<void(const CacheLine &)> fn) const;

    /** Visit the ways of one set. */
    void forEachInSet(int set, FunctionRef<void(CacheLine &)> fn);

    /** Count of valid entries (linear scan; for tests and census). */
    std::uint64_t countValid() const;

  private:
    int replacementRank(const CacheLine &line, VictimPolicy policy) const;

    /** The LRU clock is at its limit: renumber every line's stamp. */
    void renumberStamps();

    /** Deterministic pseudo-random way pick. */
    int randomWay();

    std::uint64_t randState_ = 0x2545f4914f6cdd1dull;

    int numSets_;
    int assoc_;
    int lineBytes_;
    int setShift_;
    StampClock lruClock_;
    std::vector<CacheLine> lines_;
};

} // namespace pimdsm

#endif // PIMDSM_MEM_CACHE_ARRAY_HH
