/**
 * @file
 * 32-bit recency stamps that never wrap.
 *
 * LRU-style state keeps one stamp per entry, and victim choice only
 * compares stamps. A 64-bit stamp never wraps but costs 8 B per entry;
 * a 32-bit one would wrap after 2^32 touches. When a StampClock reaches
 * its limit, its owner renumbers every live stamp by dense rank: equal
 * stamps stay equal, zero stays zero and the order is kept, so every
 * comparison, and with it every victim, is the same as without the
 * wrap.
 */

#ifndef PIMDSM_SIM_STAMP_CLOCK_HH
#define PIMDSM_SIM_STAMP_CLOCK_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/log.hh"

namespace pimdsm
{

class StampClock
{
  public:
    static constexpr std::uint32_t kLimit =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * The next stamp. At the limit it first calls @p renumber, which
     * must pass every live stamp to restart().
     */
    template <typename Renumber>
    std::uint32_t
    next(Renumber &&renumber)
    {
        if (clock_ == kLimit) [[unlikely]]
            renumber();
        return ++clock_;
    }

    /**
     * Renumber @p stamps by dense rank (0 stays 0) and continue the
     * clock after the highest rank.
     */
    void
    restart(std::vector<std::uint32_t *> &stamps)
    {
        std::sort(stamps.begin(), stamps.end(),
                  [](const std::uint32_t *a, const std::uint32_t *b) {
                      return *a < *b;
                  });
        std::uint32_t rank = 0;
        std::uint32_t last = 0;
        for (std::uint32_t *s : stamps) {
            if (*s != last) {
                last = *s;
                ++rank;
            }
            *s = rank;
        }
        if (rank == kLimit)
            panic("stamp renumbering found 2^32-1 distinct stamps");
        clock_ = rank;
    }

    std::uint32_t now() const { return clock_; }

    /** Jump the clock forward so a test reaches the wrap quickly. */
    void
    advanceForTest(std::uint32_t to)
    {
        if (to < clock_)
            panic("a stamp clock only moves forward");
        clock_ = to;
    }

  private:
    std::uint32_t clock_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_STAMP_CLOCK_HH
