/**
 * @file
 * Tests for the D-node Data/Pointer arrays: FreeList/SharedList FIFO
 * semantics, SharedList reuse, and a randomized integrity property
 * sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "proto/agg_dnode.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/stamp_clock.hh"

namespace pimdsm
{
namespace
{

TEST(DNodeStore, StartsAllFree)
{
    DNodeStore s(16);
    EXPECT_EQ(s.dataEntries(), 16u);
    EXPECT_EQ(s.freeLen(), 16u);
    EXPECT_EQ(s.sharedLen(), 0u);
    EXPECT_EQ(s.usedSlots(), 0u);
    s.checkIntegrity();
}

TEST(DNodeStore, AllocateFromFreeListFirst)
{
    DNodeStore s(4);
    bool reused;
    Addr dropped;
    const auto slot = s.allocate(0x1000, reused, dropped);
    EXPECT_NE(slot, kNilPtr);
    EXPECT_FALSE(reused);
    EXPECT_EQ(s.freeLen(), 3u);
    EXPECT_EQ(s.slotLine(slot), 0x1000u);
    EXPECT_FALSE(s.inShared(slot));
    EXPECT_FALSE(s.inFree(slot));
    s.checkIntegrity();
}

TEST(DNodeStore, FreeIsFifo)
{
    DNodeStore s(3);
    bool reused;
    Addr dropped;
    const auto a = s.allocate(0xa00, reused, dropped);
    const auto b = s.allocate(0xb00, reused, dropped);
    const auto c = s.allocate(0xc00, reused, dropped);
    s.free(b);
    s.free(a);
    s.free(c);
    // Reallocation order must be b, a, c (FIFO free list).
    EXPECT_EQ(s.allocate(0x100, reused, dropped), b);
    EXPECT_EQ(s.allocate(0x200, reused, dropped), a);
    EXPECT_EQ(s.allocate(0x300, reused, dropped), c);
    s.checkIntegrity();
}

TEST(DNodeStore, SharedListReuseIsFifoAndReportsDropped)
{
    DNodeStore s(2);
    bool reused;
    Addr dropped;
    const auto a = s.allocate(0xa00, reused, dropped);
    const auto b = s.allocate(0xb00, reused, dropped);
    s.linkShared(a);
    s.linkShared(b);
    EXPECT_EQ(s.sharedLen(), 2u);

    // FreeList exhausted: reuse takes the SharedList *head* (a).
    const auto c = s.allocate(0xc00, reused, dropped);
    EXPECT_TRUE(reused);
    EXPECT_EQ(c, a);
    EXPECT_EQ(dropped, 0xa00u);
    EXPECT_EQ(s.sharedLen(), 1u);
    s.checkIntegrity();
}

TEST(DNodeStore, ExhaustionReturnsNil)
{
    DNodeStore s(1);
    bool reused;
    Addr dropped;
    s.allocate(0xa00, reused, dropped);
    EXPECT_EQ(s.allocate(0xb00, reused, dropped), kNilPtr);
}

TEST(DNodeStore, UnlinkSharedRestoresHomeMaster)
{
    DNodeStore s(2);
    bool reused;
    Addr dropped;
    const auto a = s.allocate(0xa00, reused, dropped);
    s.linkShared(a);
    s.unlinkShared(a);
    EXPECT_FALSE(s.inShared(a));
    int home_masters = 0;
    s.forEachHomeMaster([&](std::uint32_t, Addr) { ++home_masters; });
    EXPECT_EQ(home_masters, 1);
    s.checkIntegrity();
}

TEST(DNodeStore, MisuseIsDetected)
{
    DNodeStore s(2);
    bool reused;
    Addr dropped;
    const auto a = s.allocate(0xa00, reused, dropped);
    EXPECT_THROW(s.unlinkShared(a), PanicError); // not on SharedList
    s.linkShared(a);
    EXPECT_THROW(s.linkShared(a), PanicError); // already linked
    s.free(a);                                 // unlinks then frees
    EXPECT_THROW(s.free(a), PanicError);       // double free
}

/** Property sweep: random allocate/free/link/unlink preserves list
 *  integrity and conservation of slots. */
TEST(DNodeStore, RandomizedIntegrityProperty)
{
    const std::uint64_t entries = 64;
    DNodeStore s(entries);
    Rng rng(99);
    std::set<std::uint32_t> owned;     // allocated, not on SharedList
    std::set<std::uint32_t> shared;    // on SharedList
    std::uint64_t next_line = 0x10000;

    for (int i = 0; i < 20000; ++i) {
        switch (rng.nextBounded(4)) {
          case 0: // allocate
            {
                bool reused;
                Addr dropped;
                const auto slot =
                    s.allocate(next_line, reused, dropped);
                next_line += 0x80;
                if (slot == kNilPtr)
                    break;
                if (reused)
                    shared.erase(slot);
                owned.insert(slot);
                break;
            }
          case 1: // free an owned slot
            if (!owned.empty()) {
                const auto slot = *owned.begin();
                owned.erase(owned.begin());
                s.free(slot);
            }
            break;
          case 2: // hand out mastership
            if (!owned.empty()) {
                const auto slot = *owned.rbegin();
                owned.erase(std::prev(owned.end()));
                s.linkShared(slot);
                shared.insert(slot);
            }
            break;
          case 3: // take mastership back
            if (!shared.empty()) {
                const auto slot = *shared.begin();
                shared.erase(shared.begin());
                s.unlinkShared(slot);
                owned.insert(slot);
            }
            break;
        }
        ASSERT_EQ(s.sharedLen(), shared.size());
        ASSERT_EQ(s.usedSlots(), owned.size() + shared.size());
        if (i % 500 == 0)
            s.checkIntegrity();
    }
    s.checkIntegrity();
}

/** Home-master slots coldest first, as page-out ranks them. */
std::vector<std::uint32_t>
coldestFirst(const DNodeStore &s)
{
    std::vector<std::uint32_t> slots;
    s.forEachHomeMaster([&](std::uint32_t slot, Addr) {
        slots.push_back(slot);
    });
    std::sort(slots.begin(), slots.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return s.lastTouch(a) < s.lastTouch(b);
              });
    return slots;
}

TEST(DNodeStore, TouchStampWrapKeepsRecencyOrder)
{
    // Two stores take the same operations; one starts its touch clock
    // 500 below the limit, so it wraps and renumbers mid-sequence.
    DNodeStore plain(64);
    DNodeStore wrapped(64);
    wrapped.advanceTouchClockForTest(StampClock::kLimit - 500);
    Rng rng(7);
    std::vector<std::uint32_t> owned;
    Addr next_line = 0x10000;
    for (int i = 0; i < 5000; ++i) {
        const auto r = rng.nextBounded(8);
        if (r < 2 || owned.empty()) {
            bool reused;
            Addr dropped;
            const auto a = plain.allocate(next_line, reused, dropped);
            ASSERT_EQ(wrapped.allocate(next_line, reused, dropped), a);
            next_line += 0x80;
            if (a != kNilPtr)
                owned.push_back(a);
        } else {
            const std::size_t k = rng.nextBounded(owned.size());
            const std::uint32_t slot = owned[k];
            if (r < 7) {
                plain.touch(slot);
                wrapped.touch(slot);
            } else {
                plain.free(slot);
                wrapped.free(slot);
                owned.erase(owned.begin() + static_cast<long>(k));
            }
        }
        ASSERT_EQ(coldestFirst(wrapped), coldestFirst(plain)) << i;
    }
    std::uint32_t max_stamp = 0;
    for (std::uint32_t slot = 0; slot < 64; ++slot)
        max_stamp = std::max(max_stamp, wrapped.lastTouch(slot));
    EXPECT_LT(max_stamp, 10'000u) << "the touch clock never wrapped";
}

TEST(DNodeStore, MetadataOverheadMatchesPaper)
{
    // Paper Section 2.2.2: with 128 B lines, 64-bit Directory entries
    // (1.5x as many as Data entries) and 3x32-bit pointers, the
    // Directory and Pointer arrays each take ~7.9% of the DRAM.
    const auto meta = AggDNodeHome::metadataBytesPerLine(1.5);
    EXPECT_EQ(meta, 24u);
    const double overhead = static_cast<double>(meta) / (128 + meta);
    EXPECT_NEAR(overhead, 0.158, 0.005); // 2 x 7.9%
}

} // namespace
} // namespace pimdsm
