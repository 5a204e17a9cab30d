/**
 * @file
 * Unit + property tests for the memory substrate: set-associative
 * arrays, L1/L2 caches, tagged local memory (migration invariant),
 * plain memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/cache_array.hh"
#include "mem/plain_memory.hh"
#include "mem/tagged_memory.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/stamp_clock.hh"

namespace pimdsm
{
namespace
{

TEST(CacheArray, GeometryAndLookup)
{
    CacheArray arr(8 * 1024, 2, 64);
    EXPECT_EQ(arr.numSets(), 64);
    EXPECT_EQ(arr.assoc(), 2);
    EXPECT_EQ(arr.numLines(), 128u);

    EXPECT_EQ(arr.find(0x1000), nullptr);
    CacheLine *way = arr.victim(0x1000);
    ASSERT_NE(way, nullptr);
    way->setLineAddr(arr.align(0x1000));
    way->state = CohState::Shared;
    arr.touch(*way);
    EXPECT_EQ(arr.find(0x1004), way); // same line, different offset
    EXPECT_EQ(arr.find(0x2000), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray arr(4 * 64, 4, 64); // one set, 4 ways
    Addr addrs[4] = {0x000, 0x100, 0x200, 0x300};
    for (Addr a : addrs) {
        CacheLine *w = arr.victim(a);
        w->setLineAddr(a);
        w->state = CohState::Shared;
        arr.touch(*w);
    }
    // Re-touch everything except 0x100: it becomes the LRU victim.
    arr.touch(*arr.find(0x000));
    arr.touch(*arr.find(0x200));
    arr.touch(*arr.find(0x300));
    EXPECT_EQ(arr.victim(0x400)->lineAddr(), 0x100u);
}

TEST(CacheArray, InvalidWayPreferred)
{
    CacheArray arr(4 * 64, 4, 64);
    for (Addr a : {0x000, 0x100, 0x200}) {
        CacheLine *w = arr.victim(a);
        w->setLineAddr(a);
        w->state = CohState::Shared;
        arr.touch(*w);
    }
    EXPECT_FALSE(arr.victim(0x400)->valid());
}

TEST(CacheArray, ComaPriorityProtectsMasters)
{
    CacheArray arr(4 * 64, 4, 64);
    const CohState states[4] = {CohState::Dirty, CohState::SharedMaster,
                                CohState::Shared, CohState::Shared};
    for (int i = 0; i < 4; ++i) {
        CacheLine *w = arr.victim(static_cast<Addr>(i) << 8);
        w->setLineAddr(static_cast<Addr>(i) << 8);
        w->state = states[i];
        arr.touch(*w);
    }
    // Non-master shared lines are replaced first.
    CacheLine *v = arr.victim(0x900, VictimPolicy::ComaPriority);
    EXPECT_EQ(v->state, CohState::Shared);

    // With only owned lines left, the master goes before the dirty.
    arr.find(0x200)->state = CohState::Dirty;
    arr.find(0x300)->state = CohState::SharedMaster;
    v = arr.victim(0x900, VictimPolicy::ComaPriority);
    EXPECT_EQ(v->state, CohState::SharedMaster);
}

TEST(Cache, HitMissAndDirtyTracking)
{
    Cache c("l1", CacheParams{1024, 1, 64, 3});
    EXPECT_FALSE(c.access(0x40, false));
    c.fill(0x40, false);
    EXPECT_TRUE(c.access(0x40, false));
    EXPECT_TRUE(c.access(0x40, true));
    EXPECT_TRUE(c.invalidateLine(0x40)); // was dirty
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, FillReportsVictim)
{
    Cache c("l1", CacheParams{64, 1, 64, 3}); // one line total
    c.fill(0x000, true);
    auto f = c.fill(0x1000, false);
    EXPECT_EQ(f.evictedLine, 0x000u);
    EXPECT_TRUE(f.evictedDirty);
}

TEST(Cache, InvalidateBlockCoversHalves)
{
    Cache c("l1", CacheParams{1024, 2, 64, 3});
    c.fill(0x100, false);
    c.fill(0x140, true);
    EXPECT_TRUE(c.invalidateBlock(0x100, 128));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x140));
}

TEST(Cache, FillCarriesStateAndVersion)
{
    Cache c("l2", CacheParams{1024, 2, 128, 6});
    c.fill(0x200, false, CohState::Dirty, 7);
    const CacheLine *l = c.array().find(0x200);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CohState::Dirty);
    EXPECT_EQ(l->version, 7u);

    auto f = c.fill(0x200 + 1024, false, CohState::Shared, 9);
    (void)f;
}

MemParams
smallMemParams()
{
    MemParams p;
    p.assoc = 4;
    p.lineBytes = 128;
    p.onChipFraction = 0.5;
    return p;
}

TEST(TaggedMemory, OnOffChipLatencyAndMigration)
{
    TaggedMemory tm(4 * 4 * 128, smallMemParams()); // 4 sets x 4 ways
    EXPECT_EQ(tm.onChipWaysPerSet(), 2);
    EXPECT_TRUE(tm.checkOnChipInvariant());

    // Fill one set with 4 lines; stride = sets * lineBytes.
    const Addr stride = 4 * 128;
    for (int i = 0; i < 4; ++i) {
        CacheLine *w = tm.victim(i * stride);
        tm.install(*w, i * stride, CohState::Shared);
    }
    // Two of the four must be off chip.
    int off = 0;
    for (int i = 0; i < 4; ++i) {
        if (!tm.find(i * stride)->onChip)
            ++off;
    }
    EXPECT_EQ(off, 2);

    // Accessing an off-chip line migrates it on chip.
    CacheLine *offline = nullptr;
    for (int i = 0; i < 4; ++i) {
        if (!tm.find(i * stride)->onChip)
            offline = tm.find(i * stride);
    }
    ASSERT_NE(offline, nullptr);
    EXPECT_EQ(tm.accessAndMigrate(*offline),
              smallMemParams().offChipLatency);
    EXPECT_TRUE(offline->onChip);
    EXPECT_TRUE(tm.checkOnChipInvariant());
    EXPECT_EQ(tm.migrations(), 1u);

    // And now it hits on chip.
    EXPECT_EQ(tm.accessAndMigrate(*offline),
              smallMemParams().onChipLatency);
}

TEST(TaggedMemory, MigrationInvariantUnderRandomTraffic)
{
    MemParams p = smallMemParams();
    TaggedMemory tm(64 * 4 * 128, p);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(4096) * 128;
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a);
            tm.install(*l, a, CohState::Shared);
        }
        tm.accessAndMigrate(*l);
    }
    EXPECT_TRUE(tm.checkOnChipInvariant());
}

TEST(TaggedMemory, FullyOnChipNeverMigrates)
{
    MemParams p = smallMemParams();
    p.onChipFraction = 1.0;
    TaggedMemory tm(16 * 4 * 128, p);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.nextBounded(256) * 128;
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a);
            tm.install(*l, a, CohState::Shared);
        }
        EXPECT_EQ(tm.accessAndMigrate(*l), p.onChipLatency);
    }
    EXPECT_EQ(tm.migrations(), 0u);
}

TEST(TaggedMemory, TransferOccupancyFromBandwidth)
{
    TaggedMemory tm(1 << 16, smallMemParams());
    EXPECT_EQ(tm.transferOccupancy(), 4u); // 128 B at 32 B/cycle
}

// ------------------------------------------------- packed 16 B lines

/** What a random trace through a 4-way tagged memory decided. */
struct LruTrace
{
    std::vector<Addr> victims;        ///< line displaced by each miss
    std::uint64_t migrations = 0;
    std::vector<bool> onChip;         ///< final residence of every way
    std::uint32_t maxStamp = 0;       ///< highest LRU stamp at the end
};

/** Run a fixed trace with the LRU clock started at @p clock_start. */
LruTrace
runLruTrace(std::uint32_t clock_start)
{
    TaggedMemory tm(8 * 4 * 128, smallMemParams()); // 8 sets x 4 ways
    tm.array().advanceLruClockForTest(clock_start);
    Rng rng(11);
    LruTrace t;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = rng.nextBounded(96) * 128; // 12 lines per set
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a, VictimPolicy::Lru);
            t.victims.push_back(l->lineAddr());
            tm.install(*l, a, CohState::Shared);
        }
        tm.accessAndMigrate(*l);
    }
    t.migrations = tm.migrations();
    tm.array().forEach([&](const CacheLine &l) {
        t.onChip.push_back(l.onChip);
        t.maxStamp = std::max(t.maxStamp, l.lastUse());
    });
    return t;
}

TEST(CacheArray, LruStampWrapKeepsVictimsAndMigrations)
{
    const LruTrace plain = runLruTrace(0);
    // ~7,000 touches from 1,000 below the limit: the clock wraps early
    // in the trace and the array renumbers its stamps.
    const LruTrace wrapped = runLruTrace(StampClock::kLimit - 1000);
    EXPECT_LT(wrapped.maxStamp, 100'000u) << "the clock never wrapped";
    EXPECT_GT(plain.victims.size(), 1000u);
    EXPECT_EQ(wrapped.victims, plain.victims);
    EXPECT_EQ(wrapped.migrations, plain.migrations);
    EXPECT_EQ(wrapped.onChip, plain.onChip);
}

TEST(StampClock, RenumberKeepsOrderTiesAndZero)
{
    StampClock clock;
    clock.advanceForTest(90);
    std::uint32_t s[] = {70, 0, 90, 70, 5};
    std::vector<std::uint32_t *> stamps;
    for (auto &v : s)
        stamps.push_back(&v);
    clock.restart(stamps);
    EXPECT_EQ(s[0], 2u);
    EXPECT_EQ(s[1], 0u);
    EXPECT_EQ(s[2], 3u);
    EXPECT_EQ(s[3], 2u);
    EXPECT_EQ(s[4], 1u);
    EXPECT_EQ(clock.now(), 3u);
    EXPECT_THROW(clock.advanceForTest(2), PanicError);
}

/** The PanicError text @p fn throws, or "" if it returns. */
template <typename Fn>
std::string
panicText(Fn fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(CacheLine, InstallPastTheTagLimitPanics)
{
    static_assert(sizeof(CacheLine) == 16);
    Cache c("l2", CacheParams{1024, 2, 128, 6});
    const std::string tag_limit = "below 0xffffffff0 (64 GiB)";
    const Addr k64GiB = Addr{1} << 36;
    EXPECT_NE(panicText([&] { c.fill(k64GiB, false); }).find(tag_limit),
              std::string::npos);

    TaggedMemory tm(4 * 4 * 128, smallMemParams());
    const Addr far = k64GiB + 0x80;
    EXPECT_NE(panicText([&] {
                  tm.install(*tm.victim(far), far, CohState::Shared);
              }).find(tag_limit),
              std::string::npos);

    // A misaligned tag would drop its low bits.
    CacheLine l;
    EXPECT_NE(panicText([&] { l.setLineAddr(0x1008); }).find(tag_limit),
              std::string::npos);

    // The largest 128 B line and version that fit round-trip.
    const Addr top = k64GiB - 128;
    c.fill(top, false, CohState::Shared, kVersionLimit);
    ASSERT_NE(c.array().find(top), nullptr);
    EXPECT_EQ(c.array().find(top)->lineAddr(), top);
    EXPECT_EQ(c.array().find(top)->version, kVersionLimit);
}

TEST(CacheArray, LookupPastTheTagRangeDoesNotAlias)
{
    CacheArray arr(4 * 64, 4, 64); // one set
    CacheLine *w = arr.victim(0x1000);
    w->setLineAddr(0x1000);
    w->state = CohState::Shared;
    // Same low 32 tag bits, same set: a truncated compare would hit.
    EXPECT_EQ(arr.find(0x1000 + (Addr{1} << 36)), nullptr);
    EXPECT_EQ(arr.find(0x1000), w);
}

TEST(PlainMemory, SlotLatencySplit)
{
    MemParams p = smallMemParams();
    PlainMemory pm(1024 * 128, p);
    EXPECT_EQ(pm.capacityLines(), 1024u);
    EXPECT_EQ(pm.onChipLines(), 512u);
    EXPECT_EQ(pm.accessLatency(0), p.onChipLatency);
    EXPECT_EQ(pm.accessLatency(511), p.onChipLatency);
    EXPECT_EQ(pm.accessLatency(512), p.offChipLatency);
    EXPECT_EQ(pm.accessLatency(kInvalidAddr), p.offChipLatency);
}

} // namespace
} // namespace pimdsm
