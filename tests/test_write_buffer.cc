/**
 * @file
 * Write buffer unit tests: background draining, per-line coalescing,
 * capacity accounting, flush semantics, misuse detection.
 */

#include <gtest/gtest.h>

#include "core/write_buffer.hh"
#include "sim/log.hh"
#include "machine/machine.hh"

namespace pimdsm
{
namespace
{

struct Rig
{
    Machine m;

    Rig()
        : m([] {
              MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
              cfg.numPNodes = 1;
              cfg.numThreads = 1;
              cfg.numDNodes = 1;
              cfg.pNodeMemBytes = 256 * 1024;
              cfg.dNodeMemBytes = 256 * 1024;
              cfg.l1 = CacheParams{1024, 1, 64, 3};
              cfg.l2 = CacheParams{4096, 1, 64, 6};
              fitMesh(cfg.net, cfg.totalNodes());
              return cfg;
          }())
    {
    }

    ProcParams params() const { return m.config().proc; }
};

TEST(WriteBufferTest, DrainsInBackground)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    EXPECT_TRUE(wb.empty());
    wb.push(1 << 20);
    EXPECT_FALSE(wb.empty());
    rig.m.eq().run();
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.storesRetired(), 1u);
}

TEST(WriteBufferTest, CoalescesQueuedSameLineStores)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    // Saturate the in-flight window with distinct lines first.
    const int inflight = rig.params().maxOutstanding -
                         rig.params().maxOutstandingLoads;
    for (int i = 0; i < inflight + 2; ++i)
        wb.push((1 << 20) + (i + 1) * 4096);
    // Now duplicates of one queued line coalesce.
    const Addr hot = (1 << 20) + 4096 * (inflight + 2);
    wb.push(hot);
    wb.push(hot + 8);
    wb.push(hot + 16);
    EXPECT_GE(wb.coalesced(), 2u);
    rig.m.eq().run();
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, CoalescesOnlyWhileTheLineIsQueued)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    // Fill the in-flight window so the next stores stay queued.
    const int inflight = rig.params().maxOutstanding -
                         rig.params().maxOutstandingLoads;
    for (int i = 0; i < inflight; ++i)
        wb.push((1 << 20) + (i + 1) * 4096);
    const Addr hot = (1 << 20) + 4096 * (inflight + 1);
    wb.push(hot);
    wb.push(hot + 8);  // same 64 B line, still queued: coalesces
    wb.push(hot + 64); // next 64 B line: a store of its own
    EXPECT_EQ(wb.coalesced(), 1u);

    rig.m.eq().run();
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.storesRetired(), static_cast<std::uint64_t>(inflight) + 2);

    // The queued entry has drained, so the line is no longer in the
    // buffer: a new store to it retires separately.
    wb.push(hot + 16);
    EXPECT_EQ(wb.coalesced(), 1u);
    rig.m.eq().run();
    EXPECT_EQ(wb.storesRetired(), static_cast<std::uint64_t>(inflight) + 3);
}

TEST(WriteBufferTest, FullAndSpaceCallback)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    int space_events = 0;
    wb.setSpaceCallback([&] { ++space_events; });

    int pushed = 0;
    while (!wb.full()) {
        wb.push((1 << 20) + pushed * 4096);
        ++pushed;
    }
    EXPECT_EQ(pushed, rig.params().writeBufferEntries);
    EXPECT_THROW(wb.push(1 << 24), PanicError);

    rig.m.eq().run();
    EXPECT_TRUE(wb.empty());
    EXPECT_GT(space_events, 0);
}

TEST(WriteBufferTest, FlushFiresWhenEmpty)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    bool flushed = false;
    wb.flush([&] { flushed = true; });
    EXPECT_TRUE(flushed); // already empty: immediate

    flushed = false;
    wb.push(1 << 20);
    wb.push((1 << 20) + 4096);
    wb.flush([&] { flushed = true; });
    EXPECT_FALSE(flushed);
    EXPECT_THROW(wb.flush([] {}), PanicError); // one flush at a time
    rig.m.eq().run();
    EXPECT_TRUE(flushed);
}

TEST(WriteBufferTest, ManyStoresAllRetire)
{
    Rig rig;
    WriteBuffer wb(*rig.m.compute(0), rig.params());
    int accepted = 0;
    for (int i = 0; i < 500; ++i) {
        if (wb.full())
            rig.m.eq().run(); // let it drain
        wb.push((1 << 20) + i * 4096);
        ++accepted;
    }
    rig.m.eq().run();
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.storesRetired() + wb.coalesced(),
              static_cast<std::uint64_t>(accepted));
}

} // namespace
} // namespace pimdsm
