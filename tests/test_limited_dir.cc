/**
 * @file
 * Tests for the limited-pointer directory (the paper's 3-pointer
 * limited-vector scheme): precise tracking below the budget, broadcast
 * invalidation after overflow, overflow reset on writes, and a
 * correctness stress under the limited scheme.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "report/experiment.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

MachineConfig
limitedCfg(ArchKind arch, int p, int d, int pointers)
{
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = arch == ArchKind::Agg ? d : 0;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    cfg.directoryPointers = pointers;
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

void
doAccess(Machine &m, NodeId n, Addr a, bool write)
{
    bool done = false;
    m.compute(n)->access(a, write,
                         [&](Tick, ReadService) { done = true; });
    m.eq().run();
    ASSERT_TRUE(done);
}

constexpr Addr kLine = 1ull << 20;

TEST(LimitedDirectory, EntryTracksUpToBudgetThenOverflows)
{
    DirEntry e;
    e.addSharerLimited(1, 3);
    e.addSharerLimited(2, 3);
    e.addSharerLimited(3, 3);
    EXPECT_FALSE(e.ptrOverflow);
    EXPECT_EQ(e.sharerCount(), 3);

    e.addSharerLimited(4, 3);
    EXPECT_TRUE(e.ptrOverflow);
    EXPECT_EQ(e.sharerCount(), 3); // the fourth pointer was dropped
    EXPECT_FALSE(e.isSharer(4));

    // Re-adding a tracked sharer never overflows.
    DirEntry f;
    f.addSharerLimited(1, 3);
    f.addSharerLimited(1, 3);
    EXPECT_FALSE(f.ptrOverflow);

    // Full-map mode (0) never overflows.
    DirEntry g;
    for (NodeId n = 0; n < 20; ++n)
        g.addSharerLimited(n, 0);
    EXPECT_FALSE(g.ptrOverflow);
    EXPECT_EQ(g.sharerCount(), 20);
}

TEST(LimitedDirectory, OverflowWriteInvalidatesEveryCopy)
{
    Machine m(limitedCfg(ArchKind::Agg, 6, 2, 3));
    // Six readers: three tracked, three lost to overflow.
    for (NodeId n = 0; n < 6; ++n)
        doAccess(m, n, kLine, false);
    const DirEntry *e = m.home(6)->directory().find(kLine);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->ptrOverflow);

    // The write must reach the untracked sharers via broadcast.
    doAccess(m, 5, kLine, true);
    for (NodeId n = 0; n < 5; ++n) {
        auto *am = static_cast<CachedMemCompute *>(m.compute(n));
        EXPECT_EQ(am->peekState(kLine), CohState::Invalid) << n;
    }
    auto *w = static_cast<CachedMemCompute *>(m.compute(5));
    EXPECT_EQ(w->peekState(kLine), CohState::Dirty);

    // Overflow resets once the line is exclusively owned.
    e = m.home(6)->directory().find(kLine);
    EXPECT_FALSE(e->ptrOverflow);
    EXPECT_EQ(e->state, DirEntry::State::Dirty);
    m.checkInvariants();

    // The broadcast was recorded.
    EXPECT_GE(m.stats().get("home.broadcast_invals"), 1.0);
}

TEST(LimitedDirectory, NoBroadcastBelowBudget)
{
    Machine m(limitedCfg(ArchKind::Agg, 6, 2, 3));
    doAccess(m, 0, kLine, false);
    doAccess(m, 1, kLine, false);
    doAccess(m, 2, kLine, true);
    EXPECT_EQ(m.stats().get("home.broadcast_invals"), 0.0);
    m.checkInvariants();
}

class LimitedStress : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(LimitedStress, WorkloadRunsCoherentlyWithThreePointers)
{
    auto wl = makeWorkload("barnes", 1);
    BuildSpec spec;
    spec.arch = GetParam();
    spec.threads = 6;
    spec.pressure = 0.5;

    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.directoryPointers = 3;
    RunOptions opts;
    opts.checkInvariants = true;
    const RunResult r = runWorkload(cfg, *wl, opts);
    EXPECT_GT(r.totalTicks, 0u);
    // Barnes' widely-shared tree overflows 3 pointers constantly.
    EXPECT_GT(r.counter("home.broadcast_invals"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Archs, LimitedStress,
                         ::testing::Values(ArchKind::Agg,
                                           ArchKind::Numa,
                                           ArchKind::Coma),
                         [](const auto &info) {
                             return archName(info.param);
                         });

TEST(LimitedDirectory, FullMapAndLimitedAgreeOnFinalState)
{
    // The two schemes must produce the same logical outcome (who owns
    // what), differing only in invalidation traffic.
    for (int pointers : {0, 3}) {
        Machine m(limitedCfg(ArchKind::Agg, 6, 2, pointers));
        for (NodeId n = 0; n < 6; ++n)
            doAccess(m, n, kLine, false);
        doAccess(m, 2, kLine, true);
        doAccess(m, 4, kLine, false);
        const DirEntry *e = m.home(6)->directory().find(kLine);
        EXPECT_EQ(e->state, DirEntry::State::Shared) << pointers;
        EXPECT_TRUE(e->isSharer(4)) << pointers;
        m.checkInvariants();
    }
}

} // namespace
} // namespace pimdsm
