/**
 * @file
 * D-node paging tests (Section 2.2.2's overflow handling): the free
 * reserve triggers page-out of cold home-master pages, SharedList
 * reuse is preferred while reclaimable entries remain, paged-out
 * lines restore with correct data, and release drops stale disk
 * copies.
 */

#include <gtest/gtest.h>

#include <vector>

#include "machine/machine.hh"
#include "sim/stamp_clock.hh"

namespace pimdsm
{
namespace
{

MachineConfig
pagingCfg(std::uint64_t d_mem)
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 2;
    cfg.numThreads = 2;
    cfg.numDNodes = 1;
    cfg.pNodeMemBytes = 256 * 1024; // P-nodes never the bottleneck here
    cfg.dNodeMemBytes = d_mem;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
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

constexpr Addr kBase = 1ull << 20;

TEST(Paging, WritebackStormForcesPageOut)
{
    // Small D store; node 0 dirties many lines then evicts them home
    // (writebacks consume Data slots with unreclaimable home-master
    // lines), forcing page-outs.
    MachineConfig cfg = pagingCfg(8 * 1024); // ~53 slots
    cfg.pNodeMemBytes = 8 * 1024;            // force evictions
    Machine m(cfg);
    auto *home = static_cast<AggDNodeHome *>(m.home(2));

    for (int i = 0; i < 200; ++i)
        doAccess(m, 0, kBase + i * 128, true);
    m.eq().run();

    EXPECT_GT(m.stats().get("dnode.page_out_episode") +
                  m.stats().get("dnode.sharedlist_reuse"),
              0.0);
    home->store().checkIntegrity();
    m.checkInvariants();

    // Every line is still readable (page-in restores from disk).
    for (int i = 0; i < 200; ++i)
        doAccess(m, 1, kBase + i * 128, false);
    m.checkInvariants();
}

TEST(Paging, PagedOutLineRestoresLatestVersion)
{
    MachineConfig cfg = pagingCfg(8 * 1024);
    cfg.pNodeMemBytes = 8 * 1024;
    Machine m(cfg);

    // Version the target line a few times first.
    doAccess(m, 0, kBase, true);
    doAccess(m, 1, kBase, true);
    const Version v = m.latestVersion(kBase);

    // Flood the D-node until something pages.
    for (int i = 1; i < 300; ++i)
        doAccess(m, 0, kBase + i * 128, true);
    m.eq().run();

    if (m.stats().get("dnode.pageout_candidates") > 0) {
        // Reading the (possibly paged) line must yield version v —
        // the protocol's freshness panic enforces it.
        doAccess(m, 0, kBase, false);
        EXPECT_EQ(m.latestVersion(kBase), v);
    }
    m.checkInvariants();
}

TEST(Paging, SharedListReusePreferredWhileReclaimable)
{
    // All lines are read (shared, mastership handed out), so every
    // slot is reclaimable: the store reuses SharedList and never pages.
    MachineConfig cfg = pagingCfg(8 * 1024);
    Machine m(cfg);
    auto *home = static_cast<AggDNodeHome *>(m.home(2));
    const auto slots = home->store().dataEntries();

    for (std::uint64_t i = 0; i < slots + 30; ++i)
        doAccess(m, 0, kBase + i * 128, false);
    m.eq().run();

    EXPECT_GT(m.stats().get("dnode.sharedlist_reuse"), 0.0);
    EXPECT_EQ(m.stats().get("dnode.pageout_candidates"), 0.0);
    home->store().checkIntegrity();
    m.checkInvariants();
}

TEST(Paging, WriteToPagedLineDropsDiskCopy)
{
    MachineConfig cfg = pagingCfg(8 * 1024);
    cfg.pNodeMemBytes = 8 * 1024;
    Machine m(cfg);

    doAccess(m, 0, kBase, true);
    for (int i = 1; i < 300; ++i)
        doAccess(m, 0, kBase + i * 128, true);
    m.eq().run();

    // Write the first line again (whether paged or not): the stale
    // disk copy must not resurface afterwards.
    doAccess(m, 1, kBase, true);
    doAccess(m, 0, kBase, false); // freshness check inside
    m.checkInvariants();
}

TEST(Paging, CensusCountsPagedLinesAsDNodeOnly)
{
    MachineConfig cfg = pagingCfg(8 * 1024);
    cfg.pNodeMemBytes = 8 * 1024;
    Machine m(cfg);

    for (int i = 0; i < 300; ++i)
        doAccess(m, 0, kBase + i * 128, true);
    m.eq().run();

    const LineCensus census = m.collectCensus();
    // Paged-out lines still belong to the machine's footprint census.
    EXPECT_GE(census.totalLines(), 250u);
    if (m.stats().get("dnode.pageout_candidates") >
        m.stats().get("dnode.page_in")) {
        EXPECT_GT(census.dNodeOnly, census.dNodeUsedLines);
    }
}

/** What a page-out-heavy run decided: each access's completion tick and
 *  the D-node store's slot contents after it. */
struct PagingTrace
{
    std::vector<Tick> done;
    std::vector<Addr> slotLines;
    double pageOuts = 0;
};

PagingTrace
runPagingTrace(std::uint32_t touch_clock_start)
{
    MachineConfig cfg = pagingCfg(8 * 1024);
    cfg.pNodeMemBytes = 8 * 1024;
    Machine m(cfg);
    auto *home = static_cast<AggDNodeHome *>(m.home(2));
    home->store().advanceTouchClockForTest(touch_clock_start);
    PagingTrace t;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 200; ++i) {
            doAccess(m, round % 2, kBase + ((i * 7) % 200) * 128,
                     (i + round) % 3 != 0);
            t.done.push_back(m.eq().curTick());
            for (std::uint32_t s = 0; s < home->store().dataEntries(); ++s)
                t.slotLines.push_back(home->store().slotLine(s));
        }
    }
    t.pageOuts = m.stats().get("dnode.pageout_candidates");
    m.checkInvariants();
    return t;
}

TEST(Paging, TouchStampWrapKeepsPageOutOrder)
{
    const PagingTrace plain = runPagingTrace(0);
    const PagingTrace wrapped = runPagingTrace(StampClock::kLimit - 100);
    EXPECT_GT(plain.pageOuts, 0.0);
    EXPECT_EQ(wrapped.pageOuts, plain.pageOuts);
    EXPECT_EQ(wrapped.done, plain.done);
    EXPECT_EQ(wrapped.slotLines, plain.slotLines);
}

} // namespace
} // namespace pimdsm
