/**
 * @file
 * Protocol model checking: exhaustively explore message-delivery
 * orderings (plus single injected faults) of tiny scripted workloads,
 * asserting coherence, quiescence, and the sequential version
 * reference on every schedule (see src/check/explorer.hh).
 */

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

const Addr kLine = modelCheckLine(0);
const Addr kOtherLine = modelCheckLine(1); // different page

ExplorerConfig
twoWriterConflict(ArchKind arch, int p, int d)
{
    ExplorerConfig ec;
    ec.machine = modelCheckMachine(arch, p, d);
    ec.accesses = {
        {0, kLine, true},
        {1, kLine, true},
        {0, kLine, false},
        {1, kLine, false},
    };
    return ec;
}

// ------------------------------------------- pure delivery reordering

TEST(ModelCheck, AggTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
    EXPECT_GT(res.decisions, res.schedules);
    EXPECT_EQ(res.faultSchedules, 0u);
    // Stateless-DFS accounting: every decision is either a first visit
    // or a prefix re-execution, and with > 1 schedule the backtrack
    // replay cost must show up.
    EXPECT_EQ(res.decisions, res.visited + res.reExecuted);
    EXPECT_GT(res.visited, 0u);
    EXPECT_GT(res.reExecuted, 0u);
}

TEST(ModelCheck, NumaTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Numa, 2, 0);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
}

TEST(ModelCheck, ComaTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Coma, 2, 0);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
}

TEST(ModelCheck, FalseSharingTwoLinesStaysCoherent)
{
    ExplorerConfig ec;
    ec.machine = modelCheckMachine(ArchKind::Agg, 2, 1);
    ec.accesses = {
        {0, kLine, true},
        {1, kOtherLine, true},
        {0, kOtherLine, false},
        {1, kLine, false},
    };
    // A bounded sample, not a proof: two lines' traffic interleaves
    // into a tree far past the schedule cap. The exhaustive two-line
    // coverage is the spec checker's 3-node x 2-line sweep, whose
    // partial-order reduction collapses independent-line interleavings
    // (docs/model-checking.md).
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_TRUE(res.truncated);
    EXPECT_EQ(res.schedules, 20000u);
}

// ----------------------------------------- one drop or one duplicate

TEST(ModelCheck, AggDropDupExploresOverAThousandSchedules)
{
    // The acceptance bar from the issue: >= 1000 distinct schedules on
    // a two-requester single-line conflict, zero violations. Budget 2
    // explores fault *pairs* (e.g. a dropped reply plus a dropped
    // retry), which is where the schedule count comes from: home-side
    // serialization keeps pure delivery reorderings of one line small.
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.faultMode = ExplorerFaultMode::DropDup;
    ec.faultBudget = 2;
    ec.maxSchedules = 100000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 1000u);
    EXPECT_GT(res.faultSchedules, 0u);
    // Fault-free baselines are part of the same tree.
    EXPECT_LT(res.faultSchedules, res.schedules);
    EXPECT_EQ(res.decisions, res.visited + res.reExecuted);
    // On a deep tree the replay overhead dominates fresh visits —
    // exactly the cost the spec-level checker's visited-set dedup
    // avoids (docs/model-checking.md).
    EXPECT_GT(res.reExecuted, res.visited);
}

TEST(ModelCheck, NumaDropDupStaysCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Numa, 2, 0);
    ec.faultMode = ExplorerFaultMode::DropDup;
    ec.maxSchedules = 10000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 50u);
    EXPECT_GT(res.faultSchedules, 0u);
}

// --------------------------------------------- one D-node fail-stop

TEST(ModelCheck, AggDNodeDeathAtEveryPointRecovers)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 2);
    ec.faultMode = ExplorerFaultMode::Death;
    ec.maxSchedules = 4000;
    // Failover drops home data; the quiescent scan still passes because
    // paged-out entries are exempt from the home-copy check.
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 10u);
    EXPECT_GT(res.faultSchedules, 0u);
}

// ------------------------------------------------- config validation

TEST(ModelCheck, RejectsEmptyScript)
{
    ExplorerConfig ec;
    ec.machine = modelCheckMachine(ArchKind::Agg, 2, 1);
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

TEST(ModelCheck, RejectsDeathModeWithoutFailoverSurvivor)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.faultMode = ExplorerFaultMode::Death;
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

TEST(ModelCheck, RejectsAccessOutsideTheMachine)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.accesses.push_back({17, kLine, false});
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

} // namespace
} // namespace pimdsm
