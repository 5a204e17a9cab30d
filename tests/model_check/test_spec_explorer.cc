/**
 * @file
 * Spec-level model checker tests: clean exhaustive sweeps per
 * organization (fault-free, one fault and fault pairs per line),
 * partial-order-reduction and symmetry sanity, the three mutation
 * self-tests (each seeded bug must be caught with a minimal BFS
 * counterexample), and conformance sampling replaying abstract traces
 * through the real Machine (see src/check/spec_explorer.hh and
 * docs/model-checking.md).
 */

#include <gtest/gtest.h>

#include "check/spec_explorer.hh"

namespace pimdsm
{
namespace
{

SpecExplorerConfig
smallCfg(ArchKind arch)
{
    SpecExplorerConfig cfg;
    cfg.arch = arch;
    cfg.nodes = 2;
    cfg.lines = 1;
    cfg.evicts = 1;
    cfg.faults = 0;
    return cfg;
}

// ---------------------------------------------------- clean sweeps

class SpecExplorerPerArch : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(SpecExplorerPerArch, CleanSweepFindsNoViolation)
{
    SpecExplorer ex(smallCfg(GetParam()));
    const SpecExplorerResult res = ex.run();
    EXPECT_FALSE(res.violation) << res.violationText;
    EXPECT_FALSE(res.truncated);
    EXPECT_GT(res.states, 100u);
    EXPECT_GT(res.transitions, res.states);
    EXPECT_GT(res.terminals, 0u);
    // Every handler step is checked against its declarative spec row.
    EXPECT_GT(res.rowChecks, 0u);
    EXPECT_EQ(res.faultTransitions, 0u);
}

TEST_P(SpecExplorerPerArch, SingleFaultSweepFindsNoViolation)
{
    SpecExplorerConfig cfg = smallCfg(GetParam());
    cfg.faults = 1;
    SpecExplorer ex(cfg);
    const SpecExplorerResult res = ex.run();
    EXPECT_FALSE(res.violation) << res.violationText;
    EXPECT_FALSE(res.truncated);
    EXPECT_GT(res.faultTransitions, 0u);
    // An AGG line's one fault may be its home D-node's failover.
    if (GetParam() == ArchKind::Agg)
        EXPECT_GT(res.failovers, 0u);
    else
        EXPECT_EQ(res.failovers, 0u);
}

TEST_P(SpecExplorerPerArch, FaultPairSweepIsClean)
{
    // Two faults per line (drops, dups and, for AGG, one home
    // failover), with forced retries unbounded: the model orders a
    // co-located home's traffic with its node's, as the machine does,
    // so every reachable state must be clean.
    SpecExplorerConfig cfg = smallCfg(GetParam());
    cfg.evicts = 0;
    cfg.faults = 2;
    SpecExplorer ex(cfg);
    const SpecExplorerResult res = ex.run();
    EXPECT_FALSE(res.violation) << res.violationText;
    EXPECT_FALSE(res.truncated);
    EXPECT_GT(res.faultTransitions, res.failovers);
    if (GetParam() == ArchKind::Agg)
        EXPECT_GT(res.failovers, 0u);
    else
        EXPECT_EQ(res.failovers, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, SpecExplorerPerArch,
                         ::testing::Values(ArchKind::Agg,
                                           ArchKind::Coma,
                                           ArchKind::Numa),
                         [](const auto &info) {
                             return std::string(archName(info.param));
                         });

// -------------------------------------------- partial-order reduction

TEST(SpecExplorer, PorPrunesIndependentLineInterleavings)
{
    // Two independent lines: the ample-set reduction expands only the
    // lowest line with enabled actions, so cross-line interleavings
    // are deferred rather than enumerated.
    SpecExplorerConfig cfg = smallCfg(ArchKind::Agg);
    cfg.lines = 2;
    cfg.evicts = 0;
    SpecExplorer ex(cfg);
    const SpecExplorerResult res = ex.run();
    EXPECT_FALSE(res.violation) << res.violationText;
    EXPECT_GT(res.porPruned, 0u);

    // The reduction must not lose the single-line violation power:
    // a one-line config has nothing to prune.
    cfg.lines = 1;
    SpecExplorer ex1(cfg);
    const SpecExplorerResult res1 = ex1.run();
    EXPECT_EQ(res1.porPruned, 0u);
}

TEST(SpecExplorer, SymmetryReductionDeduplicatesNodePermutations)
{
    // With symmetric budgets the canonicalization must fold node
    // relabelings together: revisits (edges into already-seen states)
    // strictly exceed zero even on a tiny config. AGG is the only
    // organization that permutes nodes (a COMA/NUMA home sits on a
    // particular node).
    SpecExplorer ex(smallCfg(ArchKind::Agg));
    const SpecExplorerResult res = ex.run();
    EXPECT_GT(res.revisits, 0u);
}

// ------------------------------------------------ mutation self-tests

SpecExplorerConfig
mutantCfg(SpecMutation m)
{
    // BFS for the shortest counterexample; no faults or evictions so
    // the trace isolates the seeded protocol bug.
    SpecExplorerConfig cfg;
    cfg.arch = ArchKind::Agg;
    cfg.nodes = 2;
    cfg.lines = 1;
    cfg.evicts = 0;
    cfg.faults = 0;
    cfg.bfs = true;
    cfg.mutation = m;
    return cfg;
}

TEST(SpecExplorerMutation, DropInvalSendIsCaught)
{
    SpecExplorer ex(mutantCfg(SpecMutation::DropInvalSend));
    const SpecExplorerResult res = ex.run();
    ASSERT_TRUE(res.violation)
        << "lost invalidation escaped the checker";
    EXPECT_FALSE(res.counterexample.empty());
    // BFS counterexamples are minimal: a handful of events, not a
    // wandering schedule.
    EXPECT_LE(res.counterexample.size(), 24u);
}

TEST(SpecExplorerMutation, DoubleOwnerIsCaught)
{
    SpecExplorer ex(mutantCfg(SpecMutation::DoubleOwner));
    const SpecExplorerResult res = ex.run();
    ASSERT_TRUE(res.violation)
        << "double exclusive grant escaped the checker";
    EXPECT_FALSE(res.counterexample.empty());
    EXPECT_LE(res.counterexample.size(), 24u);
}

TEST(SpecExplorerMutation, SwapNextStateIsCaughtBySpecConformance)
{
    // This mutation corrupts the spec *copy*, not the model: only the
    // per-step row conformance checks can see the disagreement.
    SpecExplorer ex(mutantCfg(SpecMutation::SwapNextState));
    const SpecExplorerResult res = ex.run();
    ASSERT_TRUE(res.violation)
        << "spec/model next-state drift escaped the row checks";
    EXPECT_FALSE(res.counterexample.empty());
    EXPECT_LE(res.counterexample.size(), 24u);
}

// --------------------------------------------- conformance sampling

class SpecConformancePerArch : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(SpecConformancePerArch, SampledTracesReplayOnTheRealMachine)
{
    // Sample from an eviction-free, fault-pair exploration (real
    // evictions are capacity-driven and cannot be scripted) and drive
    // each trace through a real Machine with the oracle armed; any
    // divergence panics inside replaySpecTraces. AGG samples include
    // home failovers, replayed as failOverDNode on the line's D-node.
    SpecExplorerConfig cfg;
    cfg.arch = GetParam();
    cfg.nodes = 2;
    cfg.lines = 1;
    cfg.evicts = 0;
    cfg.faults = 2;
    cfg.sampleTraces = 110;
    SpecExplorer ex(cfg);
    const SpecExplorerResult res = ex.run();
    ASSERT_FALSE(res.violation) << res.violationText;
    ASSERT_GE(res.sampled.size(), 100u);

    int withFailover = 0;
    for (const SpecTrace &tr : res.sampled) {
        for (const SpecTraceStep &s : tr) {
            if (s.kind == SpecTraceStep::Kind::Failover) {
                ++withFailover;
                break;
            }
        }
    }
    if (GetParam() == ArchKind::Agg)
        EXPECT_GT(withFailover, 0);
    else
        EXPECT_EQ(withFailover, 0);

    SpecConformanceResult cr;
    EXPECT_NO_THROW(cr = replaySpecTraces(cfg, res.sampled));
    EXPECT_EQ(cr.replayed, static_cast<int>(res.sampled.size()));
    EXPECT_GT(cr.guidedSteps, 0u);
    EXPECT_GT(cr.deliveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, SpecConformancePerArch,
                         ::testing::Values(ArchKind::Agg,
                                           ArchKind::Coma,
                                           ArchKind::Numa),
                         [](const auto &info) {
                             return std::string(archName(info.param));
                         });

} // namespace
} // namespace pimdsm
