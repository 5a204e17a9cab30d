/**
 * @file
 * Randomized protocol stress: concurrent loads/stores from every node
 * over a small hot line set, for all three architectures and several
 * seeds (TEST_P sweep). Correctness is enforced by the simulator's
 * built-in checks (read-version freshness, SWMR directory invariants,
 * inclusion) plus completion accounting here.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "machine/machine.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include <cstdlib>

namespace pimdsm
{
namespace
{

MachineConfig
stressCfg(ArchKind arch, int p, int d, std::uint64_t p_mem)
{
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = arch == ArchKind::Agg ? d : 0;
    cfg.pNodeMemBytes = p_mem;
    cfg.dNodeMemBytes = p_mem;
    cfg.l1 = CacheParams{512, 1, 64, 3};
    cfg.l2 = CacheParams{2048, 1, 64, 6};
    // Fault-free runs get the strict coherence oracle (on by default):
    // any SWMR or version violation panics mid-run with the line's
    // history.
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

/** One synthetic requester: issues random accesses back to back. */
class Agent
{
  public:
    Agent(Machine &m, NodeId n, std::uint64_t seed, int total,
          std::uint64_t num_lines, int *done_counter)
        : m_(m), node_(n), rng_(seed), remaining_(total),
          numLines_(num_lines), done_(done_counter)
    {
    }

    void
    issueNext()
    {
        if (remaining_-- == 0) {
            ++*done_;
            return;
        }
        // Hot-set skew: half the traffic on 8 contended lines.
        std::uint64_t idx;
        if (rng_.chance(0.5))
            idx = rng_.nextBounded(8);
        else
            idx = rng_.nextBounded(numLines_);
        const Addr addr = (1ull << 20) + idx * 128 +
                          rng_.nextBounded(2) * 64;
        const bool write = rng_.chance(0.4);
        m_.compute(node_)->access(addr, write,
                                  [this](Tick, ReadService) {
                                      m_.eq().scheduleIn(
                                          1 + rng_.nextBounded(20),
                                          [this] { issueNext(); });
                                  });
    }

  private:
    Machine &m_;
    NodeId node_;
    Rng rng_;
    int remaining_;
    std::uint64_t numLines_;
    int *done_;
};

using StressParam = std::tuple<ArchKind, int /*seed*/>;

class ProtocolStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(ProtocolStress, RandomTrafficPreservesCoherence)
{
    if (std::getenv("PIMDSM_TRACE"))
        Trace::enable();
    const auto [arch, seed] = GetParam();
    const int nodes = 6;
    const int d = arch == ArchKind::Agg ? 3 : 0;
    // Small memories force evictions, writebacks, SharedList reuse,
    // and (for COMA) injections.
    Machine m(stressCfg(arch, nodes, d, 16 * 1024));

    const std::uint64_t num_lines = 256;
    const int per_agent = 1500;
    int done = 0;
    std::vector<std::unique_ptr<Agent>> agents;
    for (NodeId n = 0; n < nodes; ++n) {
        agents.push_back(std::make_unique<Agent>(
            m, n, 1000 + seed * 17 + n, per_agent, num_lines, &done));
        agents.back()->issueNext();
    }

    std::uint64_t events = 0;
    while (done < nodes) {
        ASSERT_TRUE(m.eq().runOne()) << "deadlock with " << done << "/"
                                     << nodes << " agents done";
        if (++events % 100000 == 0)
            m.checkInvariants();
        ASSERT_LT(events, 80'000'000u) << "livelock suspected";
    }
    m.eq().run();
    m.checkInvariants();
    m.checkCoherenceQuiescent();

    // Every node must be drained of transient state.
    for (NodeId n = 0; n < nodes; ++n)
        EXPECT_EQ(m.compute(n)->outstanding(), 0u) << n;
}

std::string
stressName(const ::testing::TestParamInfo<StressParam> &info)
{
    return std::string(archName(std::get<0>(info.param))) + "_seed" +
           std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, ProtocolStress,
    ::testing::Combine(::testing::Values(ArchKind::Agg, ArchKind::Numa,
                                         ArchKind::Coma),
                       ::testing::Values(1, 2, 3, 4)),
    stressName);

/** Heavier single-configuration soak for AGG (the paper's machine). */
TEST(ProtocolStressSoak, AggTinyDnodeStorePagesOut)
{
    MachineConfig cfg = stressCfg(ArchKind::Agg, 4, 1, 16 * 1024);
    cfg.dNodeMemBytes = 8 * 1024; // ~53 slots for 512 lines
    Machine m(cfg);

    const std::uint64_t num_lines = 512;
    int done = 0;
    std::vector<std::unique_ptr<Agent>> agents;
    for (NodeId n = 0; n < 4; ++n) {
        agents.push_back(std::make_unique<Agent>(m, n, 5000 + n, 2500,
                                                 num_lines, &done));
        agents.back()->issueNext();
    }
    std::uint64_t events = 0;
    while (done < 4) {
        ASSERT_TRUE(m.eq().runOne());
        ASSERT_LT(++events, 120'000'000u);
    }
    m.eq().run();
    m.checkInvariants();
    m.checkCoherenceQuiescent();

    auto *home = static_cast<AggDNodeHome *>(m.home(4));
    home->store().checkIntegrity();
    // The store must have been forced to reclaim or page out.
    EXPECT_GT(m.stats().get("dnode.sharedlist_reuse") +
                  m.stats().get("dnode.pageout_candidates"),
              0.0);
}

} // namespace
} // namespace pimdsm
