/**
 * @file
 * Machine-level tests: page placement, message routing, census,
 * builder sizing.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "sim/log.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

MachineConfig
tinyCfg(ArchKind arch, int p, int d)
{
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = arch == ArchKind::Agg ? d : 0;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    fitMesh(cfg.net, cfg.totalNodes());
    return cfg;
}

TEST(PageMapTest, FirstTouchAndRemap)
{
    PageMap pm(4096);
    EXPECT_EQ(pm.homeOf(0x5000), kInvalidNode);
    pm.assign(0x5123, 3);
    EXPECT_EQ(pm.homeOf(0x5fff), 3);
    EXPECT_EQ(pm.homeOf(0x6000), kInvalidNode);
    pm.remap(0x5000, 7);
    EXPECT_EQ(pm.homeOf(0x5001), 7);
    EXPECT_EQ(pm.pagesHomedAt(7).size(), 1u);
    EXPECT_THROW(pm.remap(0x9000, 1), PanicError);
}

TEST(MachineTest, AggPagesSpreadOverDNodes)
{
    Machine m(tinyCfg(ArchKind::Agg, 4, 2));
    std::set<NodeId> homes;
    for (int i = 0; i < 8; ++i)
        homes.insert(m.homeOf((1ull << 20) + i * 4096, 0));
    EXPECT_EQ(homes, (std::set<NodeId>{4, 5}));
    // Same page => same home, regardless of toucher.
    EXPECT_EQ(m.homeOf(1ull << 20, 3), m.homeOf((1ull << 20) + 128, 1));
}

TEST(MachineTest, BumpPastTheVersionLimitPanics)
{
    // Versions are 32-bit; the one place that mints them refuses to
    // wrap, naming the line and the limit.
    Machine m(tinyCfg(ArchKind::Agg, 2, 1));
    const Addr line = 0x12380;
    m.setLatestVersionForTest(line, kVersionLimit - 1);
    EXPECT_EQ(m.bumpVersion(line), kVersionLimit);
    std::string text;
    try {
        m.bumpVersion(line);
    } catch (const PanicError &e) {
        text = e.what();
    }
    EXPECT_NE(text.find("line 0x12380"), std::string::npos) << text;
    EXPECT_NE(text.find("(4294967295)"), std::string::npos) << text;
    EXPECT_EQ(m.latestVersion(line), kVersionLimit);
}

TEST(MachineTest, NumaFirstTouchBindsToToucher)
{
    Machine m(tinyCfg(ArchKind::Numa, 4, 0));
    EXPECT_EQ(m.homeOf(1ull << 20, 2), 2);
    EXPECT_EQ(m.homeOf(1ull << 20, 0), 2); // already mapped
    EXPECT_EQ(m.homeOf((1ull << 20) + 4096, 0), 0);
}

TEST(MachineTest, RolesByArchitecture)
{
    Machine agg(tinyCfg(ArchKind::Agg, 2, 2));
    EXPECT_EQ(agg.role(0), NodeRole::Compute);
    EXPECT_EQ(agg.role(2), NodeRole::Directory);
    EXPECT_EQ(agg.computeNodes().size(), 2u);
    EXPECT_EQ(agg.directoryNodes().size(), 2u);
    EXPECT_EQ(agg.compute(2), nullptr); // not reconfigurable
    EXPECT_EQ(agg.home(0), nullptr);

    Machine numa(tinyCfg(ArchKind::Numa, 3, 0));
    EXPECT_EQ(numa.role(1), NodeRole::Both);
    EXPECT_EQ(numa.computeNodes().size(), 3u);
    EXPECT_EQ(numa.directoryNodes().size(), 3u);
}

TEST(MachineTest, ReconfigurableBuildsDualControllers)
{
    MachineConfig cfg = tinyCfg(ArchKind::Agg, 2, 2);
    cfg.reconfigurable = true;
    Machine m(cfg);
    EXPECT_NE(m.compute(3), nullptr);
    EXPECT_NE(m.home(0), nullptr);
    // But census only counts active directory nodes.
    EXPECT_EQ(m.collectCensus().dNodeCapacityLines,
              2 * static_cast<AggDNodeHome *>(m.home(2))
                      ->store()
                      .dataEntries());
}

TEST(MachineTest, CensusClassifiesStates)
{
    Machine m(tinyCfg(ArchKind::Agg, 3, 1));
    auto run = [&](NodeId n, Addr a, bool w) {
        bool fired = false;
        m.compute(n)->access(a, w, [&](Tick, ReadService) {
            fired = true;
        });
        m.eq().run();
        ASSERT_TRUE(fired);
    };
    const Addr base = 1ull << 20;
    run(0, base + 0 * 128, true);  // dirty in P
    run(0, base + 1 * 128, false); // shared in P
    run(1, base + 2 * 128, false); // shared in P
    run(2, base + 3 * 128, true);  // dirty in P
    run(2, base + 3 * 128, false); // still cached: no change

    const LineCensus c = m.collectCensus();
    EXPECT_EQ(c.dirtyInPNode, 2u);
    EXPECT_EQ(c.sharedInPNode, 2u);
    EXPECT_EQ(c.totalLines(), 4u);
    EXPECT_GT(c.dNodeCapacityLines, 0u);
}

TEST(BuilderTest, RatiosAndFatDNodes)
{
    FftWorkload wl(1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 32;
    spec.pressure = 0.75;
    spec.dRatio = 4;
    const MachineConfig cfg = buildConfig(wl, spec);
    EXPECT_EQ(cfg.numPNodes, 32);
    EXPECT_EQ(cfg.numDNodes, 8);
    // Fat D-nodes: each D-node has ~4x a P-node's memory.
    EXPECT_NEAR(static_cast<double>(cfg.dNodeMemBytes) /
                    cfg.pNodeMemBytes,
                4.0, 0.6);
    // Total DRAM ~ footprint / pressure.
    EXPECT_NEAR(static_cast<double>(cfg.totalDramBytes()),
                wl.footprintBytes() / 0.75,
                wl.footprintBytes() * 0.1);
    // Per-application cache sizes from Table 3.
    EXPECT_EQ(cfg.l1.sizeBytes, wl.l1Bytes());
    EXPECT_EQ(cfg.l2.sizeBytes, wl.l2Bytes());
}

TEST(BuilderTest, EqualBisectionBandwidthSetup)
{
    FftWorkload wl(1);
    BuildSpec agg;
    agg.arch = ArchKind::Agg;
    BuildSpec numa;
    numa.arch = ArchKind::Numa;
    const auto cfg_a = buildConfig(wl, agg);
    const auto cfg_n = buildConfig(wl, numa);
    EXPECT_EQ(cfg_a.net.linkBytesPerTick * 2,
              cfg_n.net.linkBytesPerTick * 1);
    EXPECT_EQ(cfg_a.totalNodes(), 64);
    EXPECT_EQ(cfg_n.totalNodes(), 32);
    // Same total DRAM for the equal-cost comparison (Figure 5).
    EXPECT_NEAR(static_cast<double>(cfg_a.totalDramBytes()),
                static_cast<double>(cfg_n.totalDramBytes()),
                cfg_n.totalDramBytes() * 0.05);
}

TEST(BuilderTest, FixedTotalDMemoryOverride)
{
    FftWorkload wl(1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.dNodes = 2;
    spec.fixedTotalDMemBytes = 8ull << 20;
    const auto cfg = buildConfig(wl, spec);
    EXPECT_NEAR(static_cast<double>(cfg.dNodeMemBytes), 4.0 * (1 << 20),
                4096.0);
}

} // namespace
} // namespace pimdsm
