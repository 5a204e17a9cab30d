/**
 * @file
 * Parameterized property sweeps across configuration space:
 * set-associative array geometry, tagged-memory residence invariants,
 * workload partition coverage across thread counts, and protocol
 * stress under varied directory representations and link widths.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "machine/machine.hh"
#include "mem/tagged_memory.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

namespace pimdsm
{
namespace
{

// ------------------------------------------------------- cache arrays

using Geometry = std::tuple<int /*kb*/, int /*assoc*/, int /*line*/>;

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometry, FindAfterInsertAndVictimStability)
{
    const auto [kb, assoc, line] = GetParam();
    CacheArray arr(static_cast<std::uint64_t>(kb) * 1024, assoc, line);
    EXPECT_EQ(arr.numLines(),
              static_cast<std::uint64_t>(arr.numSets()) * assoc);

    Rng rng(kb * 7 + assoc);
    std::set<Addr> resident;
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.nextBounded(1 << 16) *
                       static_cast<Addr>(line);
        CacheLine *l = arr.find(a);
        if (!l) {
            CacheLine *v = arr.victim(a);
            if (v->valid())
                resident.erase(v->lineAddr());
            v->reset();
            v->setLineAddr(arr.align(a));
            v->state = CohState::Shared;
            resident.insert(v->lineAddr());
            l = v;
        }
        arr.touch(*l);
        // Everything we believe resident must be findable, and the
        // array can never hold more than its capacity.
        ASSERT_LE(resident.size(), arr.numLines());
        ASSERT_NE(arr.find(a), nullptr);
    }
    // Cross-check the resident set against a full scan.
    EXPECT_EQ(arr.countValid(), resident.size());
    for (Addr a : resident)
        ASSERT_NE(arr.find(a), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1, 1, 64}, Geometry{4, 2, 64},
                      Geometry{8, 4, 128}, Geometry{32, 8, 128},
                      Geometry{16, 16, 64}, Geometry{2, 4, 32}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "K_" +
               std::to_string(std::get<1>(info.param)) + "way_" +
               std::to_string(std::get<2>(info.param)) + "B";
    });

// ------------------------------------------------------ tagged memory

class TaggedResidence
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(TaggedResidence, OnChipCountInvariantUnderChurn)
{
    const auto [assoc, fraction] = GetParam();
    MemParams p;
    p.assoc = assoc;
    p.lineBytes = 128;
    p.onChipFraction = fraction;
    TaggedMemory tm(64 * assoc * 128, p);

    Rng rng(assoc * 31 + static_cast<int>(fraction * 10));
    for (int i = 0; i < 30000; ++i) {
        const Addr a = rng.nextBounded(2048) * 128;
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a, rng.chance(0.5) ? VictimPolicy::Lru
                                             : VictimPolicy::Random);
            tm.install(*l, a, CohState::Shared);
        }
        tm.accessAndMigrate(*l);
        if (i % 4096 == 0) {
            ASSERT_TRUE(tm.checkOnChipInvariant());
        }
    }
    EXPECT_TRUE(tm.checkOnChipInvariant());
    // Hot lines end up on chip: re-touch a small set and verify.
    for (int r = 0; r < 3; ++r) {
        for (Addr a = 0; a < 8 * 128; a += 128) {
            CacheLine *l = tm.find(a);
            if (!l) {
                l = tm.victim(a);
                tm.install(*l, a, CohState::Shared);
            }
            tm.accessAndMigrate(*l);
        }
    }
    for (Addr a = 0; a < 8 * 128; a += 128) {
        const CacheLine *l = tm.find(a);
        ASSERT_NE(l, nullptr);
        EXPECT_TRUE(l->onChip);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Splits, TaggedResidence,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.25, 0.5, 1.0)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "way_frac" +
               std::to_string(static_cast<int>(
                   std::get<1>(info.param) * 100));
    });

// ---------------------------------------------------------- workloads

class PartitionCoverage
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(PartitionCoverage, ThreadsJointlyCoverTheFootprintCore)
{
    // Whatever the thread count, the union of all threads' init-phase
    // stores must cover most of the footprint (no thread-count-
    // dependent gaps), and every thread must get work.
    const auto &[name, threads] = GetParam();
    auto wl = makeWorkload(name, 1);

    std::set<Addr> touched;
    for (ThreadId t = 0; t < threads; ++t) {
        auto s = wl->makeStream(0, t, threads);
        Op op;
        std::uint64_t mine = 0;
        while (s->next(op)) {
            if (op.kind == Op::Kind::Store) {
                touched.insert(blockAlign(op.addr, 128));
                ++mine;
            }
        }
        EXPECT_GT(mine, 0u) << name << " thread " << t;
    }
    const double covered =
        static_cast<double>(touched.size()) * 128.0 /
        static_cast<double>(wl->footprintBytes());
    EXPECT_GT(covered, 0.5) << name; // core arrays fully initialized
}

INSTANTIATE_TEST_SUITE_P(
    AppsThreads, PartitionCoverage,
    ::testing::Combine(::testing::ValuesIn(paperWorkloadNames()),
                       ::testing::Values(2, 5, 8)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------- protocol config sweeps

using ProtoSweep = std::tuple<ArchKind, int /*pointers*/, int /*link*/>;

class ProtocolConfigSweep : public ::testing::TestWithParam<ProtoSweep>
{
};

TEST_P(ProtocolConfigSweep, RandomTrafficStaysCoherent)
{
    const auto [arch, pointers, link] = GetParam();
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = 5;
    cfg.numThreads = 5;
    cfg.numDNodes = arch == ArchKind::Agg ? 2 : 0;
    cfg.pNodeMemBytes = 16 * 1024;
    cfg.dNodeMemBytes = 16 * 1024;
    cfg.l1 = CacheParams{512, 1, 64, 3};
    cfg.l2 = CacheParams{2048, 1, 64, 6};
    cfg.directoryPointers = pointers;
    cfg.net.linkBytesPerTick = link;
    fitMesh(cfg.net, cfg.totalNodes());
    Machine m(cfg);

    Rng rng(pointers * 5 + link);
    int outstanding = 0;
    int issued = 0;
    const int total = 4000;

    std::function<void(NodeId)> issue = [&](NodeId n) {
        if (issued >= total)
            return;
        ++issued;
        ++outstanding;
        const Addr a = (1ull << 20) + rng.nextBounded(96) * 128;
        m.compute(n)->access(a, rng.chance(0.5),
                             [&, n](Tick, ReadService) {
                                 --outstanding;
                                 issue(n);
                             });
    };
    for (NodeId n = 0; n < 5; ++n)
        issue(n);
    std::uint64_t events = 0;
    while (outstanding > 0) {
        ASSERT_TRUE(m.eq().runOne()) << "deadlock";
        ASSERT_LT(++events, 60'000'000u);
    }
    m.eq().run();
    m.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolConfigSweep,
    ::testing::Combine(::testing::Values(ArchKind::Agg, ArchKind::Numa,
                                         ArchKind::Coma),
                       ::testing::Values(0, 2, 3),
                       ::testing::Values(2, 4)),
    [](const auto &info) {
        return std::string(archName(std::get<0>(info.param))) + "_p" +
               std::to_string(std::get<1>(info.param)) + "_w" +
               std::to_string(std::get<2>(info.param));
    });

} // namespace
} // namespace pimdsm
