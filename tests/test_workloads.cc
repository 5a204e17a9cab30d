/**
 * @file
 * Workload generator tests: determinism, address-range containment,
 * instruction/op sanity, phase structure — parameterized over all
 * seven applications (TEST_P property sweep).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/log.hh"
#include "workload/apps.hh"
#include "workload/stream_util.hh"
#include "workload/workload.hh"

namespace pimdsm
{
namespace
{

std::vector<Op>
drain(OpStream &s, std::size_t cap = 5'000'000)
{
    std::vector<Op> ops;
    Op op;
    while (s.next(op)) {
        ops.push_back(op);
        if (ops.size() > cap)
            ADD_FAILURE() << "stream did not terminate";
    }
    return ops;
}

/** Yields loads of lines 0 .. @p n-1, in order. */
OpGen
countingOps(int n)
{
    for (int i = 0; i < n; ++i)
        co_yield Op::load(static_cast<Addr>(i) * 64);
}

/** Yields one op, then panics. */
OpGen
panickingOps()
{
    co_yield Op::compute(1);
    panic("generator failed");
}

TEST(OpGen, YieldsOpsInYieldOrderThenStaysExhausted)
{
    OpGen s = countingOps(9);
    const std::vector<Op> ops = drain(s);
    ASSERT_EQ(ops.size(), 9u);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].kind, Op::Kind::Load);
        EXPECT_EQ(ops[i].addr, i * 64) << "op " << i;
    }
    Op op;
    EXPECT_FALSE(s.next(op));
    EXPECT_FALSE(s.next(op));
}

TEST(OpGen, EmptyGeneratorYieldsNothing)
{
    OpGen s = countingOps(0);
    Op op;
    EXPECT_FALSE(s.next(op));
    EXPECT_FALSE(s.next(op));
}

TEST(OpGen, ExceptionInGeneratorPropagatesOutOfNext)
{
    OpGen s = panickingOps();
    Op op;
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.kind, Op::Kind::Compute);
    EXPECT_THROW(s.next(op), PanicError);
    EXPECT_FALSE(s.next(op)); // the coroutine finished when it threw
}

TEST(OpGen, MovedFromStreamIsEmpty)
{
    OpGen a = countingOps(2);
    OpGen b(std::move(a));
    Op op;
    EXPECT_FALSE(a.next(op)); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(drain(b).size(), 2u);
}

/**
 * FNV-1a over every field of every op of every (phase, thread) stream
 * of @p wl, each stream closed by its op count.
 */
std::uint64_t
opStreamHash(const Workload &wl, int threads)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto as_u64 = [](std::int64_t v) {
        return static_cast<std::uint64_t>(v);
    };
    for (int phase = 0; phase < wl.numPhases(); ++phase) {
        for (ThreadId t = 0; t < threads; ++t) {
            auto s = wl.makeStream(phase, t, threads);
            Op op;
            std::uint64_t n = 0;
            while (s->next(op)) {
                mix(static_cast<std::uint64_t>(op.kind));
                mix(op.count);
                mix(op.addr);
                mix(as_u64(op.useDist));
                mix(op.cimRecords);
                mix(op.cimMatches);
                mix(as_u64(op.cimNode));
                ++n;
            }
            mix(n);
        }
    }
    return h;
}

TEST(WorkloadGolden, OpStreamsMatchRecordedHashes)
{
    // Pins every field of every op each generator emits, in order, for
    // every (phase, thread) stream: a generator edit that moves, adds
    // or drops a single op changes its hash, and so every simulated
    // result downstream. 32 threads is the paper's machine; 3 gives
    // uneven slices and long transpose blocks.
    struct Golden
    {
        const char *name;
        bool cim;
        int threads;
        std::uint64_t hash;
    };
    const Golden golden[] = {
        {"fft", false, 32, 0x7e568027fc657325ull},
        {"radix", false, 32, 0xe1b46f9fc858ba5eull},
        {"ocean", false, 32, 0xa8a05dcf5b394dd9ull},
        {"barnes", false, 32, 0xad7e2455b38dfb56ull},
        {"swim", false, 32, 0x252479e9ef2518e5ull},
        {"tomcatv", false, 32, 0x0880705200c8e725ull},
        {"dbase", false, 32, 0x8c36a8ce1d40d253ull},
        {"dbase", true, 32, 0x4b09536f19fe5672ull},
        {"fft", false, 3, 0xe00524ceaa6e07e7ull},
        {"radix", false, 3, 0x825925739bd58e9dull},
        {"ocean", false, 3, 0xd25777ad302033b9ull},
        {"barnes", false, 3, 0xb2eec10b6b636179ull},
        {"swim", false, 3, 0x9a5c3bd49794041cull},
        {"tomcatv", false, 3, 0x65e098db2d53f369ull},
        {"dbase", false, 3, 0xdde8bb6afa2b847eull},
        {"dbase", true, 3, 0x58d33b2832f78395ull},
    };
    for (const Golden &g : golden) {
        const std::unique_ptr<Workload> wl =
            g.cim ? std::make_unique<DbaseWorkload>(1, true)
                  : makeWorkload(g.name, 1);
        std::uint64_t h = 0;
        ASSERT_NO_THROW(h = opStreamHash(*wl, g.threads))
            << wl->name() << " x" << g.threads;
        EXPECT_EQ(h, g.hash) << wl->name() << " x" << g.threads;
    }
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Workload> wl_ = makeWorkload(GetParam(), 1);
};

TEST_P(EveryWorkload, StreamsAreDeterministic)
{
    const int threads = 4;
    for (int phase = 0; phase < wl_->numPhases(); ++phase) {
        auto s1 = wl_->makeStream(phase, 1, threads);
        auto s2 = wl_->makeStream(phase, 1, threads);
        Op a, b;
        int n = 0;
        while (true) {
            const bool ha = s1->next(a);
            const bool hb = s2->next(b);
            ASSERT_EQ(ha, hb) << "phase " << phase;
            if (!ha)
                break;
            ASSERT_EQ(a.kind, b.kind);
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.count, b.count);
            if (++n > 200000)
                break; // long streams: prefix equality is enough
        }
    }
}

TEST_P(EveryWorkload, AddressesStayInFootprint)
{
    const int threads = 4;
    const Addr hi = kDataBase + wl_->footprintBytes() +
                    (4ull << 20); // slack for rounded regions
    for (int phase = 0; phase < wl_->numPhases(); ++phase) {
        for (ThreadId t = 0; t < threads; ++t) {
            auto s = wl_->makeStream(phase, t, threads);
            Op op;
            int n = 0;
            while (s->next(op) && n++ < 100000) {
                switch (op.kind) {
                  case Op::Kind::Load:
                  case Op::Kind::Store:
                    // Data accesses live in the data region, except
                    // small shared reduction scalars co-located with
                    // their lock in the sync region.
                    ASSERT_GE(op.addr, kSyncBase);
                    ASSERT_LT(op.addr, hi);
                    break;
                  case Op::Kind::Lock:
                  case Op::Kind::Unlock:
                  case Op::Kind::Barrier:
                    ASSERT_GE(op.addr, kSyncBase);
                    ASSERT_LT(op.addr, kDataBase);
                    break;
                  case Op::Kind::Cim:
                    ASSERT_GE(op.addr, kDataBase);
                    break;
                  default:
                    break;
                }
            }
        }
    }
}

TEST_P(EveryWorkload, EveryPhaseEmitsWorkForEveryThread)
{
    const int threads = 4;
    for (int phase = 0; phase < wl_->numPhases(); ++phase) {
        for (ThreadId t = 0; t < threads; ++t) {
            auto s = wl_->makeStream(phase, t, threads);
            Op op;
            ASSERT_TRUE(s->next(op))
                << wl_->name() << " phase " << phase << " thread " << t;
        }
    }
}

TEST_P(EveryWorkload, LocksAreBalanced)
{
    const int threads = 4;
    for (int phase = 0; phase < wl_->numPhases(); ++phase) {
        for (ThreadId t = 0; t < threads; ++t) {
            auto s = wl_->makeStream(phase, t, threads);
            Op op;
            std::map<Addr, int> held;
            while (s->next(op)) {
                if (op.kind == Op::Kind::Lock) {
                    ASSERT_EQ(held[op.addr], 0) << "recursive lock";
                    held[op.addr] = 1;
                } else if (op.kind == Op::Kind::Unlock) {
                    ASSERT_EQ(held[op.addr], 1) << "unlock w/o lock";
                    held[op.addr] = 0;
                }
            }
            for (auto &[a, h] : held)
                ASSERT_EQ(h, 0) << "lock leaked";
        }
    }
}

TEST_P(EveryWorkload, FootprintIsPositiveAndScales)
{
    auto big = makeWorkload(GetParam(), 2);
    EXPECT_GT(wl_->footprintBytes(), 1024u * 1024);
    EXPECT_GT(big->footprintBytes(), wl_->footprintBytes());
}

TEST_P(EveryWorkload, InitPhaseWritesOwnPartitionOnly)
{
    // First-touch sanity: during init (phase 0) threads mostly store;
    // distinct threads touch mostly disjoint lines.
    const int threads = 4;
    std::vector<std::set<Addr>> touched(threads);
    for (ThreadId t = 0; t < threads; ++t) {
        auto s = wl_->makeStream(0, t, threads);
        Op op;
        while (s->next(op)) {
            if (op.kind == Op::Kind::Store)
                touched[t].insert(blockAlign(op.addr, 128));
        }
        ASSERT_FALSE(touched[t].empty());
    }
    std::uint64_t overlap = 0, total = 0;
    for (int a = 0; a < threads; ++a) {
        total += touched[a].size();
        for (int b = a + 1; b < threads; ++b) {
            for (Addr x : touched[a])
                overlap += touched[b].count(x);
        }
    }
    EXPECT_LT(static_cast<double>(overlap), 0.02 * total);
}

INSTANTIATE_TEST_SUITE_P(Apps, EveryWorkload,
                         ::testing::ValuesIn(paperWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadFactory, RejectsUnknownNames)
{
    EXPECT_THROW(makeWorkload("quake"), FatalError);
    EXPECT_THROW(makeWorkload("fft", 0), FatalError);
}

TEST(WorkloadFactory, TableThreeCacheSizes)
{
    EXPECT_EQ(makeWorkload("fft")->l1Bytes(), 8u * 1024);
    EXPECT_EQ(makeWorkload("fft")->l2Bytes(), 32u * 1024);
    EXPECT_EQ(makeWorkload("swim")->l1Bytes(), 32u * 1024);
    EXPECT_EQ(makeWorkload("swim")->l2Bytes(), 128u * 1024);
    EXPECT_EQ(makeWorkload("tomcatv")->l1Bytes(), 64u * 1024);
    EXPECT_EQ(makeWorkload("tomcatv")->l2Bytes(), 256u * 1024);
    EXPECT_EQ(makeWorkload("dbase")->l1Bytes(), 64u * 1024);
    EXPECT_EQ(makeWorkload("dbase")->l2Bytes(), 512u * 1024);
}

TEST(DbaseCim, CimStreamsContainOffloads)
{
    DbaseWorkload plain(1, false);
    DbaseWorkload cim(1, true);
    for (int phase : {1, 2}) {
        auto sp = plain.makeStream(phase, 0, 4);
        auto sc = cim.makeStream(phase, 0, 4);
        auto count_kind = [](OpStream &s, Op::Kind k) {
            Op op;
            int n = 0;
            while (s.next(op))
                n += op.kind == k;
            return n;
        };
        EXPECT_EQ(count_kind(*sp, Op::Kind::Cim), 0);
        EXPECT_GT(count_kind(*sc, Op::Kind::Cim), 0);
    }
    // CIM drastically reduces the records the P-nodes touch.
    auto sp = plain.makeStream(1, 0, 4);
    auto sc = cim.makeStream(1, 0, 4);
    const auto plain_loads = drain(*sp).size();
    const auto cim_loads = drain(*sc).size();
    EXPECT_LT(cim_loads, plain_loads);
}

TEST(FftShape, TransposeTouchesRemotePartitions)
{
    FftWorkload wl(1);
    const int threads = 4;
    // Thread 0's transpose must read lines initialized by others.
    std::set<Addr> own;
    {
        auto s = wl.makeStream(0, 0, threads);
        Op op;
        while (s->next(op)) {
            if (op.kind == Op::Kind::Store)
                own.insert(blockAlign(op.addr, 128));
        }
    }
    auto s = wl.makeStream(2, 0, threads);
    Op op;
    int remote_reads = 0;
    while (s->next(op)) {
        if (op.kind == Op::Kind::Load && !own.count(
                                             blockAlign(op.addr, 128)))
            ++remote_reads;
    }
    EXPECT_GT(remote_reads, 100);
}

} // namespace
} // namespace pimdsm
