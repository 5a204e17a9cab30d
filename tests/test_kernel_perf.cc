/**
 * @file
 * Kernel-overhaul regression tests: calendar queue vs. reference heap
 * differential execution, event-node pool hygiene and in-node
 * execution, flat hot-path maps, InlineCallback semantics, and
 * whole-machine determinism across kernels.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "proto/message.hh"
#include "report/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/inline_callback.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/small_vec.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

// ---------------------------------------------------------------------
// Differential: the calendar queue must execute an adversarial mix of
// near/far/same-tick schedules in exactly the reference heap's order.
// ---------------------------------------------------------------------

/** One kernel's execution trace for a scripted random schedule. */
std::vector<std::uint64_t>
traceKernel(EventQueue::KernelKind kind, std::uint64_t n_events,
            std::uint64_t seed)
{
    EventQueue eq(kind);
    Rng rng(seed);
    std::vector<std::uint64_t> trace;
    trace.reserve(n_events);
    std::uint64_t scheduled = 0;
    std::uint64_t id = 0;

    auto delay = [&rng]() -> Tick {
        const std::uint64_t r = rng.nextBounded(1000);
        if (r < 300)
            return 0; // same tick: FIFO order must hold
        if (r < 800)
            return 1 + rng.nextBounded(16);
        if (r < 950)
            return 20 + rng.nextBounded(500);
        if (r < 995)
            return 1000 + rng.nextBounded(30000); // beyond the ring
        return 100000 + rng.nextBounded(1000000); // deep overflow
    };

    // Each event logs its id and schedules 0-2 successors, so the
    // schedule itself depends on execution order: any divergence
    // cascades instead of hiding.
    std::function<void(std::uint64_t)> fire =
        [&](std::uint64_t my_id) {
            trace.push_back(my_id);
            const std::uint64_t kids = rng.nextBounded(3);
            for (std::uint64_t k = 0; k < kids; ++k) {
                if (scheduled >= n_events)
                    break;
                ++scheduled;
                const std::uint64_t kid_id = id++;
                eq.scheduleIn(delay(),
                              [&fire, kid_id] { fire(kid_id); });
            }
        };

    for (std::uint64_t i = 0; i < 64 && scheduled < n_events; ++i) {
        ++scheduled;
        const std::uint64_t seed_id = id++;
        eq.schedule(rng.nextBounded(2000),
                    [&fire, seed_id] { fire(seed_id); });
    }
    eq.run();
    return trace;
}

TEST(CalendarQueue, MatchesReferenceHeapOnAMillionMixedEvents)
{
    const std::uint64_t n = 1'000'000;
    const auto ref =
        traceKernel(EventQueue::KernelKind::ReferenceHeap, n, 0xd1ffull);
    const auto cal =
        traceKernel(EventQueue::KernelKind::Calendar, n, 0xd1ffull);
    ASSERT_EQ(ref.size(), cal.size());
    // EXPECT_EQ on the vectors would print a million elements on
    // failure; find the first divergence instead.
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], cal[i]) << "first divergence at event " << i;
    }
}

TEST(CalendarQueue, MatchesReferenceAcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xabcdefull}) {
        const auto ref = traceKernel(
            EventQueue::KernelKind::ReferenceHeap, 50'000, seed);
        const auto cal =
            traceKernel(EventQueue::KernelKind::Calendar, 50'000, seed);
        EXPECT_EQ(ref, cal) << "seed " << seed;
    }
}

/**
 * One kernel's execution trace for a schedule aimed at the ring's
 * edges: horizons just inside, at and just past 4,096 and 8,192 ticks
 * (the ring is 8,192 buckets), beyond it and deep in the overflow
 * heap, each hit by same-tick FIFO bursts, from callbacks that keep
 * rescheduling across the edge.
 */
std::vector<std::uint64_t>
traceRingEdges(EventQueue::KernelKind kind)
{
    static constexpr std::array<Tick, 8> kHorizons = {
        4095, 4096, 4097, 8191, 8192, 8193, 12000, 250000};
    EventQueue eq(kind);
    Rng rng(0x41'00ull);
    std::vector<std::uint64_t> trace;
    std::uint64_t id = 0;
    std::uint64_t budget = 40'000;

    std::function<void(std::uint64_t)> fire;
    // A burst of 1-4 events on one tick; FIFO order must hold.
    auto burst = [&](Tick when) {
        const std::uint64_t n = 1 + rng.nextBounded(4);
        for (std::uint64_t k = 0; k < n && budget > 0; ++k, --budget) {
            const std::uint64_t kid = id++;
            eq.schedule(when, [&fire, kid] { fire(kid); });
        }
    };
    fire = [&](std::uint64_t my_id) {
        trace.push_back(my_id);
        const Tick h = kHorizons[rng.nextBounded(kHorizons.size())];
        burst(eq.curTick() + h - 1 + rng.nextBounded(3));
        if (rng.nextBounded(4) == 0)
            burst(eq.curTick()); // joins the running tick's FIFO
    };

    for (int round = 0; round < 3; ++round)
        for (Tick h : kHorizons)
            burst(h);
    eq.run();
    return trace;
}

TEST(CalendarQueue, MatchesReferenceAcrossTheRingEdge)
{
    const auto ref = traceRingEdges(EventQueue::KernelKind::ReferenceHeap);
    const auto cal = traceRingEdges(EventQueue::KernelKind::Calendar);
    ASSERT_EQ(ref.size(), 40'000u);
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], cal[i]) << "first divergence at event " << i;
    }
}

TEST(CalendarQueue, RunUntilThenBackfillBeforeTheWindowBase)
{
    // Regression: after runUntil stops short of a far-future event the
    // ring base can sit ahead of curTick; a new event scheduled below
    // the base must still run before the far one.
    EventQueue eq(EventQueue::KernelKind::Calendar);
    std::vector<int> order;
    eq.schedule(1'000'000, [&] { order.push_back(2); });
    eq.runUntil(500);
    eq.schedule(600, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 1'000'000u);
}

// ---------------------------------------------------------------------
// Pools.
// ---------------------------------------------------------------------

TEST(EventPool, ReusesNodesInsteadOfGrowing)
{
    EventQueue eq(EventQueue::KernelKind::Calendar);
    // Cycle far more events than ever live at once: capacity must
    // track the high-water mark, not the total event count.
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(1 + i, [] {});
        eq.run();
    }
    EXPECT_EQ(eq.executed(), 8000u);
    EXPECT_LE(eq.poolCapacity(), 512u);
    // Queue drained: every node is back on the free list.
    EXPECT_EQ(eq.poolFree(), eq.poolCapacity());
}

TEST(EventPool, CallbackSchedulingPastASlabKeepsItsCaptures)
{
    // The callback runs inside its pool node. Scheduling more events
    // than one slab holds makes the pool grow while it runs; slabs
    // never move, so its captures must read back intact.
    EventQueue eq(EventQueue::KernelKind::Calendar);
    std::array<std::uint64_t, 12> vals{};
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    std::uint64_t seen = 0;
    int children = 0;
    eq.schedule(1, [&eq, &seen, &children, vals] {
        for (int i = 0; i < 300; ++i)
            eq.scheduleIn(1 + i % 7, [&children] { ++children; });
        for (const std::uint64_t v : vals)
            seen ^= v;
    });
    eq.run();
    std::uint64_t want = 0;
    for (const std::uint64_t v : vals)
        want ^= v;
    EXPECT_EQ(seen, want);
    EXPECT_EQ(children, 300);
    EXPECT_GT(eq.poolCapacity(), 256u);
    EXPECT_EQ(eq.poolFree(), eq.poolCapacity());
}

TEST(EventPool, ThrowingCallbackStillReturnsItsNode)
{
    EventQueue eq(EventQueue::KernelKind::Calendar);
    int ran = 0;
    eq.schedule(1, [&ran] { ++ran; });
    eq.schedule(2, [] { panic("callback failed"); });
    eq.schedule(3, [&ran] { ++ran; });
    EXPECT_THROW(eq.run(), PanicError);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    // The queue keeps running after the throw.
    eq.scheduleIn(5, [&ran] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 3);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.poolFree(), eq.poolCapacity());
}

/** Counts copies and moves of a closure's capture. */
struct CopyCounter
{
    int *copies;
    int *moves;
    CopyCounter(int *c, int *m) : copies(c), moves(m) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies), moves(o.moves)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&o) noexcept
        : copies(o.copies), moves(o.moves)
    {
        ++*moves;
    }
    CopyCounter &operator=(const CopyCounter &) = delete;
    CopyCounter &operator=(CopyCounter &&) = delete;
};

TEST(EventPool, ScheduleCopiesLvalueAndMovesRvalueCallbacks)
{
    EventQueue eq(EventQueue::KernelKind::Calendar);
    int copies = 0;
    int moves = 0;
    int hits = 0;
    InlineCallback cb([c = CopyCounter(&copies, &moves), &hits] {
        (void)c;
        ++hits;
    });
    ASSERT_TRUE(cb.storedInline());
    copies = moves = 0;

    eq.schedule(1, cb); // lvalue: copied into the node
    EXPECT_EQ(copies, 1);
    EXPECT_EQ(moves, 0);
    ASSERT_TRUE(cb);
    cb(); // the original is untouched and still callable
    eq.run();
    EXPECT_EQ(hits, 2);

    copies = moves = 0;
    eq.schedule(2, std::move(cb)); // rvalue: relocated once
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(moves, 1);
    EXPECT_FALSE(cb); // NOLINT: moved-from state is specified
    eq.run();
    EXPECT_EQ(hits, 3);
    EXPECT_EQ(moves, 1); // ran in place, never moved out of the node
}

TEST(InlineCallback, MessageDeliveryClosureStaysInline)
{
    // Machine::send's delivery closure: a this-pointer plus a Message
    // by value.
    struct Sink
    {
        int acks = 0;
        InlineCallback
        deliver(Message msg)
        {
            return [this, msg] { acks += msg.ackCount; };
        }
    };
    Sink sink;
    Message msg;
    msg.ackCount = 3;
    InlineCallback cb = sink.deliver(msg);
    EXPECT_TRUE(cb.storedInline());
    InlineCallback dup = cb; // the mesh's Duplicate path copies it
    cb();
    dup();
    EXPECT_EQ(sink.acks, 6);
}

// ---------------------------------------------------------------------
// InlineCallback.
// ---------------------------------------------------------------------

TEST(InlineCallback, SmallLambdasStayInline)
{
    int x = 0;
    InlineCallback cb([&x] { ++x; });
    EXPECT_TRUE(cb.storedInline());
    cb();
    EXPECT_EQ(x, 1);
}

TEST(InlineCallback, OversizedLambdasFallBackToHeap)
{
    struct Big
    {
        char pad[256] = {};
    };
    Big big;
    int hits = 0;
    InlineCallback cb([big, &hits] { hits += sizeof(big) ? 1 : 0; });
    EXPECT_FALSE(cb.storedInline());
    InlineCallback copy = cb; // heap fallback stays copyable
    cb();
    copy();
    EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CopyableCapturesSurviveDuplication)
{
    // The mesh duplicates delivery closures under fault injection;
    // copying must deep-preserve the captured state.
    auto shared = std::make_shared<int>(0);
    InlineCallback cb([shared] { ++*shared; });
    InlineCallback dup = cb;
    cb();
    dup();
    EXPECT_EQ(*shared, 2);
}

TEST(InlineCallback, ConstCopyCapturesGoToHeapInitCapturesStayInline)
{
    // A by-copy capture of a const reference is a const member, which
    // cannot be moved without a (possibly throwing) copy; the hot
    // paths init-capture to stay inline.
    const std::function<void()> fn = [] {};
    const std::function<void()> &ref = fn;
    InlineCallback copied([ref] { ref(); });
    EXPECT_FALSE(copied.storedInline());
    InlineCallback init([f = ref] { f(); });
    EXPECT_TRUE(init.storedInline());
}

// ---------------------------------------------------------------------
// SmallVec.
// ---------------------------------------------------------------------

TEST(SmallVec, KeepsOrderPastInlineCapacityAndMovesOut)
{
    SmallVec<std::string, 2> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 5; ++i)
        v.push_back("s" + std::to_string(i));
    ASSERT_EQ(v.size(), 5u);
    int i = 0;
    for (const std::string &s : v)
        EXPECT_EQ(s, "s" + std::to_string(i++));
    EXPECT_EQ(i, 5);
    EXPECT_EQ(v[3], "s3");

    SmallVec<std::string, 2> moved = std::move(v);
    EXPECT_TRUE(v.empty()); // NOLINT: moved-from state is specified
    ASSERT_EQ(moved.size(), 5u);
    EXPECT_EQ(moved[0], "s0");
    EXPECT_EQ(moved[4], "s4");

    v = std::move(moved);
    EXPECT_TRUE(moved.empty()); // NOLINT: moved-from state is specified
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[1], "s1");
}

// ---------------------------------------------------------------------
// FlatMap.
// ---------------------------------------------------------------------

TEST(FlatMap, InsertFindEraseAgainstReference)
{
    FlatMap<std::uint64_t, int> fm;
    std::map<std::uint64_t, int> ref;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.nextBounded(4096) << 6;
        switch (rng.nextBounded(3)) {
        case 0:
            fm[key] = i;
            ref[key] = i;
            break;
        case 1:
            EXPECT_EQ(fm.erase(key), ref.erase(key));
            break;
        default: {
            auto it = fm.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it == fm.end(), rit == ref.end());
            if (it != fm.end()) {
                EXPECT_EQ(it->second, rit->second);
            }
        }
        }
    }
    EXPECT_EQ(fm.size(), ref.size());
    for (const auto &[k, v] : ref) {
        auto it = fm.find(k);
        ASSERT_NE(it, fm.end());
        EXPECT_EQ(it->second, v);
    }
}

TEST(FlatMap, PairKeysWork)
{
    FlatMap<std::pair<Addr, NodeId>, int> fm;
    fm[{0x40, 3}] = 1;
    fm[{0x40, 4}] = 2;
    fm[{0x80, 3}] = 3;
    EXPECT_EQ(fm.size(), 3u);
    EXPECT_EQ((fm[{0x40, 4}]), 2);
    EXPECT_EQ((fm.erase({0x40, 3})), 1u);
    EXPECT_EQ((fm.find({0x40, 3})), fm.end());
    EXPECT_EQ((fm[{0x80, 3}]), 3);
}

// ---------------------------------------------------------------------
// Whole-machine determinism: a full experiment must produce identical
// stats under either kernel.
// ---------------------------------------------------------------------

RunResult
runFig6Point(EventQueue::KernelKind kind)
{
    EventQueue::setDefaultKind(kind);
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.pressure = 0.25;
    spec.dRatio = 2;
    RunResult r = runWorkload(*wl, spec);
    EventQueue::setDefaultKind(EventQueue::KernelKind::Calendar);
    return r;
}

TEST(KernelDeterminism, Fig6StatsIdenticalAcrossKernels)
{
    const RunResult heap =
        runFig6Point(EventQueue::KernelKind::ReferenceHeap);
    const RunResult cal = runFig6Point(EventQueue::KernelKind::Calendar);

    EXPECT_EQ(heap.totalTicks, cal.totalTicks);
    EXPECT_EQ(heap.messages, cal.messages);
    EXPECT_EQ(heap.instructions, cal.instructions);
    EXPECT_EQ(heap.time.total(), cal.time.total());
    for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
        EXPECT_EQ(heap.reads.count[i], cal.reads.count[i]) << i;
        EXPECT_EQ(heap.reads.totalLatency[i], cal.reads.totalLatency[i])
            << i;
    }
    // Every named counter, bitwise.
    ASSERT_EQ(heap.counters.size(), cal.counters.size());
    for (const auto &[name, value] : heap.counters) {
        const auto it = cal.counters.find(name);
        ASSERT_NE(it, cal.counters.end()) << name;
        EXPECT_EQ(value, it->second) << name;
    }
}

} // namespace
} // namespace pimdsm
