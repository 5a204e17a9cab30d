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
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "net/mesh.hh"
#include "proto/compute_base.hh"
#include "proto/message.hh"
#include "report/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/inline_callback.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
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
    // Three references plus words up to the whole inline budget.
    std::array<std::uint64_t, InlineCallback::kInlineBytes / 8 - 3> vals{};
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    std::uint64_t seen = 0;
    int children = 0;
    auto parent = [&eq, &seen, &children, vals] {
        for (int i = 0; i < 300; ++i)
            eq.scheduleIn(1 + i % 7, [&children] { ++children; });
        for (const std::uint64_t v : vals)
            seen ^= v;
    };
    static_assert(sizeof(parent) == InlineCallback::kInlineBytes);
    eq.schedule(1, parent);
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

// ---------------------------------------------------------------------
// InlineCallback and CompletionFn: trivially copyable, fixed budget.
// ---------------------------------------------------------------------

template <typename F>
constexpr bool kSchedulable = requires(EventQueue &eq, F f) {
    eq.schedule(Tick{0}, f);
};

template <typename F>
constexpr bool kSendable = requires(Mesh &mesh, F f) {
    mesh.send(NodeId{0}, NodeId{1}, 0, f);
};

template <typename F>
constexpr bool kAccessible = requires(ComputeBase &c, F f) {
    c.access(Addr{0}, false, f);
};

TEST(InlineCallback, NonTriviallyCopyableClosuresDoNotCompile)
{
    // A capture whose copy runs code (a std::function, a shared_ptr)
    // cannot be carried as plain bytes, so every entry point rejects
    // it at compile time instead of moving it to the heap.
    [[maybe_unused]] auto event = [f = std::function<void()>()] { f(); };
    [[maybe_unused]] auto done = [p = std::make_shared<int>(0)](
                                     Tick, ReadService) { ++*p; };
    EXPECT_FALSE((std::is_constructible_v<InlineCallback,
                                          decltype(event)>));
    EXPECT_FALSE((std::is_constructible_v<ComputeBase::CompletionFn,
                                          decltype(done)>));
    EXPECT_FALSE(kSchedulable<decltype(event)>);
    EXPECT_FALSE(kSendable<decltype(event)>);
    EXPECT_FALSE(kAccessible<decltype(done)>);

    // The same shapes over trivially copyable state are accepted.
    int hits = 0;
    [[maybe_unused]] auto plain_event = [&hits] { ++hits; };
    [[maybe_unused]] auto plain_done = [&hits](Tick, ReadService) {
        ++hits;
    };
    EXPECT_TRUE(kSchedulable<decltype(plain_event)>);
    EXPECT_TRUE(kSendable<decltype(plain_event)>);
    EXPECT_TRUE(kAccessible<decltype(plain_done)>);
}

TEST(InlineCallback, OversizedClosuresDoNotCompile)
{
    constexpr std::size_t kEventWords = InlineCallback::kInlineBytes / 8;
    std::array<std::uint64_t, kEventWords> event_budget{};
    std::array<std::uint64_t, kEventWords + 1> event_over{};
    std::array<std::uint64_t, 3> done_budget{};
    std::array<std::uint64_t, 4> done_over{};
    [[maybe_unused]] auto event_fits = [event_budget] {
        (void)event_budget;
    };
    [[maybe_unused]] auto event_big = [event_over] { (void)event_over; };
    [[maybe_unused]] auto done_fits = [done_budget](Tick, ReadService) {
        (void)done_budget;
    };
    [[maybe_unused]] auto done_big = [done_over](Tick, ReadService) {
        (void)done_over;
    };
    static_assert(sizeof(event_fits) == InlineCallback::kInlineBytes);
    static_assert(sizeof(done_fits) ==
                  ComputeBase::CompletionFn::kInlineBytes);

    EXPECT_TRUE((std::is_constructible_v<InlineCallback,
                                         decltype(event_fits)>));
    EXPECT_FALSE((std::is_constructible_v<InlineCallback,
                                          decltype(event_big)>));
    EXPECT_TRUE((std::is_constructible_v<ComputeBase::CompletionFn,
                                         decltype(done_fits)>));
    EXPECT_FALSE((std::is_constructible_v<ComputeBase::CompletionFn,
                                          decltype(done_big)>));
    EXPECT_FALSE(kSchedulable<decltype(event_big)>);
    EXPECT_FALSE(kSendable<decltype(event_big)>);
    EXPECT_FALSE(kAccessible<decltype(done_big)>);
}

TEST(InlineCallback, MessageDeliveryClosureStaysInline)
{
    // Machine::send's delivery closure: a this-pointer plus a Message
    // by value, built in its event node and run there.
    struct Sink
    {
        int acks = 0;
        auto
        deliver(Message msg)
        {
            return [this, msg] { acks += msg.ackCount; };
        }
    };
    Sink sink;
    Message msg;
    msg.ackCount = 3;
    const auto closure = sink.deliver(msg);
    static_assert(sizeof(closure) <= InlineCallback::kInlineBytes);
    EventQueue eq(EventQueue::KernelKind::Calendar);
    eq.schedule(1, closure);
    eq.run();
    EXPECT_EQ(sink.acks, 3);
}

TEST(InlineCallback, CopiedDeliveryRunsItsMessageInBothCopies)
{
    // Under fault injection the mesh duplicates a message by copying
    // its delivery closure; each copy carries the whole Message.
    EventQueue eq(EventQueue::KernelKind::Calendar);
    NetParams net;
    fitMesh(net, 4);
    Mesh mesh(eq, net, 4);
    StatSet stats;
    FaultConfig faults;
    faults.rates[static_cast<int>(MsgClass::Reply)].duplicate = 1.0;
    FaultPlan plan;
    plan.init(faults, &stats);
    mesh.setFaultPlan(&plan);

    Message msg;
    msg.type = MsgType::ReadExReply;
    msg.lineAddr = 0x1280;
    msg.version = 7;
    msg.ackCount = 2;
    msg.txnSeq = 42;
    std::vector<Message> got;
    mesh.send(0, 3, 128, [&got, msg] { got.push_back(msg); },
              MsgClass::Reply);
    eq.run();
    ASSERT_EQ(got.size(), 2u);
    for (const Message &g : got) {
        EXPECT_EQ(g.type, msg.type);
        EXPECT_EQ(g.lineAddr, msg.lineAddr);
        EXPECT_EQ(g.version, msg.version);
        EXPECT_EQ(g.ackCount, msg.ackCount);
        EXPECT_EQ(g.txnSeq, msg.txnSeq);
    }
    EXPECT_EQ(stats.get("fault.net.dup"), 1.0);

    // A plain copy is independent of its source.
    InlineCallback cb = [&got, msg] { got.push_back(msg); };
    InlineCallback dup = cb;
    cb = nullptr;
    dup();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got.back().txnSeq, 42u);
}

TEST(InlineCallback, SmallLambdasStayInline)
{
    int x = 0;
    InlineCallback cb([&x] { ++x; });
    static_assert(sizeof(InlineCallback) <=
                  InlineCallback::kInlineBytes + sizeof(void *));
    cb();
    EXPECT_EQ(x, 1);
}

TEST(CompletionFn, CarriedThroughAnMshrFiresExactlyOnce)
{
    // Two reads coalesce on one MSHR and a write joining them is
    // deferred and re-issued: each completion is copied into waiter
    // lists and events along the way, and must fire exactly once.
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 2;
    cfg.numThreads = 2;
    cfg.numDNodes = 1;
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    Machine m(cfg);
    ComputeBase &c = *m.compute(0);
    const Addr line = Addr{1} << 20;
    std::array<int, 3> fired{};
    ReadService first = ReadService::FLC;
    c.access(line, false, [&fired, &first](Tick, ReadService svc) {
        ++fired[0];
        first = svc;
    });
    c.access(line + 8, false,
             [&fired](Tick, ReadService) { ++fired[1]; });
    c.access(line, true, [&fired](Tick, ReadService) { ++fired[2]; });
    EXPECT_EQ(c.outstanding(), 1u);
    m.eq().run();
    EXPECT_EQ(fired, (std::array<int, 3>{1, 1, 1}));
    EXPECT_NE(first, ReadService::FLC);
    EXPECT_EQ(c.outstanding(), 0u);
    EXPECT_TRUE(c.quiescent());
}

TEST(CompletionFn, CoalescedAccessesOnTwoLinesCompleteInArrivalOrder)
{
    // Accesses after a miss's first one wait in the MSHR file's side
    // lists, shared by every open miss; each line must get back its own
    // accesses, in the order they joined, however the two interleave.
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 2;
    cfg.numThreads = 2;
    cfg.numDNodes = 1;
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    Machine m(cfg);
    ComputeBase &c = *m.compute(0);
    const Addr a = Addr{1} << 20;
    const Addr b = a + 64 * 1024;
    std::vector<int> order;
    auto read = [&](Addr addr, int id) {
        c.access(addr, false, [&order, id](Tick, ReadService) {
            order.push_back(id);
        });
    };
    for (int i = 0; i < 4; ++i) {
        read(a + 8 * i, i);
        read(b + 8 * i, 10 + i);
    }
    c.access(a, true, [&order](Tick, ReadService) { order.push_back(4); });
    EXPECT_EQ(c.outstanding(), 2u);
    m.eq().run();
    std::vector<int> on_a, on_b;
    for (const int id : order)
        (id < 10 ? on_a : on_b).push_back(id);
    EXPECT_EQ(on_a, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(on_b, (std::vector<int>{10, 11, 12, 13}));
    EXPECT_TRUE(c.quiescent());
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
