/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives a Machine. Events are callbacks scheduled at
 * an absolute Tick; events at the same tick execute in scheduling order
 * (FIFO), which keeps simulations deterministic.
 *
 * Internally the queue is a calendar queue: a ring of single-tick FIFO
 * buckets covering the near future (where almost every event lands —
 * link hops, handler occupancies, memory latencies are all small
 * constants), plus a (when, seq)-ordered overflow heap for far-future
 * events such as watchdog timeouts and fault sweeps. Schedule and pop
 * are O(1) on the bucket path. Event closures are trivially copyable
 * (see InlineCallback), built directly in pooled nodes and run there,
 * so the steady state allocates nothing, a closure is never moved
 * between scheduling and execution, and freeing a node runs no
 * destructor.
 *
 * The execution order — strictly increasing (when, seq) — is
 * byte-identical to the original binary-heap kernel; a reference-heap
 * mode is retained for differential testing (see KernelKind).
 */

#ifndef PIMDSM_SIM_EVENT_QUEUE_HH
#define PIMDSM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace pimdsm
{

class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Scheduler implementation (execution order is identical). */
    enum class KernelKind
    {
        Calendar,      ///< bucket ring + overflow heap (production)
        ReferenceHeap, ///< std::priority_queue (differential tests)
    };

    /** run()'s "no limit" budget. */
    static constexpr std::uint64_t kNoEventLimit = ~0ull;

    EventQueue() : EventQueue(defaultKind()) {}
    explicit EventQueue(KernelKind kind);
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Kernel used by default-constructed queues: Calendar unless
     * setDefaultKind chose otherwise (differential testing of whole
     * machines without plumbing a flag through every ctor). Not to be
     * changed while other threads construct queues (the setting is a
     * plain global).
     */
    static KernelKind defaultKind();
    static void setDefaultKind(KernelKind kind);

    KernelKind kind() const { return kind_; }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p fn at absolute time @p when (>= curTick). The
     * callable must be trivially copyable and fit Callback's budget
     * (anything else fails to compile); it is constructed directly in
     * its pooled node, and a Callback argument is copied there.
     */
    template <typename F>
        requires std::is_constructible_v<Callback, F>
    void
    schedule(Tick when, F &&fn)
    {
        if (when < curTick_)
            panic("event scheduled in the past");
        if (kind_ == KernelKind::ReferenceHeap) {
            heap_.push(RefEntry{when, nextSeq_++,
                                Callback(std::forward<F>(fn))});
            ++size_;
            return;
        }
        EventNode *n = allocNode();
        if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>)
            n->fn = fn;
        else
            n->fn.emplace(std::forward<F>(fn));
        n->when = when;
        n->seq = nextSeq_++;
        ++size_;
        enqueue(n);
    }

    /** Schedule @p fn @p delta ticks from now. */
    template <typename F>
        requires std::is_constructible_v<Callback, F>
    void
    scheduleIn(Tick delta, F &&fn)
    {
        schedule(curTick_ + delta, std::forward<F>(fn));
    }

    /** Number of events not yet executed. */
    std::size_t pending() const { return size_; }

    bool empty() const { return size_ == 0; }

    /**
     * Execute the next event, advancing curTick to its time.
     * @retval false if the queue was empty.
     */
    bool runOne() { return runCore(1, kMaxTick) != 0; }

    /**
     * Run events until the queue drains or @p max_events have executed.
     * @return number of events executed.
     */
    std::uint64_t
    run(std::uint64_t max_events = kNoEventLimit)
    {
        return runCore(max_events, kMaxTick);
    }

    /**
     * Run events with timestamps <= @p until (inclusive); curTick ends at
     * max(executed event times, until).
     * @return number of events executed.
     */
    std::uint64_t
    runUntil(Tick until)
    {
        const std::uint64_t n = runCore(kNoEventLimit, until);
        if (curTick_ < until)
            curTick_ = until;
        return n;
    }

    // --- pool introspection (tests, self-perf reporting) -------------

    /** Cumulative events executed over this queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Event nodes ever allocated (high-water mark of pending events,
     *  rounded up to a slab). */
    std::size_t poolCapacity() const { return poolCapacity_; }

    /** Event nodes currently on the free list. */
    std::size_t poolFree() const { return poolFreeCount_; }

  private:
    /** A pooled event: intrusive FIFO link + inline closure. */
    struct EventNode
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        EventNode *next = nullptr;
        Callback fn;
    };
    static_assert(sizeof(EventNode) == 88,
                  "EventNode is not 88 B (tick, seq, link, closure)");

    /** Later-first comparator for heap ordering: (when, seq). */
    struct NodeLater
    {
        bool
        operator()(const EventNode *a, const EventNode *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    /**
     * Bucket ring size in ticks (power of two). Covers several
     * round-trip latencies of the modeled machine (per-hop ~8 ticks,
     * handler occupancies <= a few hundred). Measured horizons
     * (when - curTick at schedule) of the perfbench workloads: on
     * fft (1/2 AGG, 75% pressure) 99.77% of events land under 4,096
     * ticks ahead and the other 0.23% under 8,192; on barnes (1/1
     * AGG, 25%) every event lands under 4,096. 8,192 buckets hold all
     * of them; 4,096 would also do for the machine, but sends ~3% of
     * bench_selfperf's synthetic stress delays (1,000-12,000 ticks,
     * modeled on disk page-ins) to the heap and costs that row ~13%
     * of its events/sec. Events farther out (watchdogs, fault
     * sweeps) take the overflow heap and migrate into the ring when
     * the calendar reaches them.
     */
    static constexpr std::size_t kBuckets = 1 << 13;
    static constexpr std::size_t kBucketMask = kBuckets - 1;
    static constexpr std::size_t kOccWords = kBuckets / 64;
    static constexpr std::size_t kSlabNodes = 256;

    /** Shared run loop: execute events while (when <= until) and fewer
     *  than @p max_events have run. */
    std::uint64_t runCore(std::uint64_t max_events, Tick until);

    /** Earliest bucketed event (bucketedCount_ must be non-zero);
     *  @p bucket_idx_out receives the ring index it was found in. */
    EventNode *scanBuckets(std::size_t &bucket_idx_out) const;

    /** File a filled node into the ring or the overflow heap. */
    void enqueue(EventNode *n);
    void pushBucket(EventNode *n);
    void migrateOverflow();

    EventNode *allocNode();
    void freeNode(EventNode *n) noexcept;

    /** Scope guard: puts a node whose closure has run (or thrown)
     *  back on the free list. */
    struct NodeReturn
    {
        EventQueue *q;
        EventNode *n;
        ~NodeReturn() { q->freeNode(n); }
    };

    KernelKind kind_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;

    // --- calendar state ----------------------------------------------
    /**
     * Ring window base: every bucketed event's when is in
     * [base_, base_ + kBuckets) and every overflow event's when is
     * >= base_ + kBuckets, so bucketed events always run first. base_
     * only moves forward, in jumps, when the buckets drain and the
     * overflow heap supplies the next event.
     */
    Tick base_ = 0;
    std::size_t bucketedCount_ = 0;
    /** One single-tick FIFO; head and tail share a cache line. */
    struct Bucket
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };
    std::vector<Bucket> buckets_;
    /** One bit per bucket: non-empty. */
    std::vector<std::uint64_t> occ_;
    std::priority_queue<EventNode *, std::vector<EventNode *>, NodeLater>
        overflow_;

    // --- event-node pool ---------------------------------------------
    std::vector<std::unique_ptr<EventNode[]>> slabs_;
    EventNode *freeList_ = nullptr;
    std::size_t poolCapacity_ = 0;
    std::size_t poolFreeCount_ = 0;

    // --- reference kernel --------------------------------------------
    struct RefEntry
    {
        Tick when;
        std::uint64_t seq;
        Callback fn;
    };

    struct RefLater
    {
        bool
        operator()(const RefEntry &a, const RefEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater> heap_;
};

/**
 * A serially-occupied resource (a processor running protocol handlers, a
 * memory port, a network link). Requests occupy the resource back to back:
 * a request arriving at time t with occupancy o starts at
 * max(t, freeAt) and finishes at start + o.
 */
class Resource
{
  public:
    /**
     * Reserve the resource for @p occupancy ticks starting no earlier
     * than @p now.
     * @return the tick at which the reservation *starts*.
     */
    Tick
    acquire(Tick now, Tick occupancy)
    {
        Tick start = freeAt_ > now ? freeAt_ : now;
        waitTicks_ += start - now;
        freeAt_ = start + occupancy;
        busyTicks_ += occupancy;
        ++acquisitions_;
        return start;
    }

    /** Total ticks the resource has been reserved for. */
    Tick busyTicks() const { return busyTicks_; }

    /** Contention: total ticks requests waited past their arrival
     *  (sum over acquires of start - now). */
    Tick waitTicks() const { return waitTicks_; }

    /** Number of acquire() calls. */
    std::uint64_t acquisitions() const { return acquisitions_; }

    void
    reset()
    {
        freeAt_ = 0;
        busyTicks_ = 0;
        waitTicks_ = 0;
        acquisitions_ = 0;
    }

  private:
    Tick freeAt_ = 0;
    Tick busyTicks_ = 0;
    Tick waitTicks_ = 0;
    std::uint64_t acquisitions_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_EVENT_QUEUE_HH
