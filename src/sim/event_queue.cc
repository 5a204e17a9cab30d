#include "sim/event_queue.hh"

#include <bit>

#include "sim/log.hh"

namespace pimdsm
{

namespace
{

EventQueue::KernelKind &
defaultKindStorage()
{
    static EventQueue::KernelKind kind = EventQueue::KernelKind::Calendar;
    return kind;
}

} // namespace

EventQueue::KernelKind
EventQueue::defaultKind()
{
    return defaultKindStorage();
}

void
EventQueue::setDefaultKind(KernelKind kind)
{
    defaultKindStorage() = kind;
}

EventQueue::EventQueue(KernelKind kind) : kind_(kind)
{
    if (kind_ == KernelKind::Calendar) {
        buckets_.assign(kBuckets, Bucket{});
        occ_.assign(kOccWords, 0);
    }
}

EventQueue::EventNode *
EventQueue::allocNode()
{
    if (!freeList_) {
        slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
        EventNode *slab = slabs_.back().get();
        for (std::size_t i = 0; i < kSlabNodes; ++i) {
            slab[i].next = freeList_;
            freeList_ = &slab[i];
        }
        poolCapacity_ += kSlabNodes;
        poolFreeCount_ += kSlabNodes;
    }
    EventNode *n = freeList_;
    freeList_ = n->next;
    --poolFreeCount_;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(EventNode *n) noexcept
{
    n->next = freeList_;
    freeList_ = n;
    ++poolFreeCount_;
}

void
EventQueue::pushBucket(EventNode *n)
{
    const std::size_t idx = static_cast<std::size_t>(n->when) &
                            kBucketMask;
    Bucket &b = buckets_[idx];
    n->next = nullptr;
    if (b.tail) {
        b.tail->next = n;
    } else {
        b.head = n;
        occ_[idx >> 6] |= 1ull << (idx & 63);
    }
    b.tail = n;
    ++bucketedCount_;
}

void
EventQueue::enqueue(EventNode *n)
{
    const Tick when = n->when;
    // Ring window is [base_, base_ + kBuckets). base_ can sit ahead of
    // curTick after a migration whose events a bounded runUntil() did
    // not reach; events scheduled below the window then take the
    // overflow heap too (peek compares the heap top against the
    // bucket candidate, so ordering is preserved).
    if (when >= base_ && when - base_ < kBuckets)
        pushBucket(n);
    else
        overflow_.push(n);
}

void
EventQueue::migrateOverflow()
{
    // The buckets drained: jump the window to the next overflow event
    // and pull everything now in range into the ring. Popping the heap
    // yields (when, seq) order, so each bucket stays FIFO.
    base_ = overflow_.top()->when;
    while (!overflow_.empty() &&
           overflow_.top()->when - base_ < kBuckets) {
        EventNode *n = overflow_.top();
        overflow_.pop();
        pushBucket(n);
    }
}

EventQueue::EventNode *
EventQueue::scanBuckets(std::size_t &bucket_idx_out) const
{
    // All occupied buckets hold ticks in [start, base_ + kBuckets), a
    // range of at most kBuckets ticks, so a circular first-set-bit
    // scan from start's slot cannot alias an older tick.
    const Tick start = curTick_ > base_ ? curTick_ : base_;
    const std::size_t startIdx = static_cast<std::size_t>(start) &
                                 kBucketMask;
    std::size_t w = startIdx >> 6;
    std::uint64_t word = occ_[w] & (~0ull << (startIdx & 63));
    for (std::size_t steps = 0; steps <= kOccWords; ++steps) {
        if (word) {
            const std::size_t idx = (w << 6) +
                                    static_cast<std::size_t>(
                                        std::countr_zero(word));
            bucket_idx_out = idx;
            return buckets_[idx].head;
        }
        w = (w + 1) & (kOccWords - 1);
        word = occ_[w];
    }
    panic("calendar queue lost an event (bitmap out of sync)");
}

std::uint64_t
EventQueue::runCore(std::uint64_t max_events, Tick until)
{
    std::uint64_t n = 0;
    if (kind_ == KernelKind::ReferenceHeap) {
        while (n < max_events && !heap_.empty() &&
               heap_.top().when <= until) {
            // Move the callback out before popping so that the
            // callback may schedule new events without invalidating
            // the entry.
            RefEntry e = std::move(const_cast<RefEntry &>(heap_.top()));
            heap_.pop();
            --size_;
            curTick_ = e.when;
            e.fn();
            ++n;
        }
        executed_ += n;
        return n;
    }

    while (n < max_events) {
        if (size_ == 0)
            break;
        if (bucketedCount_ == 0)
            migrateOverflow();

        std::size_t idx = 0;
        EventNode *ev = scanBuckets(idx);
        bool fromBucket = true;
        if (!overflow_.empty() && overflow_.top()->when < ev->when) {
            // A below-window straggler (see schedule()); serve it
            // straight from the heap. Ticks can't tie: bucketed events
            // are >= base_, below-window ones strictly less.
            ev = overflow_.top();
            fromBucket = false;
        }
        if (ev->when > until)
            break;

        // Unlink the node, then run the callback in place. Only this
        // node is held back from the free list while it runs, and
        // slabs never move, so the callback may schedule freely. The
        // guard returns the node even when the callback throws (panic()
        // raises PanicError, which tests catch and continue past).
        if (fromBucket) {
            Bucket &b = buckets_[idx];
            b.head = ev->next;
            if (!b.head) {
                b.tail = nullptr;
                occ_[idx >> 6] &= ~(1ull << (idx & 63));
            }
            --bucketedCount_;
        } else {
            overflow_.pop();
        }
        --size_;
        curTick_ = ev->when;
        {
            const NodeReturn back{this, ev};
            ev->fn();
        }
        ++n;
    }
    executed_ += n;
    return n;
}

} // namespace pimdsm
