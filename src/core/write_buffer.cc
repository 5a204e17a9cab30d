#include "core/write_buffer.hh"

#include "sim/log.hh"

namespace pimdsm
{

WriteBuffer::WriteBuffer(ComputeBase &port, const ProcParams &params)
    : port_(port), capacity_(params.writeBufferEntries),
      maxInflight_(params.maxOutstanding - params.maxOutstandingLoads)
{
    if (maxInflight_ < 1)
        maxInflight_ = 1;
    if (capacity_ > 0)
        queued_.reserve(static_cast<std::size_t>(capacity_));
    lineMask_ = ~static_cast<std::uint64_t>(63); // coalesce at 64 B
}

bool
WriteBuffer::full() const
{
    return static_cast<int>(queued_.size()) + inflight_ >= capacity_;
}

void
WriteBuffer::push(Addr addr)
{
    if (full())
        panic("push into a full write buffer");
    const Addr line = addr & lineMask_;
    for (Addr queued : queued_) {
        if ((queued & lineMask_) == line) {
            ++coalesced_;
            return;
        }
    }
    queued_.push_back(addr);
    drain();
}

void
WriteBuffer::drain()
{
    while (inflight_ < maxInflight_ && !queued_.empty()) {
        const Addr addr = queued_.front();
        queued_.erase(queued_.begin());
        ++inflight_;
        port_.access(addr, true,
                     [this](Tick, ReadService) { onStoreDone(); });
    }
}

void
WriteBuffer::onStoreDone()
{
    --inflight_;
    ++retired_;
    drain();
    if (spaceCb_)
        spaceCb_();
    if (empty() && flushCb_) {
        auto cb = std::move(flushCb_);
        flushCb_ = nullptr;
        cb();
    }
}

void
WriteBuffer::flush(std::function<void()> done)
{
    if (empty()) {
        done();
        return;
    }
    if (flushCb_)
        panic("write buffer already has a flush pending");
    flushCb_ = std::move(done);
}

} // namespace pimdsm
