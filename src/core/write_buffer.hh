/**
 * @file
 * 32-entry coalescing write buffer (Table 1). Stores retire into the
 * memory system in the background; the processor only stalls when the
 * buffer is full, and synchronization operations flush it (release
 * consistency).
 */

#ifndef PIMDSM_CORE_WRITE_BUFFER_HH
#define PIMDSM_CORE_WRITE_BUFFER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "proto/compute_base.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace pimdsm
{

class WriteBuffer
{
  public:
    WriteBuffer(ComputeBase &port, const ProcParams &params);

    bool full() const;
    bool empty() const { return queued_.empty() && inflight_ == 0; }

    /** Enqueue a store (must not be full). */
    void push(Addr addr);

    /** Invoked whenever an entry frees up (processor un-stall). */
    void setSpaceCallback(std::function<void()> cb)
    {
        spaceCb_ = std::move(cb);
    }

    /** Fire @p done once the buffer has fully drained. */
    void flush(std::function<void()> done);

    std::uint64_t storesRetired() const { return retired_; }
    std::uint64_t coalesced() const { return coalesced_; }

  private:
    void drain();
    void onStoreDone();

    ComputeBase &port_;
    int capacity_;
    int maxInflight_;
    /** Stores not yet issued, oldest first; at most one per 64 B line.
     *  Never longer than capacity_, so push coalesces by scanning it
     *  and drain pops from the front. */
    std::vector<Addr> queued_;
    int inflight_ = 0;
    std::function<void()> spaceCb_;
    std::function<void()> flushCb_;
    std::uint64_t retired_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t lineMask_;
};

} // namespace pimdsm

#endif // PIMDSM_CORE_WRITE_BUFFER_HH
