/**
 * @file
 * Helpers for writing lazy workload op streams.
 */

#ifndef PIMDSM_WORKLOAD_STREAM_UTIL_HH
#define PIMDSM_WORKLOAD_STREAM_UTIL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

namespace pimdsm
{

/**
 * Most ops one BatchStream::refill() may emit. Every stream's batch
 * buffer is reserved to this once, so what a thread keeps resident for
 * its op stream is bounded whatever the workload's size or thread
 * count.
 */
constexpr std::size_t kMaxBatchOps = 256;

/**
 * Op stream refilled one batch at a time (one row, one chunk, ...)
 * so that traces are never fully materialized.
 *
 * A refill emits at most kMaxBatchOps ops (a larger one panics).
 * Loops that could exceed it run only while room() holds and keep
 * their loop variable in a member, so the next refill() resumes
 * mid-loop and the op sequence does not depend on where batches end.
 */
class BatchStream : public OpStream
{
  public:
    BatchStream() { buf_.reserve(kMaxBatchOps); }

    bool
    next(Op &op) override
    {
        while (head_ == buf_.size()) {
            if (done_)
                return false;
            // Reuse the consumed batch's storage for the next one.
            buf_.clear();
            head_ = 0;
            refill();
            if (buf_.size() > kMaxBatchOps)
                panic("workload refill emitted " +
                      std::to_string(buf_.size()) + " ops, over the " +
                      std::to_string(kMaxBatchOps) + "-op batch bound");
        }
        op = buf_[head_++];
        return true;
    }

  protected:
    /** Push the next batch via emit(); call finish() when exhausted. */
    virtual void refill() = 0;

    void emit(const Op &op) { buf_.push_back(op); }
    void finish() { done_ = true; }

    /** True while @p ops more ops fit in the current batch. */
    bool
    room(std::size_t ops) const
    {
        return buf_.size() + ops <= kMaxBatchOps;
    }

    /**
     * Continue a 64 B-granule sweep over [lo, hi) bytes of an array at
     * byte offset @p off while the batch has room.
     * @return true once the sweep is done; @p off is then back at 0
     *         for the next sweep.
     */
    bool
    sweep(Addr lo, Addr hi, std::uint64_t &off,
          std::uint64_t instr_per_line, bool store_too,
          int use_dist = 28)
    {
        const std::size_t per_line =
            1 + (instr_per_line ? 1 : 0) + (store_too ? 1 : 0);
        for (; lo + off < hi && room(per_line); off += 64) {
            const Addr a = lo + off;
            if (instr_per_line)
                emit(Op::compute(instr_per_line));
            emit(Op::load(a, use_dist));
            if (store_too)
                emit(Op::store(a));
        }
        if (lo + off < hi)
            return false;
        off = 0;
        return true;
    }

  private:
    std::vector<Op> buf_;
    /** Next op of buf_ to hand out. */
    std::size_t head_ = 0;
    bool done_ = false;
};

/** Element range [begin, end) owned by @p tid out of @p n elements. */
struct ThreadSlice
{
    std::uint64_t begin;
    std::uint64_t end;

    ThreadSlice(std::uint64_t n, ThreadId tid, int num_threads)
    {
        const std::uint64_t per =
            (n + num_threads - 1) / num_threads;
        begin = per * static_cast<std::uint64_t>(tid);
        end = begin + per;
        if (begin > n)
            begin = n;
        if (end > n)
            end = n;
    }

    std::uint64_t size() const { return end - begin; }
};

/** Deterministic per-(workload, phase, thread) RNG seed. */
inline std::uint64_t
streamSeed(std::uint64_t app_id, int phase, ThreadId tid)
{
    return (app_id * 1000003ull + static_cast<std::uint64_t>(phase)) *
               1000033ull +
           static_cast<std::uint64_t>(tid) + 12345;
}

} // namespace pimdsm

#endif // PIMDSM_WORKLOAD_STREAM_UTIL_HH
