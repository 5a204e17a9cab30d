/**
 * @file
 * Helpers for writing lazy workload op streams.
 */

#ifndef PIMDSM_WORKLOAD_STREAM_UTIL_HH
#define PIMDSM_WORKLOAD_STREAM_UTIL_HH

#include <cstddef>
#include <vector>

#include "sim/random.hh"
#include "workload/workload.hh"

namespace pimdsm
{

/**
 * Op stream refilled one batch at a time (one row, one chunk, ...)
 * so that traces are never fully materialized.
 */
class BatchStream : public OpStream
{
  public:
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
        }
        op = buf_[head_++];
        return true;
    }

  protected:
    /** Push the next batch via emit(); call finish() when exhausted. */
    virtual void refill() = 0;

    void emit(const Op &op) { buf_.push_back(op); }
    void finish() { done_ = true; }

    /** One 64 B-granule sweep over [lo, hi) bytes of an array. */
    void
    emitSweep(Addr lo, Addr hi, std::uint64_t instr_per_line,
              bool store_too, int use_dist = 28)
    {
        for (Addr a = lo; a < hi; a += 64) {
            if (instr_per_line)
                emit(Op::compute(instr_per_line));
            emit(Op::load(a, use_dist));
            if (store_too)
                emit(Op::store(a));
        }
    }

  private:
    std::vector<Op> buf_;
    /** Next op of buf_ to hand out. */
    std::size_t head_ = 0;
    bool done_ = false;
};

/** Element range [begin, end) owned by @p tid out of @p n elements. */
struct Partition
{
    std::uint64_t begin;
    std::uint64_t end;

    Partition(std::uint64_t n, ThreadId tid, int num_threads)
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
