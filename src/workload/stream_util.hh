/**
 * @file
 * Helpers for writing lazy workload op streams.
 */

#ifndef PIMDSM_WORKLOAD_STREAM_UTIL_HH
#define PIMDSM_WORKLOAD_STREAM_UTIL_HH

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/random.hh"
#include "workload/workload.hh"

namespace pimdsm
{

/**
 * Op stream backed by a coroutine: a generator is a plain function
 * returning OpGen that co_yields its ops from ordinary nested loops.
 * Ops are produced one next() at a time, so a stream holds one op and
 * one coroutine frame, and traces are never materialized.
 *
 * The frame copies the generator's parameters, so take them by value:
 * a reference would dangle once the caller (makeStream) returns.
 */
class OpGen final : public OpStream
{
  public:
    struct promise_type
    {
        Op op;

        OpGen get_return_object()
        {
            return OpGen(Handle::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        std::suspend_always
        yield_value(const Op &o) noexcept
        {
            op = o;
            return {};
        }
        void return_void() noexcept {}
        /** A panic inside a generator reaches the caller of next(). */
        void unhandled_exception() { throw; }
    };

    using Handle = std::coroutine_handle<promise_type>;

    OpGen(OpGen &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    OpGen &operator=(OpGen &&) = delete;
    ~OpGen() override
    {
        if (h_)
            h_.destroy();
    }

    bool
    next(Op &op) override
    {
        // Resuming a finished coroutine is undefined: check first.
        if (!h_ || h_.done())
            return false;
        h_.resume();
        if (h_.done())
            return false;
        op = h_.promise().op;
        return true;
    }

  private:
    explicit OpGen(Handle h) : h_(h) {}

    Handle h_;
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
