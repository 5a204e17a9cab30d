#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "sim/types.hh"

namespace pimdsm
{

void
panic(const std::string &msg)
{
    throw PanicError("pimdsm panic: " + msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError("pimdsm fatal: " + msg);
}

namespace
{

template <typename V>
[[noreturn]] void
narrowPanic(V v, int bits, long long lo, unsigned long long hi)
{
    panic("value " + std::to_string(v) + " does not fit a " +
          std::to_string(bits) + "-bit field (range " +
          std::to_string(lo) + ".." + std::to_string(hi) + ")");
}

std::set<std::string> &
warnedSet()
{
    static std::set<std::string> s;
    return s;
}

/** warn() can fire from concurrent simulations (the bench point pool). */
std::mutex &
warnMutex()
{
    static std::mutex mu;
    return mu;
}

bool &
traceFlag()
{
    // PIMDSM_TRACE=1 turns the trace on before any simulation reads
    // the flag, so concurrent runs only ever read it.
    static bool on = std::getenv("PIMDSM_TRACE") != nullptr;
    return on;
}

} // namespace

void
narrowOverflow(long long v, int bits, long long lo, unsigned long long hi)
{
    narrowPanic(v, bits, lo, hi);
}

void
narrowOverflow(unsigned long long v, int bits, long long lo,
               unsigned long long hi)
{
    narrowPanic(v, bits, lo, hi);
}

bool
warn(const std::string &msg)
{
    {
        std::lock_guard<std::mutex> g(warnMutex());
        if (!warnedSet().insert(msg).second)
            return false;
    }
    std::fprintf(stderr, "pimdsm warn: %s\n", msg.c_str());
    return true;
}

void
warnResetForTest()
{
    std::lock_guard<std::mutex> g(warnMutex());
    warnedSet().clear();
}

void
Trace::enable(bool on)
{
    traceFlag() = on;
}

bool
Trace::enabled()
{
    return traceFlag();
}

void
Trace::print(std::uint64_t tick, const std::string &msg)
{
    std::fprintf(stderr, "%12llu: proto: %s\n",
                 static_cast<unsigned long long>(tick), msg.c_str());
}

} // namespace pimdsm
