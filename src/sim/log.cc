#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

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

std::set<std::string, std::less<>> &
traceSet()
{
    // PIMDSM_TRACE=1 turns on "proto" before any simulation reads the
    // set, so concurrent runs only ever read it.
    static std::set<std::string, std::less<>> s = [] {
        std::set<std::string, std::less<>> init;
        if (std::getenv("PIMDSM_TRACE"))
            init.insert("proto");
        return init;
    }();
    return s;
}

} // namespace

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
Trace::enable(const std::string &component, bool on)
{
    if (on)
        traceSet().insert(component);
    else
        traceSet().erase(component);
}

bool
Trace::enabled(std::string_view component)
{
    const auto &s = traceSet();
    return !s.empty() && s.find(component) != s.end();
}

void
Trace::print(std::uint64_t tick, const std::string &component,
             const std::string &msg)
{
    std::fprintf(stderr, "%12llu: %s: %s\n",
                 static_cast<unsigned long long>(tick), component.c_str(),
                 msg.c_str());
}

} // namespace pimdsm
