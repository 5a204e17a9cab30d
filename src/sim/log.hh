/**
 * @file
 * Error reporting and debug tracing.
 *
 * Follows the gem5 fatal/panic distinction:
 *  - panic():  an internal simulator invariant was violated (a pimdsm bug).
 *  - fatal():  the user supplied an impossible configuration.
 *
 * Both throw (PanicError / FatalError) instead of aborting so that unit
 * tests can assert on them and library embedders can recover.
 */

#ifndef PIMDSM_SIM_LOG_HH
#define PIMDSM_SIM_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pimdsm
{

/** Thrown by panic(): an internal invariant was violated. */
struct PanicError : std::logic_error
{
    using std::logic_error::logic_error;
};

/** Thrown by fatal(): the user configuration cannot be simulated. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void panic(const std::string &msg);
[[noreturn]] void fatal(const std::string &msg);

/**
 * Print a non-fatal warning to stderr (at most once per message text).
 * @return true if the message was printed, false if it was deduped.
 */
bool warn(const std::string &msg);

/** Clear warn()'s dedup set so tests can assert on repeated warnings. */
void warnResetForTest();

/**
 * Debug trace control. Tracing is off by default; PIMDSM_TRACE=1 turns
 * on "proto", and tests and the protocol_trace example turn components
 * on explicitly.
 */
class Trace
{
  public:
    /** Enable/disable tracing for a named component (e.g. "proto").
     *  Not synchronized: call it before starting concurrent
     *  simulations, which only read the setting. */
    static void enable(const std::string &component, bool on = true);

    /** True iff tracing is enabled for @p component. */
    static bool enabled(std::string_view component);

    /** Emit one trace line "tick: component: msg" to stderr. */
    static void print(std::uint64_t tick, const std::string &component,
                      const std::string &msg);
};

} // namespace pimdsm

#endif // PIMDSM_SIM_LOG_HH
