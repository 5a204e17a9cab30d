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
 * Protocol message trace. Off by default; PIMDSM_TRACE=1 turns it on,
 * and tests and the protocol_trace example turn it on explicitly.
 */
class Trace
{
  public:
    /** Turn the trace on or off. Not synchronized: call it before
     *  starting concurrent simulations, which only read the flag. */
    static void enable(bool on = true);

    /** True iff the trace is on. */
    static bool enabled();

    /** Emit one trace line "tick: proto: msg" to stderr. */
    static void print(std::uint64_t tick, const std::string &msg);
};

} // namespace pimdsm

#endif // PIMDSM_SIM_LOG_HH
