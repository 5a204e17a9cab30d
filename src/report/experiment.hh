/**
 * @file
 * Experiment runner: builds a machine, drives one workload through all
 * of its phases (with optional dynamic reconfiguration between
 * phases), and collects the aggregates the paper's figures report.
 */

#ifndef PIMDSM_REPORT_EXPERIMENT_HH
#define PIMDSM_REPORT_EXPERIMENT_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "machine/builder.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace pimdsm
{

/** Switch to (newPNodes, newDNodes) just before @p beforePhase runs. */
struct ReconfigStep
{
    int beforePhase = 0;
    int newPNodes = 0;
    int newDNodes = 0;
};

struct RunOptions
{
    std::vector<ReconfigStep> reconfig;
    /**
     * OS-initiated dynamic reconfiguration (Section 2.3): after each
     * phase, resize the D-node partition so the observed per-phase
     * D-node utilization lands near autoReconfigTarget. Requires an
     * AGG machine built reconfigurable; ignored otherwise.
     */
    bool autoReconfig = false;
    double autoReconfigTarget = 0.55;
    /** Run directory/inclusion invariant checks after every phase. */
    bool checkInvariants = false;
    /** Abort runaway phases (simulator bug guard). */
    std::uint64_t maxEventsPerPhase = 2'000'000'000ull;
};

struct PhaseResult
{
    std::string name;
    Tick startTick = 0;
    Tick endTick = 0;
    TimeBreakdown time; ///< summed over the phase's threads

    Tick duration() const { return endTick - startTick; }
};

struct RunResult
{
    Tick totalTicks = 0;
    Tick reconfigTicks = 0;
    /** Thread-time decomposition summed over all threads and phases. */
    TimeBreakdown time;
    /** Read latency totals (Figure 7 categories). */
    ReadLatencyStats reads;
    /** Line-state census at end of run (Figure 8). */
    LineCensus census;
    std::vector<PhaseResult> phases;
    std::map<std::string, double> counters;
    std::uint64_t messages = 0;
    std::uint64_t instructions = 0;
    /** Mean busy fraction of the D-node protocol engines. */
    double dNodeUtilization = 0.0;
    /** Reconfigurations the auto policy performed. */
    int autoReconfigs = 0;
    /**
     * Copies of the fault.failovers and fault.pnode_failovers counters
     * (read those): the perfbench run digest hashes these fields.
     */
    int failovers = 0;
    int pnodeFailovers = 0;
    /** Modeled overhead of the D-node failovers. */
    Tick failoverTicks = 0;
    /** Modeled overhead of the P-node failovers. */
    Tick pnodeFailoverTicks = 0;

    /** Fraction of total time that is memory stall (Figure 6 split). */
    double
    memoryFraction() const
    {
        const double t = static_cast<double>(time.total());
        return t > 0 ? time.memoryStall / t : 0.0;
    }

    /** Counter @p name (0 if the run never recorded it). */
    double
    counter(std::string_view name) const
    {
        const auto it = counters.find(std::string(name));
        return it == counters.end() ? 0.0 : it->second;
    }
};

/** Run @p wl to completion on a machine built from @p cfg. */
RunResult runWorkload(MachineConfig cfg, const Workload &wl,
                      const RunOptions &opts = {});

/** Build-and-run convenience used by the benches. */
RunResult runWorkload(const Workload &wl, const BuildSpec &spec,
                      const RunOptions &opts = {});

} // namespace pimdsm

#endif // PIMDSM_REPORT_EXPERIMENT_HH
