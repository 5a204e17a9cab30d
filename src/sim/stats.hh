/**
 * @file
 * Lightweight statistics framework.
 *
 * Modules register named scalar counters in a StatSet; structured
 * aggregates that the experiments need (read-latency decomposition,
 * per-thread time split) get dedicated types here so bench/ and report/
 * do not have to parse strings.
 */

#ifndef PIMDSM_SIM_STATS_HH
#define PIMDSM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace pimdsm
{

/** A flat registry of named scalar statistics. */
class StatSet
{
  public:
    /** Add @p v to counter @p name, creating it at zero if absent.
     *  Only the first add of a name allocates its key. */
    void add(std::string_view name, double v = 1.0) { slot(name) += v; }

    /** Overwrite counter @p name. */
    void set(std::string_view name, double v) { slot(name) = v; }

    /** Read counter @p name (0 if absent). */
    double get(std::string_view name) const;

    /** All counters, sorted by name. */
    std::map<std::string, double>
    all() const
    {
        return {scalars_.begin(), scalars_.end()};
    }

    void clear() { scalars_.clear(); }

  private:
    double &slot(std::string_view name);

    /** Transparent comparator: lookups by string_view build no key. */
    std::map<std::string, double, std::less<>> scalars_;
};

/**
 * Where a read was serviced, mirroring Figure 7's categories:
 * first-level cache, second-level cache, local memory, remote in 2 hops,
 * remote in 3 hops.
 */
enum class ReadService : std::uint8_t
{
    FLC = 0,
    SLC,
    LocalMem,
    Hop2,
    Hop3,
    NumServices
};

const char *readServiceName(ReadService s);

/** Accumulated read count and latency per service level (Figure 7). */
struct ReadLatencyStats
{
    static constexpr int kNum = static_cast<int>(ReadService::NumServices);

    std::uint64_t count[kNum] = {};
    Tick totalLatency[kNum] = {};

    void
    record(ReadService s, Tick latency)
    {
        count[static_cast<int>(s)]++;
        totalLatency[static_cast<int>(s)] += latency;
    }

    Tick totalAllLatency() const;
    std::uint64_t totalAllCount() const;

    ReadLatencyStats &operator+=(const ReadLatencyStats &o);
};

/**
 * Per-thread execution time decomposition, mirroring Figure 6's
 * Memory/Processor split. Busy covers useful instructions; Sync covers
 * spinning at barriers/locks; both count as "Processor" time in the
 * paper's figures. MemoryStall is exposed load/store stall time.
 */
struct TimeBreakdown
{
    Tick busy = 0;
    Tick sync = 0;
    Tick memoryStall = 0;

    Tick total() const { return busy + sync + memoryStall; }
    Tick processorTime() const { return busy + sync; }

    TimeBreakdown &
    operator+=(const TimeBreakdown &o)
    {
        busy += o.busy;
        sync += o.sync;
        memoryStall += o.memoryStall;
        return *this;
    }
};

/**
 * Machine-wide census of the coherence state of every distinct memory
 * line in the footprint (Figure 8): lines whose only valid copy is dirty
 * in a P-node, lines shared by >=1 P-node, and lines present only at
 * their home D-node.
 */
struct LineCensus
{
    std::uint64_t dirtyInPNode = 0;
    std::uint64_t sharedInPNode = 0;
    std::uint64_t dNodeOnly = 0;
    /** Total line slots available across D-node memories. */
    std::uint64_t dNodeCapacityLines = 0;
    /** Data-array slots currently holding a line. */
    std::uint64_t dNodeUsedLines = 0;

    std::uint64_t
    totalLines() const
    {
        return dirtyInPNode + sharedInPNode + dNodeOnly;
    }
};

} // namespace pimdsm

#endif // PIMDSM_SIM_STATS_HH
