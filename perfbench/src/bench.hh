/**
 * @file
 * Shared declarations of the pimdsm benchmark: the workload table, the
 * seeded thread-permutation wrapper, the run digest, host probes, and
 * the traced run.
 */

#ifndef PIMDSM_PERFBENCH_BENCH_HH
#define PIMDSM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report/experiment.hh"
#include "workload/workload.hh"

namespace perfbench
{

using namespace pimdsm;

/** One benchmark workload: an application on one machine organization. */
struct BenchWorkload
{
    std::string name;
    std::string app;
    ArchKind arch = ArchKind::Agg;
    double pressure = 0.75;
    int dRatio = 1;
    int scale = 1;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<BenchWorkload> &benchWorkloads();

/** Workload @p name, or nullptr when unknown. */
const BenchWorkload *findWorkload(const std::string &name);

/** Application threads of every workload (the paper's 32). */
constexpr int kThreads = 32;

/** Seed that maps to the identity permutation and the default
 *  MachineConfig seed, i.e. the Figure 6 inputs. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Runs application thread perm[t] on processor t, with the same
 * permutation in every phase; everything else forwards to @p inner.
 */
class PermutedWorkload final : public Workload
{
  public:
    PermutedWorkload(std::unique_ptr<Workload> inner, std::uint64_t seed);

    std::string name() const override { return inner_->name(); }
    int numPhases() const override { return inner_->numPhases(); }
    std::string
    phaseName(int p) const override
    {
        return inner_->phaseName(p);
    }
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t
    footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    std::uint64_t l1Bytes() const override { return inner_->l1Bytes(); }
    std::uint64_t l2Bytes() const override { return inner_->l2Bytes(); }

    const std::vector<int> &permutation() const { return perm_; }

  private:
    std::unique_ptr<Workload> inner_;
    std::vector<int> perm_;
};

/** makeWorkload + the seeded permutation. */
std::unique_ptr<PermutedWorkload> makeBenchWorkload(const BenchWorkload &bw,
                                                    std::uint64_t seed);

/**
 * The configuration runWorkload would simulate for @p bw: buildConfig,
 * the seed, oracle on/off, and the per-application cache sizes
 * runWorkload itself applies.
 */
MachineConfig makeBenchConfig(const BenchWorkload &bw, const Workload &wl,
                              std::uint64_t seed, bool oracle);

RunOptions makeRunOptions(bool oracle);

/**
 * Hash of every simulated result in @p r: ticks, messages,
 * instructions, the time breakdown, read latency, census, phases and
 * counters. The oracle's own "check." counters are left out, so the
 * digest is the same with the oracle on or off.
 */
std::string runDigest(const RunResult &r);

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Return freed heap to the OS and reset the peak-RSS watermark. */
void resetPeakRss();
/** Peak resident set since the last resetPeakRss, in MiB. */
double peakRssMb();
/** User + system CPU seconds of this process so far. */
double cpuSeconds();

double median(std::vector<double> v);

/**
 * Wall time of the reference kernel: a fixed event-queue and hash-map
 * loop, the simulator's kind of work, in which no simulator code takes
 * part. The host's clock rate drifts (runs take up to 1.9x longer in
 * its slow stretches); timed beside each run, this kernel drifts with
 * it, so host times divided by it hold steady.
 */
double refKernelSeconds();

/** Reference speed: the speed at which the reference kernel takes this
 *  long. */
constexpr double kRefKernelS = 0.1;

/** @p host_s measured while the reference kernel took @p ref_s,
 *  expressed in seconds at reference speed. */
inline double
atRefSpeed(double host_s, double ref_s)
{
    return host_s * kRefKernelS / ref_s;
}

/** One reported metric value with its unit, as in BENCHMARK.json. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Per-layer numbers and trace of one traced run. */
struct TracedResult
{
    RunResult result;
    /** Wall time of the part of the traced run runWorkload also does. */
    double runWallS = 0.0;
    /** Per-layer metrics, named as in BENCHMARK.json. */
    Metrics metrics;
};

/**
 * Drive @p bw (oracle off, as timed) through the layers' public calls
 * with spans around each
 * call, then replay the recorded access and send streams into
 * standalone caches and a standalone mesh. Writes the spans as Chrome
 * trace-event JSON to @p trace_path. Throws on any simulator failure.
 */
TracedResult tracedRun(const BenchWorkload &bw, std::uint64_t seed,
                       const std::string &trace_path,
                       const std::map<std::string, std::string> &provenance);

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PIMDSM_PERFBENCH_BENCH_HH
