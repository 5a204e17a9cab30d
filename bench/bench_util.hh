/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries.
 *
 * Every bench regenerates one of the paper's tables or figures and
 * prints the measured rows next to the paper's reported shape, so
 * EXPERIMENTS.md can be cross-checked by running every binary in
 * the build's bench directory.
 */

#ifndef PIMDSM_BENCH_BENCH_UTIL_HH
#define PIMDSM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/apps.hh"
#include "workload/workload.hh"

namespace pimdsm::bench
{

/** PIMDSM_QUICK trims every bench to a fast subset for smoke testing.
 *  Read on every call: bench_selfperf --quick sets it after startup. */
inline bool
quick()
{
    return std::getenv("PIMDSM_QUICK") != nullptr;
}

/** Threads used by the paper's main experiments. */
inline int
paperThreads()
{
    return quick() ? 8 : 32;
}

/** Apps that "put relatively more demands on the D-nodes" run the
 *  reduced ratio 1/2; the rest use 1/4 (Section 4.1). */
inline int
reducedDRatio(const std::string &app)
{
    if (app == "fft" || app == "radix" || app == "ocean")
        return 2;
    return 4;
}

inline std::vector<std::string>
benchApps()
{
    if (quick())
        return {"fft", "barnes"};
    return paperWorkloadNames();
}

struct NamedRun
{
    std::string label;
    RunResult result;
};

inline RunResult
run(const Workload &wl, ArchKind arch, int threads, double pressure,
    int d_ratio = 1)
{
    BuildSpec spec;
    spec.arch = arch;
    spec.threads = threads;
    spec.pressure = pressure;
    spec.dRatio = d_ratio;
    return runWorkload(wl, spec);
}

/** Worker threads for independent simulation points: PIMDSM_BENCH_JOBS
 *  if set, else one per host core. */
inline int
benchJobs()
{
    if (const char *s = std::getenv("PIMDSM_BENCH_JOBS"))
        return std::max(1, std::atoi(s));
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Run independent simulation points on up to @p workers threads and
 * return their results in submission order, so output printed from
 * them is the same for every worker count. Each job must own all of
 * its simulation state (Workload, Machine): runs share nothing mutable
 * but warn()'s dedup set, which is locked. If jobs throw, every worker
 * still finishes, then the first failing job's exception is rethrown.
 */
template <typename T>
std::vector<T>
runPoints(const std::vector<std::function<T()>> &jobs,
          int workers = benchJobs())
{
    std::vector<T> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            try {
                results[i] = jobs[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, workers)), jobs.size());
    {
        // jthreads join when the scope ends, on every path.
        std::vector<std::jthread> pool;
        for (std::size_t t = 1; t < n; ++t)
            pool.emplace_back(work);
        work();
    }
    for (const auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

/** Memory/Processor split of @p r scaled to its normalized total. */
inline std::vector<double>
timeSegments(const RunResult &r, double normalized_total)
{
    const double mem = r.memoryFraction() * normalized_total;
    return {mem, normalized_total - mem};
}

inline void
banner(const std::string &title, const std::string &paper_shape)
{
    std::cout << "==================================================="
                 "=====================\n";
    std::cout << title << "\n";
    std::cout << "paper shape: " << paper_shape << "\n";
    std::cout << "==================================================="
                 "=====================\n\n";
}

} // namespace pimdsm::bench

#endif // PIMDSM_BENCH_BENCH_UTIL_HH
