/**
 * @file
 * Simulator self-performance: how fast does the simulator itself run?
 *
 * Three workloads exercise the kernel hot paths from different angles:
 *
 *  - "stress": raw scheduler churn on a bare EventQueue — a mixed
 *    near/far schedule distribution modeled on the machine's latencies
 *    (link hops, handler occupancies, rare far-future watchdogs). This
 *    isolates schedule/pop/callback dispatch cost.
 *  - "faults": a fault-campaign run (drops + retries + a D-node death)
 *    — the heaviest per-event protocol work.
 *  - "fig6": one Figure-6 point (fft on AGG at the paper's thread
 *    count) — the representative paper experiment.
 *
 * Each row runs its workload once to warm up, then kTrials times, and
 * reports the events executed, the median, min and quartiles of the
 * trials' wall-clock seconds, events/second at the median, and the
 * highest per-trial peak RSS (the kernel's peak-RSS watermark is reset
 * before every trial via /proc/self/clear_refs, so rows are
 * independent, though a trial's peak includes heap the allocator kept
 * from earlier runs; on kernels without clear_refs the value degrades
 * to the monotone process-wide peak). The JSON's top level records the
 * host's core count, the compiler, the build type and whether the
 * library was built with link-time optimization. Emits
 * BENCH_selfperf.json into the working directory.
 *
 * Usage: bench_selfperf [--quick]
 * (--quick is implied by PIMDSM_QUICK.) The bench only reports; it
 * gates nothing. tools/selfperf_ab.py judges a change by running this
 * bench from two builds, alternating processes, and comparing each
 * row's wall time and peak RSS (see .github/workflows/perf.yml).
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "report/json.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/random.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

/** Timed trials per row, after one untimed warm-up run. */
constexpr int kTrials = 5;

/** One run of a workload. */
struct Sample
{
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    long peakRssKb = 0;
};

struct SelfPerfRow
{
    std::string name;
    std::uint64_t events = 0;
    double wallMedian = 0.0;
    double wallMin = 0.0;
    double wallQ1 = 0.0;
    double wallQ3 = 0.0;
    /** At the median wall time. */
    double eventsPerSec = 0.0;
    long peakRssKb = 0;
};

/**
 * Reset the kernel's peak-RSS watermark so the next peakRssKb() read
 * reflects only the workload run since this call. Writing "5" to
 * clear_refs sets VmHWM to the current VmRSS; a failure (no procfs,
 * old kernel) is harmless — rows then report the process-wide peak,
 * which is what this bench always reported before.
 */
void
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    if (f)
        f << "5";
}

long
peakRssKb()
{
    // Prefer VmHWM (resettable per workload); fall back to getrusage.
    std::ifstream st("/proc/self/status");
    std::string line;
    while (std::getline(st, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1)
                return kb;
        }
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // kilobytes on Linux
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Raw kernel churn: @p total events through a bare queue. The delay
 * distribution mirrors the simulated machine: mostly small constants
 * (hops, occupancies), a tail of medium memory/disk latencies, and
 * rare far-future timeouts that exercise the overflow path.
 */
Sample
runStress(std::uint64_t total)
{
    resetPeakRss();
    EventQueue eq;
    Rng rng(0x5e1f9e4full);
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;

    auto delay = [&rng]() -> Tick {
        const std::uint64_t r = rng.nextBounded(1000);
        if (r < 700)
            return 1 + rng.nextBounded(16); // link hop / occupancy
        if (r < 950)
            return 20 + rng.nextBounded(400); // handler / memory
        if (r < 998)
            return 1000 + rng.nextBounded(11000); // disk page-in
        return 50000 + rng.nextBounded(200000); // watchdog horizon
    };

    // Self-replenishing load: each event reschedules itself (and
    // occasionally a sibling) until the budget is spent, holding a few
    // thousand events in flight like a busy machine does.
    std::function<void()> tick = [&] {
        ++fired;
        if (scheduled < total) {
            ++scheduled;
            eq.scheduleIn(delay(), [&tick] { tick(); });
        }
        if (scheduled < total && rng.chance(0.02)) {
            ++scheduled;
            eq.scheduleIn(delay(), [&tick] { tick(); });
        }
    };

    const auto t0 = Clock::now();
    constexpr std::uint64_t kSeedEvents = 4096;
    for (std::uint64_t i = 0; i < kSeedEvents && scheduled < total; ++i) {
        ++scheduled;
        eq.scheduleIn(delay(), [&tick] { tick(); });
    }
    eq.run();
    const double secs = secondsSince(t0);

    if (fired != scheduled)
        panic("stress workload lost events");

    return Sample{fired, secs, peakRssKb()};
}

/** Fault campaign: drops + retries + one mid-run D-node death. */
Sample
runFaultCampaign()
{
    resetPeakRss();
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = quick() ? 4 : 8;
    spec.pressure = 0.25;
    spec.dRatio = 2;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.check.enabled = false; // timed row: the simulator, not the oracle
    cfg.faults.setUniformDropRate(0.05);
    cfg.faults.seed = 0x5eedull;
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::DNodeDeath,
         .tick = 4000,
         .node = static_cast<NodeId>(cfg.numPNodes)});

    warnResetForTest();
    const auto t0 = Clock::now();
    const RunResult r = runWorkload(cfg, *wl);
    const double secs = secondsSince(t0);
    warnResetForTest();

    return Sample{static_cast<std::uint64_t>(
                      r.counters.at("sim.events_executed")),
                  secs, peakRssKb()};
}

/** One Figure-6 point: fft on AGG at the paper's thread count. The
 *  wall time includes machine construction. */
Sample
runFig6Point()
{
    resetPeakRss();
    const auto t0 = Clock::now();
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = paperThreads();
    spec.pressure = 0.25;
    spec.dRatio = reducedDRatio("fft");
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.check.enabled = false; // timed row: the simulator, not the oracle
    const RunResult r = runWorkload(cfg, *wl);
    const double secs = secondsSince(t0);
    return Sample{static_cast<std::uint64_t>(
                      r.counters.at("sim.events_executed")),
                  secs, peakRssKb()};
}

/** Linear-interpolated quantile @p p of ascending @p v. */
double
quantile(const std::vector<double> &v, double p)
{
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

/** Warm up once, then time kTrials runs of @p workload. Every run
 *  must execute the same number of events (the simulations are
 *  seeded). */
SelfPerfRow
measure(const std::string &name, const std::function<Sample()> &workload)
{
    const Sample warm = workload();
    SelfPerfRow row;
    row.name = name;
    row.events = warm.events;
    std::vector<double> walls;
    for (int t = 0; t < kTrials; ++t) {
        const Sample s = workload();
        if (s.events != warm.events)
            panic("selfperf row '" + name + "' is not deterministic");
        walls.push_back(s.wallSeconds);
        row.peakRssKb = std::max(row.peakRssKb, s.peakRssKb);
    }
    std::sort(walls.begin(), walls.end());
    row.wallMin = walls.front();
    row.wallQ1 = quantile(walls, 0.25);
    row.wallMedian = quantile(walls, 0.5);
    row.wallQ3 = quantile(walls, 0.75);
    row.eventsPerSec = row.wallMedian > 0
                           ? static_cast<double>(row.events) /
                                 row.wallMedian
                           : 0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quick();
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--quick") {
            std::cerr << "usage: bench_selfperf [--quick]\n";
            return 2;
        }
        quick = true;
    }
    if (quick)
        setenv("PIMDSM_QUICK", "1", 1);

    banner("Simulator self-performance",
           "simulator implementation metric (no paper analogue)");
    if (quick)
        std::cout << "(quick)\n\n";

    std::vector<SelfPerfRow> rows;
    rows.push_back(measure("stress", [] { return runStress(3'000'000); }));
    rows.push_back(measure("faults", runFaultCampaign));
    rows.push_back(measure("fig6", runFig6Point));

    std::cout << kTrials << " trials per row after one warm-up; wall "
                 "time median [q1, q3], min\n\n"
              << "workload       events   median(s)       [q1, q3](s)"
                 "     min(s)  events/sec  peakRSS(MB)\n";
    for (const auto &r : rows) {
        std::printf("%-10s %10llu %11.4f  [%.4f, %.4f] %10.4f %11.0f "
                    "%12.1f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.wallMedian, r.wallQ1, r.wallQ3, r.wallMin,
                    r.eventsPerSec,
                    static_cast<double>(r.peakRssKb) / 1024.0);
    }

    std::ostringstream js;
    JsonWriter w(js);
    w.beginObject()
        .field("bench", "selfperf")
        .field("quick", quick)
        .field("host_cores", std::thread::hardware_concurrency())
        .field("compiler", PIMDSM_COMPILER)
        .field("build_type", PIMDSM_BUILD_TYPE)
        .field("ipo", static_cast<bool>(PIMDSM_IPO))
        .field("warmup_runs", 1)
        .field("trials", kTrials)
        .key("rows")
        .beginArray();
    for (const auto &r : rows) {
        w.beginObject(JsonLayout::Inline)
            .field("workload", r.name)
            .field("events", r.events)
            .field("events_per_sec", r.eventsPerSec)
            .field("wall_median_s", r.wallMedian)
            .field("wall_min_s", r.wallMin)
            .field("wall_q1_s", r.wallQ1)
            .field("wall_q3_s", r.wallQ3)
            .field("peak_rss_kb", r.peakRssKb)
            .end();
    }
    w.end().end();
    if (!writeFile("BENCH_selfperf.json", js.str())) {
        std::cerr << "bench_selfperf: cannot write BENCH_selfperf.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_selfperf.json (" << rows.size()
              << " workloads)\n";
    return 0;
}
