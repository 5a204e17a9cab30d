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
 * trials' wall-clock seconds, events/second at the median, the median
 * time of a fixed reference loop timed around each trial
 * (ref_kernel_s: standard-library work only, no simulator code), and
 * the highest per-trial peak RSS (the kernel's peak-RSS watermark is
 * reset before every trial via /proc/self/clear_refs, so rows are
 * independent, though a trial's peak includes heap the allocator kept
 * from earlier runs; on kernels without clear_refs the value degrades
 * to the monotone process-wide peak). The JSON's top level records the
 * host's core count, the compiler, the build type and whether the
 * library was built with link-time optimization. Emits
 * BENCH_selfperf.json for CI trend tracking (see
 * .github/workflows/perf.yml).
 *
 * Usage: bench_selfperf [--quick] [--kernel=calendar|heap]
 *                       [--baseline PATH] [--drift F]
 * (--quick is implied by PIMDSM_QUICK; --kernel selects the scheduler
 * for the stress workload and the default for machine runs.
 * --baseline compares events_per_sec x ref_kernel_s per workload, the
 * events run in the time of one reference loop, against a committed
 * BENCH_selfperf.json and exits 1 on any slowdown beyond --drift
 * (default 0.25). The product cancels the host's speed, so a baseline
 * recorded on a faster host still gates a slower one. It also exits 1
 * when a row's peak_rss_kb passes the baseline's by more than
 * kRssDrift (10%): a fatter per-line record or an unbounded buffer.
 * PIMDSM_PERF_WAIVE=1 downgrades either failure to a warning for
 * known-noisy hosts. The baseline is read and checked
 * before any trial runs, so it may be the BENCH_selfperf.json this run
 * overwrites. It must come from a run of the same mode: a quick run
 * against a full-mode baseline, or the reverse, exits 2 at once, as
 * does an unreadable or malformed baseline. BENCH_selfperf_quick.json
 * is the committed quick-mode baseline.)
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <malloc.h>
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

/** Largest peak-RSS growth over the baseline the gate lets through. */
constexpr double kRssDrift = 0.10;

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
    /** Median over trials of the reference-loop time around each. */
    double refKernelSeconds = 0.0;
    long peakRssKb = 0;
};

/** What the gate compares: events run in one reference-loop time. */
double
eventsPerRefKernel(double events_per_sec, double ref_kernel_s)
{
    return events_per_sec * ref_kernel_s;
}

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
 * A fixed host-speed reference, timed beside every trial: a 4,096-entry
 * binary heap and a hash table driven by an LCG for 200,000 steps. It
 * uses no simulator code, so a change to the simulator cannot move it;
 * perfbench times its own copy.
 */
double
refKernelSeconds()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::uint64_t state = 7;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1;
        return state;
    };
    const auto t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<std::uint32_t, std::uint64_t> table;
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t r = next();
        queue.push({r >> 40, static_cast<std::uint32_t>(r >> 20)});
    }
    for (int i = 0; i < 200000; ++i) {
        const auto [when, key] = queue.top();
        queue.pop();
        table[key & 0xfffffu] += when;
        const std::uint64_t r = next();
        queue.push(
            {when + (r >> 50) + 1, static_cast<std::uint32_t>(r >> 20)});
    }
    const volatile std::size_t sink = table.size() + queue.size();
    (void)sink;
    const double secs = secondsSince(t0);
    // The table's ~8 MB would otherwise stay in the allocator and count
    // toward the next trial's peak RSS.
    table = {};
    malloc_trim(0);
    return secs;
}

/**
 * Raw kernel churn: @p total events through a bare queue. The delay
 * distribution mirrors the simulated machine: mostly small constants
 * (hops, occupancies), a tail of medium memory/disk latencies, and
 * rare far-future timeouts that exercise the overflow path.
 */
Sample
runStress(std::uint64_t total, EventQueue::KernelKind kind)
{
    resetPeakRss();
    EventQueue eq(kind);
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
    cfg.check.enabled = false; // timed row; the baseline is oracle-off
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
    cfg.check.enabled = false; // timed row; the baseline is oracle-off
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

/** Warm up once, then time kTrials runs of @p workload between
 *  reference loops; a trial's reference time is the mean of the loops
 *  just before and just after it. Every run must execute the same
 *  number of events (the simulations are seeded). */
SelfPerfRow
measure(const std::string &name, const std::function<Sample()> &workload)
{
    const Sample warm = workload();
    refKernelSeconds();
    double refBefore = refKernelSeconds();
    SelfPerfRow row;
    row.name = name;
    row.events = warm.events;
    std::vector<double> walls;
    std::vector<double> refs;
    for (int t = 0; t < kTrials; ++t) {
        const Sample s = workload();
        if (s.events != warm.events)
            panic("selfperf row '" + name + "' is not deterministic");
        walls.push_back(s.wallSeconds);
        const double refAfter = refKernelSeconds();
        refs.push_back(0.5 * (refBefore + refAfter));
        refBefore = refAfter;
        row.peakRssKb = std::max(row.peakRssKb, s.peakRssKb);
    }
    std::sort(refs.begin(), refs.end());
    row.refKernelSeconds = quantile(refs, 0.5);
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

/** What the gate checks a row against. */
struct BaselineRow
{
    /** Events per reference-loop time. */
    double eventsPerRef = 0.0;
    long peakRssKb = 0;
};

/** The rows of a committed BENCH_selfperf.json by workload, read and
 *  checked before any trial runs; exits 2 when the file is unreadable,
 *  malformed or of the other mode. */
std::map<std::string, BaselineRow>
loadBaseline(const std::string &path, bool quick)
{
    auto fail = [&](const std::string &why) {
        std::cerr << "bench_selfperf: " << path << why << "\n";
        std::exit(2);
    };
    const std::optional<std::string> text = readFile(path);
    if (!text)
        fail(": cannot read");
    const JsonDoc doc = parseJson(*text);
    if (!doc.ok())
        fail(": " + doc.error);
    const std::optional<bool> baseQuick = doc.boolean("quick");
    if (!baseQuick)
        fail(" has no \"quick\" flag");
    if (*baseQuick != quick)
        fail(std::string(" is a ") + (*baseQuick ? "quick" : "full") +
             "-mode baseline but this run is " +
             (quick ? "quick" : "full") +
             "; compare only runs of the same mode");
    std::map<std::string, BaselineRow> rows;
    for (int i = 0;; ++i) {
        const std::string row = "rows." + std::to_string(i) + ".";
        const auto name = doc.string(row + "workload");
        if (!name)
            break;
        const auto v = doc.number<double>(row + "events_per_sec");
        if (!v || *v <= 0)
            fail(" row '" + *name + "' has no positive events_per_sec");
        const auto ref = doc.number<double>(row + "ref_kernel_s");
        if (!ref || *ref <= 0)
            fail(" row '" + *name + "' has no positive ref_kernel_s");
        const auto rss = doc.number<long>(row + "peak_rss_kb");
        if (!rss || *rss <= 0)
            fail(" row '" + *name + "' has no positive peak_rss_kb");
        rows[*name] = {eventsPerRefKernel(*v, *ref), *rss};
    }
    if (rows.empty())
        fail(" has no rows");
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quick();
    EventQueue::KernelKind kind = EventQueue::defaultKind();
    std::string baselinePath;
    double drift = 0.25;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--baseline" || arg == "--drift") && i + 1 >= argc) {
            std::cerr << "bench_selfperf: " << arg << " needs a value\n";
            return 2;
        }
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--kernel=heap") {
            kind = EventQueue::KernelKind::ReferenceHeap;
        } else if (arg == "--kernel=calendar") {
            kind = EventQueue::KernelKind::Calendar;
        } else if (arg == "--baseline") {
            baselinePath = argv[++i];
        } else if (arg == "--drift") {
            const auto v = parseNumber<double>(argv[++i]);
            if (!v) {
                std::cerr << "bench_selfperf: bad --drift '" << argv[i]
                          << "'\n";
                return 2;
            }
            drift = *v;
        } else {
            std::cerr << "usage: bench_selfperf [--quick] "
                         "[--kernel=calendar|heap] [--baseline PATH] "
                         "[--drift F]\n";
            return 2;
        }
    }
    if (quick)
        setenv("PIMDSM_QUICK", "1", 1);
    EventQueue::setDefaultKind(kind);
    std::map<std::string, BaselineRow> baseline;
    if (!baselinePath.empty())
        baseline = loadBaseline(baselinePath, quick);

    banner("Simulator self-performance",
           "simulator implementation metric (no paper analogue)");
    std::cout << "kernel: "
              << (kind == EventQueue::KernelKind::Calendar
                      ? "calendar"
                      : "reference-heap")
              << (quick ? " (quick)" : "") << "\n\n";

    const std::uint64_t stressEvents = quick ? 300'000 : 3'000'000;
    std::vector<SelfPerfRow> rows;
    rows.push_back(measure(
        "stress", [&] { return runStress(stressEvents, kind); }));
    rows.push_back(measure("faults", runFaultCampaign));
    rows.push_back(measure("fig6", runFig6Point));

    std::cout << kTrials << " trials per row after one warm-up; wall "
                 "time median [q1, q3], min\n\n"
              << "workload       events   median(s)       [q1, q3](s)"
                 "     min(s)  events/sec  ref_kernel(s)  peakRSS(MB)\n";
    for (const auto &r : rows) {
        std::printf("%-10s %10llu %11.4f  [%.4f, %.4f] %10.4f %11.0f "
                    "%14.4f %12.1f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.wallMedian, r.wallQ1, r.wallQ3, r.wallMin,
                    r.eventsPerSec, r.refKernelSeconds,
                    static_cast<double>(r.peakRssKb) / 1024.0);
    }

    std::ostringstream js;
    JsonWriter w(js);
    w.beginObject()
        .field("bench", "selfperf")
        .field("kernel", kind == EventQueue::KernelKind::Calendar
                             ? "calendar"
                             : "heap")
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
            .field("ref_kernel_s", r.refKernelSeconds)
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

    if (!baseline.empty()) {
        const bool waived =
            std::getenv("PIMDSM_PERF_WAIVE") != nullptr;
        bool regressed = false;
        for (const auto &r : rows) {
            const auto it = baseline.find(r.name);
            if (it == baseline.end()) {
                std::cout << "baseline: no row for '" << r.name
                          << "', skipping\n";
                continue;
            }
            const double want = it->second.eventsPerRef;
            const double got =
                eventsPerRefKernel(r.eventsPerSec, r.refKernelSeconds);
            const double floor = want * (1.0 - drift);
            if (got < floor) {
                std::cerr << "bench_selfperf: '" << r.name
                          << "' regressed: " << got
                          << " events per reference loop vs baseline "
                          << want << " (allowed -" << drift * 100
                          << "%)\n";
                regressed = true;
            } else {
                std::cout << "baseline: '" << r.name << "' ok (" << got
                          << " vs " << want
                          << " events per reference loop)\n";
            }
            const long rssWant = it->second.peakRssKb;
            if (static_cast<double>(r.peakRssKb) >
                static_cast<double>(rssWant) * (1.0 + kRssDrift)) {
                std::cerr << "bench_selfperf: '" << r.name
                          << "' regressed: peak RSS " << r.peakRssKb
                          << " kB vs baseline " << rssWant
                          << " kB (allowed +" << kRssDrift * 100
                          << "%)\n";
                regressed = true;
            } else {
                std::cout << "baseline: '" << r.name << "' peak RSS ok ("
                          << r.peakRssKb << " vs " << rssWant << " kB)\n";
            }
        }
        if (regressed) {
            if (waived) {
                std::cerr << "bench_selfperf: regression WAIVED via "
                             "PIMDSM_PERF_WAIVE\n";
            } else {
                std::cerr << "bench_selfperf: FAIL (set "
                             "PIMDSM_PERF_WAIVE=1 to override on "
                             "known-noisy hosts)\n";
                return 1;
            }
        }
    }

    return 0;
}
