/**
 * @file
 * pimdsm benchmark driver.
 *
 *   pimdsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--out DIR] [--git-commit SHA]
 *   pimdsm_perfbench --selftest
 *   pimdsm_perfbench --list
 *
 * --trace 0 times repeated runWorkload calls for S seconds (tracing
 * off) and reports the end-to-end metrics, host times in seconds at
 * reference speed (see refKernelSeconds). --trace 1 makes a few
 * untraced reference runs, then one traced run, and reports the
 * per-layer metrics. Either way every run's RunResult is hashed, and
 * the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * nonzero when any run failed, any digest differs, or the coherence
 * oracle reported a violation.
 */

#include "bench.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "sim/event_queue.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".";
    std::string gitCommit = "unknown";
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pimdsm_perfbench: " << why
              << "\nusage: pimdsm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--git-commit SHA]\n"
                 "       pimdsm_perfbench --selftest | --list\n"
                 "workloads:";
    for (const auto &bw : benchWorkloads())
        std::cerr << " " << bw.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (arg == "--list") {
            for (const auto &bw : benchWorkloads())
                std::cout << bw.name << "\n";
            std::exit(0);
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        try {
            if (arg == "--workload")
                a.workload = v;
            else if (arg == "--seed")
                a.seed = std::stoull(v);
            else if (arg == "--seconds")
                a.seconds = std::stod(v);
            else if (arg == "--trace")
                a.trace = std::stoi(v);
            else if (arg == "--out")
                a.outDir = v;
            else if (arg == "--git-commit")
                a.gitCommit = v;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + v);
        }
    }
    if (a.selftest)
        return a;
    if (!findWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (a.seconds <= 0 || a.seconds > 120)
        usage("--seconds must be in (0, 120]");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    return a;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/** Outcome of one runWorkload call. */
struct RunSample
{
    bool ok = false;
    std::string error;
    RunResult result;
    std::string digest;
    double wallS = 0.0;
    double cpuS = 0.0;
    double rssMb = 0.0;
    double violations = 0.0;
};

double
violations(const RunResult &r)
{
    const auto v = r.counters.find("check.violations");
    return v == r.counters.end() ? 0.0 : v->second;
}

RunSample
timedRun(const BenchWorkload &bw, const Workload &wl, std::uint64_t seed,
         bool oracle)
{
    RunSample s;
    const MachineConfig cfg = makeBenchConfig(bw, wl, seed, oracle);
    const RunOptions opts = makeRunOptions(oracle);
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    try {
        s.result = runWorkload(cfg, wl, opts);
        s.ok = true;
    } catch (const std::exception &e) {
        s.error = e.what();
    }
    s.wallS = secondsBetween(t0, Clock::now());
    s.cpuS = cpuSeconds() - cpu0;
    s.rssMb = peakRssMb();
    if (s.ok) {
        s.digest = runDigest(s.result);
        s.violations = violations(s.result);
    }
    return s;
}

/** Set-up times (makeWorkload + buildConfig + Machine) and their
 *  Machine-construction part, one sample per set-up. */
struct SetupTimes
{
    std::vector<double> setup;
    std::vector<double> build;
};

/** Set up @p reps times, appending to @p st. Warm-up set-ups only warm
 *  the allocator and are not kept. */
void
timeSetups(const BenchWorkload &bw, std::uint64_t seed, int reps,
           SetupTimes &st, int warmup = 0)
{
    for (int i = 0; i < warmup + reps; ++i) {
        const auto t0 = Clock::now();
        auto wl = makeBenchWorkload(bw, seed);
        const MachineConfig cfg = makeBenchConfig(bw, *wl, seed, false);
        const auto t1 = Clock::now();
        auto m = std::make_unique<Machine>(cfg);
        const auto t2 = Clock::now();
        if (i < warmup)
            continue;
        st.setup.push_back(secondsBetween(t0, t2));
        st.build.push_back(secondsBetween(t1, t2));
    }
}

/** The Machine-independent facts every result file records. */
std::map<std::string, std::string>
provenance(const Args &a, const BenchWorkload &bw, const PermutedWorkload &wl)
{
    std::map<std::string, std::string> p;
    p["host_cores"] =
        std::to_string(std::max(1u, std::thread::hardware_concurrency()));
    p["compiler"] = PERFBENCH_COMPILER;
    p["build_type"] = PERFBENCH_BUILD_TYPE;
    p["git_commit"] = a.gitCommit;
    p["event_kernel"] =
        EventQueue::defaultKind() == EventQueue::KernelKind::Calendar
            ? "calendar"
            : "reference-heap";
    // Every workload runs the serial kernel: no shard threads.
    p["shard_threads_requested"] = "0";
    p["shard_threads_used"] = "0";
    p["workload"] = bw.name;
    p["seed"] = std::to_string(a.seed);
    p["trace"] = std::to_string(a.trace);
    p["seconds"] = fmt(a.seconds);
    std::string perm;
    for (const int t : wl.permutation())
        perm += (perm.empty() ? "" : " ") + std::to_string(t);
    p["thread_permutation"] = perm;
    return p;
}

void
writeResultFile(const std::string &path,
                const std::map<std::string, std::string> &prov,
                const Metrics &metrics,
                const std::map<std::string, std::vector<double>> &samples,
                const std::vector<std::string> &digests, bool correct,
                int attempted, int failed,
                const std::vector<std::string> &errors)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "pimdsm_perfbench: cannot write " << path << "\n";
        return;
    }
    os << "{\n  \"provenance\": {";
    bool first = true;
    for (const auto &[k, v] : prov) {
        os << (first ? "" : ", ") << "\n    " << jsonString(k) << ": "
           << jsonString(v);
        first = false;
    }
    os << "\n  },\n  \"correct\": " << (correct ? "true" : "false")
       << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
       << ",\n  \"digests\": [";
    for (std::size_t i = 0; i < digests.size(); ++i)
        os << (i ? ", " : "") << jsonString(digests[i]);
    os << "],\n  \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? ", " : "") << jsonString(errors[i]);
    os << "],\n  \"samples\": {";
    first = true;
    for (const auto &[k, vs] : samples) {
        os << (first ? "" : ",") << "\n    " << jsonString(k) << ": [";
        for (std::size_t i = 0; i < vs.size(); ++i)
            os << (i ? ", " : "") << fmt(vs[i]);
        os << "]";
        first = false;
    }
    os << "\n  },\n  \"metrics\": {";
    first = true;
    for (const auto &[k, m] : metrics) {
        os << (first ? "" : ",") << "\n    " << jsonString(k)
           << ": {\"value\": " << fmt(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
printResult(bool correct, int attempted, int failed, const Metrics &metrics)
{
    for (const auto &[k, m] : metrics) {
        std::printf("  %-28s %18s %s\n", k.c_str(), fmt(m.value).c_str(),
                    m.unit.c_str());
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[k, m] : metrics) {
        std::cout << (first ? "" : ", ") << jsonString(k)
                  << ": {\"value\": " << fmt(m.value)
                  << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

/** Accumulates the pass/fail state of every run in one invocation. */
struct Gate
{
    int attempted = 0;
    int failed = 0;
    double violations = 0.0;
    std::string reference;
    std::vector<std::string> digests;
    std::vector<std::string> errors;

    /** Record @p s; true when it ran, was clean and matched. */
    bool
    note(const RunSample &s, const std::string &what)
    {
        ++attempted;
        bool ok = s.ok;
        if (!s.ok) {
            errors.push_back(what + ": " + s.error);
        } else {
            digests.push_back(s.digest);
            violations += s.violations;
            if (s.violations > 0) {
                ok = false;
                errors.push_back(what + ": oracle violations");
            }
            if (reference.empty()) {
                reference = s.digest;
            } else if (s.digest != reference) {
                ok = false;
                errors.push_back(what + ": digest " + s.digest +
                                 " differs from " + reference);
            }
        }
        if (!ok)
            ++failed;
        return ok;
    }

    bool correct() const { return failed == 0; }
};

/** Set-ups before the first run, and after every timed run so the
 *  samples spread over the whole window like the run timings do. */
constexpr int kSetupReps = 21;
constexpr int kSetupRepsPerRun = 5;

int
runTimed(const Args &a, const BenchWorkload &bw)
{
    auto wl = makeBenchWorkload(bw, a.seed);
    const auto prov = provenance(a, bw, *wl);
    Gate gate;

    // Untimed oracle-on verification run; it also warms the allocator
    // and caches before the timed runs.
    gate.note(timedRun(bw, *wl, a.seed, true), "oracle-on verification");

    // Host times are converted to reference speed with the reference
    // kernel timed next to them: a run with the mean of the kernel
    // times before and after it, set-ups with the one after them.
    std::map<std::string, std::vector<double>> samples;
    auto timeRef = [&samples] {
        const double ref = refKernelSeconds();
        samples["ref_kernel_s"].push_back(ref);
        return ref;
    };
    auto addSetups = [&samples](const SetupTimes &st, double ref) {
        for (const double s : st.setup) {
            samples["setup_host_s"].push_back(s);
            samples["setup_s"].push_back(atRefSpeed(s, ref));
        }
    };
    refKernelSeconds(); // warm-up
    SetupTimes first;
    timeSetups(bw, a.seed, kSetupReps, first, /*warmup=*/5);
    double ref = timeRef();
    addSetups(first, ref);

    RunSample last;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(a.seconds);
    do {
        RunSample s = timedRun(bw, *wl, a.seed, false);
        const bool ok = gate.note(s, "timed run");
        if (!ok)
            break;
        SetupTimes setup;
        timeSetups(bw, a.seed, kSetupRepsPerRun, setup);
        const double ref_after = timeRef();
        addSetups(setup, ref_after);
        samples["wall_s"].push_back(s.wallS);
        samples["cpu_s"].push_back(s.cpuS);
        samples["run_ref_s"].push_back(
            atRefSpeed(s.wallS, 0.5 * (ref + ref_after)));
        samples["peak_rss_mb"].push_back(s.rssMb);
        last = std::move(s);
        ref = ref_after;
    } while (Clock::now() < deadline);

    Metrics metrics;
    if (gate.correct()) {
        const RunResult &r = last.result;
        const double run = median(samples["run_ref_s"]);
        metrics["run_ref_s"] = {run, "s"};
        metrics["sim_kips"] = {
            static_cast<double>(r.instructions) / run / 1e3, "kinst/s"};
        metrics["peak_rss_mb"] = {median(samples["peak_rss_mb"]), "MiB"};
        metrics["setup_s"] = {median(samples["setup_s"]), "s"};
        metrics["sim_cycles"] = {static_cast<double>(r.totalTicks), "cycles"};
        metrics["read_lat_mean_cyc"] = {
            static_cast<double>(r.reads.totalAllLatency()) /
                static_cast<double>(r.reads.totalAllCount()),
            "cycles"};
    }
    for (const auto &e : gate.errors)
        std::cerr << "pimdsm_perfbench: FAIL " << e << "\n";
    std::cout << bw.name << " seed " << a.seed << ": " << samples["wall_s"].size()
              << " timed runs, digest " << gate.reference
              << "; host medians: wall " << fmt(median(samples["wall_s"]))
              << " s, cpu " << fmt(median(samples["cpu_s"]))
              << " s, reference kernel "
              << fmt(median(samples["ref_kernel_s"])) << " s\n";
    writeResultFile(a.outDir + "/" + bw.name + "-seed" +
                        std::to_string(a.seed) + "-trace0.json",
                    prov, metrics, samples, gate.digests, gate.correct(),
                    gate.attempted, gate.failed, gate.errors);
    printResult(gate.correct(), gate.attempted, gate.failed, metrics);
    return gate.correct() ? 0 : 1;
}

int
runTraced(const Args &a, const BenchWorkload &bw)
{
    auto wl = makeBenchWorkload(bw, a.seed);
    const auto prov = provenance(a, bw, *wl);
    SetupTimes setup;
    timeSetups(bw, a.seed, kSetupReps, setup, /*warmup=*/5);
    Gate gate;
    std::map<std::string, std::vector<double>> samples;

    // Untraced reference runs in the timed configuration: the digest
    // the traced run must reproduce, and the wall time it is compared
    // with. Then the same configuration with the oracle on: the
    // oracle's overhead, and the oracle-on verification.
    const auto t0 = Clock::now();
    constexpr int kMaxRefs = 3;
    for (int i = 0; i < kMaxRefs; ++i) {
        const RunSample s = timedRun(bw, *wl, a.seed, false);
        if (!gate.note(s, "untraced reference run"))
            break;
        samples["untraced_wall_s"].push_back(s.wallS);
        if (secondsBetween(t0, Clock::now()) > 0.4 * a.seconds)
            break;
    }
    const auto t1 = Clock::now();
    for (int i = 0; i < kMaxRefs && gate.correct(); ++i) {
        const RunSample s = timedRun(bw, *wl, a.seed, true);
        if (!gate.note(s, "oracle-on verification"))
            break;
        samples["oracle_on_wall_s"].push_back(s.wallS);
        if (secondsBetween(t1, Clock::now()) > 0.2 * a.seconds)
            break;
    }
    // Host speed of this invocation, to compare its raw times with.
    refKernelSeconds(); // warm-up
    for (int i = 0; i < 3; ++i)
        samples["ref_kernel_s"].push_back(refKernelSeconds());

    Metrics metrics;
    const std::string trace_path = a.outDir + "/" + bw.name + "-seed" +
                                   std::to_string(a.seed) + ".trace.json";
    if (gate.correct()) {
        RunSample traced;
        TracedResult tr;
        try {
            tr = tracedRun(bw, a.seed, trace_path, prov);
            traced.ok = true;
            traced.result = tr.result;
            traced.digest = runDigest(tr.result);
            traced.violations = violations(tr.result);
        } catch (const std::exception &e) {
            traced.error = e.what();
        }
        if (gate.note(traced, "traced run")) {
            const double untraced = median(samples["untraced_wall_s"]);
            const double on = median(samples["oracle_on_wall_s"]);
            metrics = tr.metrics;
            metrics["machine.build_s"] = {median(setup.build), "s"};
            metrics["bench.ref_kernel_s"] = {
                median(samples["ref_kernel_s"]), "s"};
            metrics["check.violations"] = {gate.violations, "count"};
            metrics["check.overhead_frac"] = {1.0 - untraced / on, "ratio"};
            metrics["trace.wall_s"] = {tr.runWallS, "s"};
            metrics["trace.overhead_s"] = {tr.runWallS - untraced, "s"};
            std::cout << "trace written to " << trace_path << "\n";
        }
    }
    for (const auto &e : gate.errors)
        std::cerr << "pimdsm_perfbench: FAIL " << e << "\n";
    std::cout << bw.name << " seed " << a.seed << " traced: digest "
              << gate.reference << "\n";
    writeResultFile(a.outDir + "/" + bw.name + "-seed" +
                        std::to_string(a.seed) + "-trace1.json",
                    prov, metrics, samples, gate.digests, gate.correct(),
                    gate.attempted, gate.failed, gate.errors);
    printResult(gate.correct(), gate.attempted, gate.failed, metrics);
    return gate.correct() ? 0 : 1;
}

/**
 * Digest self-test on the smallest configurations: the identity seed
 * reproduces the unwrapped workload, repeated runs agree, another seed
 * moves the result, and the oracle changes nothing.
 */
int
runSelftest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
        if (!ok)
            ++failures;
    };
    const BenchWorkload &bw = *findWorkload("fft_agg_dsat");

    auto plain = makeWorkload(bw.app, bw.scale);
    BuildSpec spec;
    spec.arch = bw.arch;
    spec.threads = kThreads;
    spec.pressure = bw.pressure;
    spec.dRatio = bw.dRatio;
    const std::string unwrapped = runDigest(runWorkload(*plain, spec));

    auto ident = makeBenchWorkload(bw, kDefaultSeed);
    const RunSample a = timedRun(bw, *ident, kDefaultSeed, false);
    const RunSample b = timedRun(bw, *ident, kDefaultSeed, false);
    expect(a.ok && b.ok, "identity-seed runs complete");
    expect(a.digest == unwrapped,
           "identity seed reproduces the unwrapped workload");
    expect(a.digest == b.digest, "repeated runs share one digest");

    auto seeded = makeBenchWorkload(bw, 7);
    const RunSample c = timedRun(bw, *seeded, 7, false);
    const RunSample d = timedRun(bw, *seeded, 7, true);
    expect(c.ok && c.digest != a.digest, "seed 7 moves the result");
    expect(d.ok && d.digest == c.digest && d.violations == 0,
           "oracle on: same digest, no violations");

    RunResult copy = a.result;
    copy.counters["check.violations"] += 1;
    expect(runDigest(copy) == a.digest, "oracle counters are not digested");
    copy.counters["net.link_wait_ticks"] += 1;
    expect(runDigest(copy) != a.digest, "a simulated counter is digested");

    std::cout << (failures ? "selftest FAILED\n" : "selftest ok\n");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark defines its own configuration: drop the simulator's
    // environment overrides (kernel, sharding, partition, tracing).
    for (const char *var : {"PIMDSM_TRACE", "PIMDSM_SHARDS",
                            "PIMDSM_SHARD_THREADS", "PIMDSM_PARTITION",
                            "PIMDSM_REF_KERNEL", "PIMDSM_QUICK"}) {
        unsetenv(var);
    }
    const Args a = parseArgs(argc, argv);
    if (a.selftest)
        return runSelftest();
    const BenchWorkload &bw = *findWorkload(a.workload);
    return a.trace ? runTraced(a, bw) : runTimed(a, bw);
}
