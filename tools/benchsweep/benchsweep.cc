/**
 * @file
 * Parallel bench sweep runner.
 *
 * Replaces the serial shell loop over build/bench in EXPERIMENTS.md:
 * it discovers every bench binary in a directory, fans
 * them out over a worker pool (the benches are independent processes),
 * captures each one's stdout+stderr to <outdir>/<bench>.log, and
 * prints a pass/fail summary with per-bench wall time.
 *
 * Usage: pimdsm-benchsweep [-j N] [-o outdir] [benchdir]
 *   benchdir  directory of bench binaries (default: build/bench)
 *   -j N      worker processes (default: hardware concurrency)
 *   -o DIR    log directory (default: benchsweep-logs)
 *
 * The sweep already fills the cores with whole benches, so each bench
 * runs its own simulation points one at a time (PIMDSM_BENCH_JOBS=1)
 * unless the caller's environment sets PIMDSM_BENCH_JOBS.
 *
 * Exit status is the number of failing benches (0 = all green).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;

namespace
{

struct BenchJob
{
    fs::path binary;
    fs::path log;
    int exitCode = -1;
    double wallSeconds = 0.0;
};

bool
isExecutableFile(const fs::path &p)
{
    std::error_code ec;
    if (!fs::is_regular_file(p, ec))
        return false;
    const auto perms = fs::status(p, ec).permissions();
    return (perms & fs::perms::owner_exec) != fs::perms::none;
}

void
runJob(BenchJob &job)
{
    // Each bench writes its BENCH_*.json into the current directory;
    // run from the log directory so artifacts land in one place, and
    // shell-redirect output to the per-bench log.
    const std::string env =
        std::getenv("PIMDSM_BENCH_JOBS") ? "" : "PIMDSM_BENCH_JOBS=1 ";
    const std::string cmd = "cd '" + job.log.parent_path().string() +
                            "' && " + env + "'" +
                            fs::absolute(job.binary).string() + "' > '" +
                            fs::absolute(job.log).string() + "' 2>&1";
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = std::system(cmd.c_str());
    job.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    job.exitCode = rc;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path benchDir = "build/bench";
    fs::path outDir = "benchsweep-logs";
    unsigned workers = std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 4;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-j" && i + 1 < argc) {
            workers = static_cast<unsigned>(
                std::max(1, std::atoi(argv[++i])));
        } else if (arg == "-o" && i + 1 < argc) {
            outDir = argv[++i];
        } else if (!arg.empty() && arg[0] != '-') {
            benchDir = arg;
        } else {
            std::cerr << "usage: pimdsm-benchsweep [-j N] [-o outdir] "
                         "[benchdir]\n";
            return 2;
        }
    }

    std::error_code ec;
    if (!fs::is_directory(benchDir, ec)) {
        std::cerr << "benchsweep: no such bench directory: " << benchDir
                  << "\n";
        return 2;
    }
    fs::create_directories(outDir);

    std::vector<BenchJob> jobs;
    for (const auto &entry : fs::directory_iterator(benchDir)) {
        if (!isExecutableFile(entry.path()))
            continue;
        BenchJob job;
        job.binary = entry.path();
        job.log = outDir / (entry.path().filename().string() + ".log");
        jobs.push_back(std::move(job));
    }
    // Deterministic order (directory iteration order is unspecified).
    std::sort(jobs.begin(), jobs.end(),
              [](const BenchJob &a, const BenchJob &b) {
                  return a.binary < b.binary;
              });
    if (jobs.empty()) {
        std::cerr << "benchsweep: no bench binaries in " << benchDir
                  << "\n";
        return 2;
    }

    std::cout << "benchsweep: " << jobs.size() << " benches, "
              << workers << " workers\n";

    std::atomic<std::size_t> next{0};
    std::mutex ioMutex;
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            runJob(jobs[i]);
            std::lock_guard<std::mutex> lock(ioMutex);
            std::printf("  %-28s %s  %7.1fs\n",
                        jobs[i].binary.filename().c_str(),
                        jobs[i].exitCode == 0 ? "ok  " : "FAIL",
                        jobs[i].wallSeconds);
            std::fflush(stdout);
        }
    };

    std::vector<std::thread> pool;
    const unsigned n =
        std::min<unsigned>(workers,
                           static_cast<unsigned>(jobs.size()));
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    int failures = 0;
    for (const auto &job : jobs) {
        if (job.exitCode != 0) {
            ++failures;
            std::cout << "FAILED: " << job.binary.filename().string()
                      << " (see " << job.log.string() << ")\n";
        }
    }
    std::cout << (failures == 0 ? "all benches passed\n"
                                : "some benches failed\n");
    return failures;
}
