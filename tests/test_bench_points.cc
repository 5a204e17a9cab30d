/**
 * @file
 * The benches' point pool (bench_util.hh runPoints): independent
 * simulations run on concurrent threads must give exactly the results
 * they give one after another, whatever the worker count, with and
 * without fault injection, and a Figure-6-style report printed from
 * them must be byte-identical.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

using bench::runPoints;

/** A small AGG/COMA/NUMA run of @p app, optionally with a lossy mesh
 *  plus a D-node death, or a P-node death at @p pnode_death. */
RunResult
runApp(const std::string &app, ArchKind arch, bool faults = false,
       Tick pnode_death = 0)
{
    auto wl = makeWorkload(app, 1);
    BuildSpec spec;
    spec.arch = arch;
    spec.threads = 4;
    spec.dNodes = arch == ArchKind::Agg ? 2 : 0;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    if (faults) {
        cfg.faults.setUniformDropRate(0.02);
        cfg.faults.seed = 0xfeedbeefull;
        cfg.faults.timeoutTicks = 5000;
        cfg.faults.sweepInterval = 1000;
        cfg.faults.schedule.push_back(
            {.domain = FaultDomain::DNodeDeath,
             .tick = 10'000,
             .node = static_cast<NodeId>(cfg.numPNodes)});
    }
    if (pnode_death != 0) {
        cfg.faults.seed = 0xfeedbeefull;
        cfg.faults.schedule.push_back({.domain = FaultDomain::PNodeDeath,
                                       .tick = pnode_death,
                                       .node = 1});
    }
    return runWorkload(cfg, *wl);
}

void
expectSameRun(const RunResult &a, const RunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.totalTicks, b.totalTicks) << what;
    EXPECT_EQ(a.messages, b.messages) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.time.busy, b.time.busy) << what;
    EXPECT_EQ(a.time.sync, b.time.sync) << what;
    EXPECT_EQ(a.time.memoryStall, b.time.memoryStall) << what;
    EXPECT_EQ(a.census.totalLines(), b.census.totalLines()) << what;
    ASSERT_EQ(a.counters.size(), b.counters.size()) << what;
    for (const auto &[k, v] : a.counters) {
        const auto it = b.counters.find(k);
        ASSERT_NE(it, b.counters.end()) << what << ": counter " << k;
        EXPECT_EQ(v, it->second)
            << what << ": counter " << k << " "
            << std::setprecision(17) << v << " vs " << it->second;
    }
}

/** Run @p jobs serially and on 4 workers; every point must match. */
void
expectPoolMatchesSerial(
    const std::vector<std::function<RunResult()>> &jobs)
{
    const auto serial = runPoints(jobs, 1);
    const auto pooled = runPoints(jobs, 4);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(pooled.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameRun(serial[i], pooled[i], "point " + std::to_string(i));
}

TEST(BenchPoints, CleanWorkloadMatchesSerial)
{
    expectPoolMatchesSerial({
        [] { return runApp("fft", ArchKind::Agg); },
        [] { return runApp("fft", ArchKind::Numa); },
        [] { return runApp("barnes", ArchKind::Coma); },
        [] { return runApp("radix", ArchKind::Agg); },
        [] { return runApp("fft", ArchKind::Agg); },
    });
}

TEST(BenchPoints, FaultCampaignMatchesSerial)
{
    warnResetForTest();
    const RunResult ref = runApp("radix", ArchKind::Agg, true);
    EXPECT_GT(ref.counters.at("fault.net.drop"), 0.0);
    EXPECT_EQ(ref.counter("fault.failovers"), 1.0);
    expectPoolMatchesSerial({
        [] { return runApp("radix", ArchKind::Agg, true); },
        [] { return runApp("fft", ArchKind::Agg, true); },
        [] { return runApp("radix", ArchKind::Agg, true); },
    });
}

/** P-node fail-stop failover (abort, writeback salvage, sync-manager
 *  shrink) next to clean points. */
TEST(BenchPoints, PNodeDeathMatchesSerial)
{
    const Tick half = runApp("barnes", ArchKind::Agg).totalTicks / 2;
    const RunResult ref = runApp("barnes", ArchKind::Agg, false, half);
    EXPECT_EQ(ref.counter("fault.pnode_failovers"), 1.0);
    expectPoolMatchesSerial({
        [half] { return runApp("barnes", ArchKind::Agg, false, half); },
        [] { return runApp("barnes", ArchKind::Agg); },
        [half] { return runApp("barnes", ArchKind::Agg, false, half); },
    });
}

/** A Figure-6-style report built from pooled points. */
std::string
fig6Text(int workers)
{
    std::vector<std::function<RunResult()>> jobs;
    for (const std::string app : {"fft", "barnes"}) {
        for (const ArchKind arch :
             {ArchKind::Numa, ArchKind::Coma, ArchKind::Agg}) {
            jobs.push_back([app, arch] { return runApp(app, arch); });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs, workers);
    std::ostringstream os;
    std::vector<Bar> bars;
    TablePrinter table({"point", "cycles"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const double mem = r.memoryFraction();
        bars.push_back({std::to_string(i), {mem, 1.0 - mem}});
        table.addRow({std::to_string(i),
                      TablePrinter::num(static_cast<double>(r.totalTicks))});
    }
    printBars(os, "Fig 6 (pooled)", {"Memory", "Processor"}, bars);
    table.print(os);
    return os.str();
}

TEST(BenchPoints, Fig6OutputIsByteIdentical)
{
    EXPECT_EQ(fig6Text(4), fig6Text(1));
}

TEST(BenchPoints, FirstFailureIsRethrownAfterEveryPointRan)
{
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back([i, &ran]() -> int {
            ++ran;
            if (i == 2 || i == 4)
                throw std::runtime_error("point " + std::to_string(i));
            return i;
        });
    }
    try {
        runPoints(jobs, 3);
        FAIL() << "expected the failing point to be rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "point 2");
    }
    EXPECT_EQ(ran.load(), 6);

    jobs.erase(jobs.begin() + 2);
    jobs.erase(jobs.begin() + 3);
    EXPECT_EQ(runPoints(jobs, 3), (std::vector<int>{0, 1, 3, 5}));
}

} // namespace
} // namespace pimdsm
