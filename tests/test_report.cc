/**
 * @file
 * Tests for the reporting layer: table/bar rendering and the
 * experiment runner's aggregate bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

TEST(TablePrinterTest, AlignsColumnsAndFormatsNumbers)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", TablePrinter::num(1.2345)});
    t.addRow({"a-much-longer-name", TablePrinter::pct(0.5)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("| alpha"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("50.0%"), std::string::npos);
    // Every rendered line has the same width.
    std::istringstream in(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(in, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TablePrinterTest, NumPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 0), "3");
    EXPECT_EQ(TablePrinter::num(3.14159, 3), "3.142");
    EXPECT_EQ(TablePrinter::pct(0.1234, 2), "12.34%");
}

TEST(PrintBarsTest, RendersSegmentsProportionally)
{
    std::ostringstream os;
    printBars(os, "demo", {"A", "B"},
              {{"barhalf", {0.25, 0.25}}, {"barfull", {0.5, 0.5}}});
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("A"), std::string::npos);
    EXPECT_NE(s.find("0.50"), std::string::npos);
    EXPECT_NE(s.find("1.00"), std::string::npos);
    // The full bar draws about twice the glyphs of the half bar.
    const auto count = [&](const std::string &row) {
        const auto pos = s.find(row);
        const auto eol = s.find('\n', pos);
        const std::string line = s.substr(pos, eol - pos);
        return std::count(line.begin(), line.end(), '#') +
               std::count(line.begin(), line.end(), '=');
    };
    EXPECT_NEAR(static_cast<double>(count("barfull")),
                2.0 * count("barhalf"), 3.0);
}

TEST(ExperimentRunner, AggregatesAreConsistent)
{
    auto wl = makeWorkload("swim", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.5;
    const RunResult r = runWorkload(*wl, spec);

    // Phase windows tile the run.
    Tick prev_end = 0;
    for (const auto &p : r.phases) {
        EXPECT_GE(p.startTick, prev_end);
        EXPECT_GE(p.endTick, p.startTick);
        prev_end = p.endTick;
    }
    EXPECT_EQ(r.totalTicks, r.phases.back().endTick);

    // Per-thread time splits are bounded by 4 threads x wall clock.
    EXPECT_LE(r.time.total(), 4 * r.totalTicks + 4);
    EXPECT_GE(r.memoryFraction(), 0.0);
    EXPECT_LE(r.memoryFraction(), 1.0);

    // Read categories add up.
    EXPECT_EQ(r.reads.totalAllCount(),
              r.reads.count[0] + r.reads.count[1] + r.reads.count[2] +
                  r.reads.count[3] + r.reads.count[4]);
    EXPECT_GT(r.instructions, 0u);
}

TEST(ExperimentRunner, DeterministicAcrossRuns)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Coma;
    spec.threads = 4;
    spec.pressure = 0.5;
    const RunResult a = runWorkload(*wl, spec);
    const RunResult b = runWorkload(*wl, spec);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.reads.totalAllLatency(), b.reads.totalAllLatency());
}

/** Sorted counter names of a quick 8-thread AGG run of @p app. */
std::vector<std::string>
aggCounterNames(const char *app, double pressure, int d_ratio)
{
    auto wl = makeWorkload(app, 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.pressure = pressure;
    spec.dRatio = d_ratio;
    std::vector<std::string> names;
    for (const auto &[name, value] : runWorkload(*wl, spec).counters)
        names.push_back(name);
    return names;
}

TEST(ExperimentRunner, AggCounterNamesArePinned)
{
    // perfbench's run digest hashes RunResult::counters' key set, so a
    // counter added to or dropped from an AGG run moves every digest.
    // fft: 1/2 AGG at 75% pressure, so D-nodes reuse SharedList slots.
    const std::vector<std::string> fft = {
        "compute.fwd_from_wb_buffer", "dnode.sharedlist_reuse",
        "home.blocked_requests",      "home.engine_wait_ticks",
        "home.read_via_master",       "home.sharing_wb_dropped",
        "net.link_wait_ticks",        "sim.events_executed",
    };
    // barnes: 1/1 AGG at 25% pressure.
    const std::vector<std::string> barnes = {
        "compute.fwd_from_wb_buffer", "compute.upgrade_after_displacement",
        "home.blocked_requests",      "home.engine_wait_ticks",
        "home.read_via_master",       "home.sharing_wb_dropped",
        "net.link_wait_ticks",        "sim.events_executed",
    };
    EXPECT_EQ(aggCounterNames("fft", 0.75, 2), fft);
    EXPECT_EQ(aggCounterNames("barnes", 0.25, 1), barnes);
}

} // namespace
} // namespace pimdsm
