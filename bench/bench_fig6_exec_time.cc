/**
 * @file
 * Figure 6: normalized execution time of NUMA, COMA, and AGG (1/1 plus
 * the reduced-D ratio) at 25% and 75% memory pressure, decomposed into
 * Memory and Processor time, per application.
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

/** One Figure-6 configuration: label, organization, pressure, D ratio
 *  (0 = the app's reduced ratio). */
struct Config
{
    const char *label;
    ArchKind arch;
    double pressure;
    int dRatio;
};

constexpr Config kConfigs[] = {
    {"NUMA", ArchKind::Numa, 0.75, 1},
    {"COMA25", ArchKind::Coma, 0.25, 1},
    {"COMA75", ArchKind::Coma, 0.75, 1},
    {"1/1AGG25", ArchKind::Agg, 0.25, 1},
    {"1/1AGG75", ArchKind::Agg, 0.75, 1},
    {"AGG25", ArchKind::Agg, 0.25, 0},
    {"AGG75", ArchKind::Agg, 0.75, 0},
};

} // namespace

int
main()
{
    banner("Figure 6: normalized execution time (Memory + Processor)",
           "COMA ~= 1/1AGG, both ~30-40% below NUMA; reduced-D AGG "
           "only ~12% above 1/1AGG");

    const int threads = paperThreads();
    const std::vector<std::string> apps = benchApps();

    // Every (app, configuration) point is an independent run.
    std::vector<std::function<RunResult()>> jobs;
    for (const auto &app : apps) {
        for (const Config &c : kConfigs) {
            const int ratio = c.dRatio ? c.dRatio : reducedDRatio(app);
            jobs.push_back([app, c, ratio, threads] {
                return run(*makeWorkload(app), c.arch, threads,
                           c.pressure, ratio);
            });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs);

    TablePrinter summary({"app", "NUMA", "COMA25", "COMA75",
                          "1/1AGG25", "1/1AGG75", "redAGG25",
                          "redAGG75"});

    std::size_t next = 0;
    for (const auto &app : apps) {
        const std::string red = "1/" + std::to_string(reducedDRatio(app));
        const double base = static_cast<double>(results[next].totalTicks);

        std::vector<Bar> bars;
        std::vector<std::string> row = {app};
        for (const Config &c : kConfigs) {
            const RunResult &r = results[next++];
            const double norm = r.totalTicks / base;
            bars.push_back({c.dRatio ? c.label : red + c.label,
                            timeSegments(r, norm)});
            row.push_back(TablePrinter::num(norm));
        }
        printBars(std::cout, "Fig 6 — " + app + " (vs NUMA = 1.0)",
                  {"Memory", "Processor"}, bars);
        summary.addRow(row);
    }

    std::cout << "Summary (execution time normalized to NUMA):\n";
    summary.print(std::cout);
    return 0;
}
