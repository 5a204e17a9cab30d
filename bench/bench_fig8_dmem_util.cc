/**
 * @file
 * Figure 8: D-node memory utilization. Classifies every memory line in
 * the machine as Dirty-in-P-Node / Shared-in-P-Node / D-Node-Only at
 * 25%, 50% and 75% memory pressure, normalized so the total D-node
 * storage is 100 (the paper's dotted line).
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

int
main()
{
    banner("Figure 8: D-node memory line census (AGG, reduced ratio)",
           "D-Node-Only ~50% of D storage at 75% pressure, ~25% at "
           "50%, tiny at 25%; large Dirty-in-P fraction");

    const int threads = paperThreads();
    const std::vector<std::string> apps = benchApps();
    const std::vector<double> pressures = {0.75, 0.50, 0.25};

    std::vector<std::function<RunResult()>> jobs;
    for (const auto &app : apps) {
        for (double pressure : pressures) {
            jobs.push_back([app, pressure, threads] {
                return run(*makeWorkload(app), ArchKind::Agg, threads,
                           pressure, reducedDRatio(app));
            });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs);

    TablePrinter t({"app", "pressure", "DirtyInP", "SharedInP",
                    "DNodeOnly", "unused D", "SharedList reused"});

    std::size_t next = 0;
    for (const auto &app : apps) {
        std::vector<Bar> bars;
        for (double pressure : pressures) {
            const RunResult &r = results[next++];
            const double cap =
                static_cast<double>(r.census.dNodeCapacityLines);
            const double scale = 100.0 / cap;

            const double dirty = r.census.dirtyInPNode * scale;
            const double shared = r.census.sharedInPNode * scale;
            const double donly = r.census.dNodeOnly * scale;
            // Unused D storage = capacity - (D-Node-Only + home
            // copies of shared lines); negative => SharedList reuse.
            const double used_slots =
                r.census.dNodeUsedLines * scale;
            const double unused = 100.0 - used_slots;
            const double reuses = r.counter("dnode.sharedlist_reuse");

            const std::string label =
                "AGG" + std::to_string(static_cast<int>(
                            pressure * 100));
            bars.push_back({label, {dirty, shared, donly}});
            t.addRow({app, label, TablePrinter::num(dirty, 1),
                      TablePrinter::num(shared, 1),
                      TablePrinter::num(donly, 1),
                      TablePrinter::num(unused, 1),
                      TablePrinter::num(reuses, 0)});
        }
        printBars(std::cout,
                  "Fig 8 — " + app +
                      " (lines per 100 D-node storage slots; bar "
                      "beyond 1.0 exceeds D capacity)",
                  {"DirtyInP", "SharedInP", "DNodeOnly"}, bars, 100.0);
    }

    std::cout << "Census summary (normalized to 100 D-node slots):\n";
    t.print(std::cout);
    return 0;
}
