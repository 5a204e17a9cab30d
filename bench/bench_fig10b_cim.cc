/**
 * @file
 * Figure 10(b): computation in memory on Dbase. Plain has the P-nodes
 * scan the tables; Opt offloads the scans to the home D-nodes, which
 * return only matching record pointers (Section 2.4).
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

int
main()
{
    banner("Figure 10(b): Dbase computation in memory (Plain vs Opt)",
           "the select offload cuts Dbase execution time by ~70% "
           "across P&D configurations");

    struct Combo
    {
        int p;
        int d;
    };
    const std::vector<Combo> combos =
        quick() ? std::vector<Combo>{{4, 4}, {8, 8}}
                : std::vector<Combo>{{8, 8}, {16, 16}, {28, 4}};

    // Plain and Opt per combination, each run on its own workload.
    std::vector<std::function<RunResult()>> jobs;
    for (const auto &combo : combos) {
        BuildSpec spec;
        spec.arch = ArchKind::Agg;
        spec.threads = combo.p;
        spec.dNodes = combo.d;
        spec.pressure = 0.75;
        for (bool cim : {false, true}) {
            jobs.push_back([spec, cim] {
                return runWorkload(DbaseWorkload(1, cim), spec);
            });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs);

    TablePrinter t({"config", "Plain Mcycles", "Opt Mcycles",
                    "Opt / Plain", "reduction"});
    std::vector<Bar> bars;
    std::size_t next = 0;
    for (const auto &combo : combos) {
        const RunResult &rp = results[next++];
        const RunResult &ro = results[next++];
        const double ratio =
            ro.totalTicks / static_cast<double>(rp.totalTicks);

        const std::string label = std::to_string(combo.p) + "&" +
                                  std::to_string(combo.d);
        t.addRow({label, TablePrinter::num(rp.totalTicks / 1e6),
                  TablePrinter::num(ro.totalTicks / 1e6),
                  TablePrinter::num(ratio),
                  TablePrinter::pct(1.0 - ratio)});
        bars.push_back({label + " Plain", timeSegments(rp, 1.0)});
        bars.push_back({label + " Opt", timeSegments(ro, ratio)});
    }

    printBars(std::cout,
              "Fig 10(b) — Dbase Plain vs Opt (per config, Plain = "
              "1.0)",
              {"Memory", "Processor"}, bars);
    t.print(std::cout);
    return 0;
}
