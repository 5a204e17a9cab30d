/**
 * @file
 * Figure 10(a): static vs dynamic reconfiguration on Dbase. The hash
 * phase runs best with many D-nodes (16&16), the join phase with many
 * P-nodes (28&4); dynamic reconfiguration between the phases captures
 * both at the cost of the modeled Reconf overhead.
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

RunResult
runConfig(int p, int d, int fat_d, const RunOptions &opts)
{
    const DbaseWorkload wl(1, false);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = p;
    spec.dNodes = d;
    spec.pressure = 0.75;
    spec.reconfigurable = true;
    MachineConfig cfg = buildConfig(wl, spec);
    // The machine is built from "fatter" nodes (Section 2.3): every
    // node carries enough DRAM that even the join-friendly partition
    // (fat_d D-nodes) can back the footprint. When more nodes act as
    // D-nodes, part of that memory goes unused.
    const std::uint64_t total_d =
        static_cast<std::uint64_t>(wl.footprintBytes() / 0.75) / 2;
    cfg.dNodeMemBytes =
        ceilDiv(total_d / fat_d, cfg.pageBytes) * cfg.pageBytes;
    return runWorkload(cfg, wl, opts);
}

} // namespace

int
main()
{
    banner("Figure 10(a): Dbase static vs dynamic reconfiguration",
           "dynamic (16&16 hash -> 28&4 join) beats the best static "
           "configuration by ~14%");

    const int total = quick() ? 16 : 32;
    const int hash_p = total / 2;           // 16&16 (8&8 quick)
    const int join_p = total - total / 8;   // 28&4  (14&2 quick)

    const int fat_d = total - join_p;
    RunOptions dyn_opts;
    // Dbase phases: 0 init, 1 hash, 2 join. Reconfigure before join.
    dyn_opts.reconfig.push_back(ReconfigStep{2, join_p, fat_d});
    // Extension: the OS-initiated policy that resizes on observed
    // D-node utilization instead of an explicit plan (Section 2.3).
    RunOptions auto_opts;
    auto_opts.autoReconfig = true;

    const int hash_d = total - hash_p;
    const std::vector<RunResult> runs = runPoints<RunResult>({
        [=] { return runConfig(hash_p, hash_d, fat_d, {}); },
        [=] { return runConfig(join_p, fat_d, fat_d, {}); },
        [=] { return runConfig(hash_p, hash_d, fat_d, dyn_opts); },
        [=] { return runConfig(hash_p, hash_d, fat_d, auto_opts); },
    });
    const RunResult &static_hash = runs[0];
    const RunResult &static_join = runs[1];
    const RunResult &dynamic = runs[2];
    const RunResult &autodyn = runs[3];

    const double base = static_cast<double>(static_hash.totalTicks);
    auto bar = [&](const std::string &label, const RunResult &r,
                   Tick reconf) {
        const double norm = r.totalTicks / base;
        auto segs = timeSegments(r, norm - reconf / base);
        segs.push_back(reconf / base);
        return Bar{label, segs};
    };

    std::vector<Bar> bars;
    bars.push_back(bar(std::to_string(hash_p) + "&" +
                           std::to_string(total - hash_p) + " static",
                       static_hash, 0));
    bars.push_back(bar(std::to_string(join_p) + "&" +
                           std::to_string(total - join_p) + " static",
                       static_join, 0));
    bars.push_back(bar("dynamic", dynamic, dynamic.reconfigTicks));
    bars.push_back(bar("auto (OS policy)", autodyn,
                       autodyn.reconfigTicks));
    printBars(std::cout, "Fig 10(a) — Dbase (vs 16&16 static = 1.0)",
              {"Memory", "Processor", "Reconf"}, bars);

    TablePrinter t({"config", "total Mcycles", "vs best static",
                    "reconfig overhead"});
    const double best_static = static_cast<double>(
        std::min(static_hash.totalTicks, static_join.totalTicks));
    auto row = [&](const std::string &label, const RunResult &r) {
        t.addRow({label, TablePrinter::num(r.totalTicks / 1e6),
                  TablePrinter::num(r.totalTicks / best_static),
                  TablePrinter::num(r.reconfigTicks / 1e6)});
    };
    row("static hash-friendly", static_hash);
    row("static join-friendly", static_join);
    row("dynamic", dynamic);
    row("auto (OS policy)", autodyn);
    t.print(std::cout);
    std::cout << "auto policy reconfigured " << autodyn.autoReconfigs
              << " time(s)\n";

    std::cout << "\nper-phase durations (Mcycles):\n";
    TablePrinter pt({"config", "init", "hash", "join"});
    auto prow = [&](const std::string &label, const RunResult &r) {
        std::vector<std::string> cells = {label};
        for (const auto &p : r.phases)
            cells.push_back(TablePrinter::num(p.duration() / 1e6));
        pt.addRow(cells);
    };
    prow("static hash-friendly", static_hash);
    prow("static join-friendly", static_join);
    prow("dynamic", dynamic);
    prow("auto (OS policy)", autodyn);
    pt.print(std::cout);

    std::cout << "\nD-node utilization: hash-friendly "
              << TablePrinter::pct(static_hash.dNodeUtilization)
              << ", join-friendly "
              << TablePrinter::pct(static_join.dNodeUtilization)
              << ", dynamic "
              << TablePrinter::pct(dynamic.dNodeUtilization) << "\n";
    if (std::getenv("PIMDSM_VERBOSE")) {
        std::cout << "join-friendly counters:\n";
        for (const auto &[k, v] : static_join.counters)
            std::cout << "  " << k << " = " << v << "\n";
    }
    return 0;
}
