/**
 * @file
 * Figure 9: execution time across the (P-node, D-node) design space,
 * per application, holding the problem size and the total D-node
 * memory fixed as nodes are added (AGG at 75% pressure, normalized to
 * the 2P & 2D configuration).
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

int
main()
{
    banner("Figure 9: execution time over the (P, D) design space",
           "optimum varies per app: Dbase high-P/high-D, Swim/Tomcatv "
           "high-P/low-D, Radix medium, others high-P/medium-D");

    const std::vector<int> p_counts =
        quick() ? std::vector<int>{2, 4, 8} :
                std::vector<int>{2, 4, 8, 16};
    const std::vector<int> d_counts =
        quick() ? std::vector<int>{1, 2, 4} :
                std::vector<int>{1, 2, 4, 8, 16};

    // Per app: the reference configuration, then the P x D grid, all
    // independent runs.
    const std::vector<std::string> apps = benchApps();
    std::vector<std::function<RunResult()>> jobs;
    for (const auto &app : apps) {
        auto wl = makeWorkload(app);

        // Reference configuration: 2 P-nodes, 2 D-nodes, AGG75. Its
        // per-P-node memory and total D memory stay fixed across the
        // design space (Section 4.2).
        BuildSpec ref;
        ref.arch = ArchKind::Agg;
        ref.threads = 2;
        ref.dNodes = 2;
        ref.pressure = 0.75;
        const MachineConfig ref_cfg = buildConfig(*wl, ref);
        const std::uint64_t p_mem = ref_cfg.pNodeMemBytes;
        const std::uint64_t total_d_mem = 2 * ref_cfg.dNodeMemBytes;

        std::vector<MachineConfig> cfgs = {ref_cfg};
        for (int p : p_counts) {
            for (int d : d_counts) {
                BuildSpec spec = ref;
                spec.threads = p;
                spec.dNodes = d;
                MachineConfig cfg = buildConfig(*wl, spec);
                cfg.pNodeMemBytes = p_mem;
                cfg.dNodeMemBytes =
                    ceilDiv(total_d_mem / d, cfg.pageBytes) *
                    cfg.pageBytes;
                cfgs.push_back(cfg);
            }
        }
        for (const MachineConfig &cfg : cfgs) {
            jobs.push_back(
                [app, cfg] { return runWorkload(cfg, *makeWorkload(app)); });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs);

    std::size_t next = 0;
    for (const auto &app : apps) {
        const double base =
            static_cast<double>(results[next++].totalTicks);

        std::vector<std::string> headers = {"P \\ D"};
        for (int d : d_counts)
            headers.push_back(std::to_string(d) + "D");
        TablePrinter t(std::move(headers));

        double best = 1e30, best_ce = 1e30;
        int best_p = 0, best_d = 0, ce_p = 0, ce_d = 0;
        for (int p : p_counts) {
            std::vector<std::string> row = {std::to_string(p) + "P"};
            for (int d : d_counts) {
                const RunResult &r = results[next++];
                const double norm = r.totalTicks / base;
                row.push_back(TablePrinter::num(norm));
                if (r.totalTicks < best) {
                    best = static_cast<double>(r.totalTicks);
                    best_p = p;
                    best_d = d;
                }
                // Cost-effectiveness: time x chips (the paper argues
                // per-application optima in these terms).
                const double ce = norm * (p + d);
                if (ce < best_ce) {
                    best_ce = ce;
                    ce_p = p;
                    ce_d = d;
                }
            }
            t.addRow(std::move(row));
        }
        std::cout << "Fig 9 — " << app
                  << " (execution time / 2P&2D time; lower is "
                     "better)\n";
        t.print(std::cout);
        std::cout << "fastest: " << best_p << "P & " << best_d
                  << "D; most cost-effective (time x chips): " << ce_p
                  << "P & " << ce_d << "D\n\n";
    }
    return 0;
}
