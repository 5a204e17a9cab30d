/**
 * @file
 * Ablations of the AGG design choices that DESIGN.md calls out:
 *
 *  1. shared-master state (Section 2.2.2): with mastership handout
 *     disabled, home copies of shared lines are never reclaimable and
 *     the D-nodes must page instead.
 *  2. directory representation: the paper's 3-pointer limited vector
 *     vs a full bit map (broadcast invalidations on overflow).
 *  3. local-memory replacement: pseudo-random (default) vs strict LRU
 *     (pathological on cyclic sweeps).
 *  4. software handler cost: sweeping the Table 2 multiplier shows
 *     how sensitive AGG is to protocol-processing speed (the "custom
 *     protocol processor" question of Section 2.2.1).
 */

#include <functional>

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

/** One ablation point: @p app on AGG at 75% pressure with @p tweak
 *  applied to the built configuration. */
std::function<RunResult()>
point(const std::string &app, int threads,
      std::function<void(MachineConfig &)> tweak = {})
{
    return [app, threads, tweak] {
        auto wl = makeWorkload(app);
        BuildSpec spec;
        spec.arch = ArchKind::Agg;
        spec.threads = threads;
        spec.pressure = 0.75;
        MachineConfig cfg = buildConfig(*wl, spec);
        if (tweak)
            tweak(cfg);
        return runWorkload(cfg, *wl);
    };
}

constexpr double kHandlerFactors[] = {0.7, 1.0, 1.5, 2.0};

} // namespace

int
main()
{
    const int threads = quick() ? 8 : 16;

    banner("Ablations of the AGG design choices",
           "each row isolates one mechanism the paper argues for");

    // Every row is an independent run. The default-config barnes run
    // is both section 1's "enabled" row and section 2's full bit map.
    std::vector<std::function<RunResult()>> jobs = {
        point("barnes", threads),
        point("barnes", threads,
              [](MachineConfig &c) { c.aggGrantsMastership = false; }),
        point("barnes", threads,
              [](MachineConfig &c) { c.directoryPointers = 3; }),
        point("ocean", threads),
        point("ocean", threads,
              [](MachineConfig &c) { c.mem.lruLocalMemory = true; }),
    };
    for (double f : kHandlerFactors) {
        jobs.push_back(point("radix", threads, [f](MachineConfig &c) {
            c.handlers.softwareFactor = f;
        }));
    }
    const std::vector<RunResult> results = runPoints(jobs);

    // ------------------------------------------------------ 1. master
    {
        const RunResult &on = results[0];
        const RunResult &off = results[1];
        TablePrinter t({"shared-master state", "Mcycles", "page-ins",
                        "SharedList reuses", "3-hop reads"});
        auto row = [&](const char *label, const RunResult &r) {
            t.addRow({label, TablePrinter::num(r.totalTicks / 1e6),
                      TablePrinter::num(r.counter("dnode.page_in"), 0),
                      TablePrinter::num(
                          r.counter("dnode.sharedlist_reuse"), 0),
                      TablePrinter::num(
                          r.reads.count[static_cast<int>(
                              ReadService::Hop3)] / 1e3, 1) + "k"});
        };
        row("enabled (paper)", on);
        row("disabled", off);
        std::cout << "1. shared-master / SharedList (barnes, 75% "
                     "pressure):\n";
        t.print(std::cout);
        std::cout << "\n";
    }

    // --------------------------------------------------- 2. directory
    {
        const RunResult &full = results[0];
        const RunResult &limited = results[2];
        TablePrinter t({"directory scheme", "Mcycles",
                        "invals sent", "broadcasts"});
        t.addRow({"full bit map", TablePrinter::num(full.totalTicks / 1e6),
                  TablePrinter::num(full.messages / 1e3, 0) + "k msgs",
                  TablePrinter::num(
                      full.counter("home.broadcast_invals"), 0)});
        t.addRow({"3-pointer limited (paper)",
                  TablePrinter::num(limited.totalTicks / 1e6),
                  TablePrinter::num(limited.messages / 1e3, 0) +
                      "k msgs",
                  TablePrinter::num(
                      limited.counter("home.broadcast_invals"), 0)});
        std::cout << "2. directory representation (barnes, widely "
                     "shared tree):\n";
        t.print(std::cout);
        std::cout << "\n";
    }

    // ------------------------------------------------- 3. replacement
    {
        const RunResult &rnd = results[3];
        const RunResult &lru = results[4];
        TablePrinter t({"local-memory replacement", "Mcycles",
                        "local-mem reads", "remote reads"});
        auto classes = [](const RunResult &r) {
            return std::make_pair(
                r.reads.count[static_cast<int>(ReadService::LocalMem)],
                r.reads.count[static_cast<int>(ReadService::Hop2)] +
                    r.reads.count[static_cast<int>(
                        ReadService::Hop3)]);
        };
        const auto [rl, rr] = classes(rnd);
        const auto [ll, lr] = classes(lru);
        t.addRow({"pseudo-random (default)",
                  TablePrinter::num(rnd.totalTicks / 1e6),
                  TablePrinter::num(rl / 1e3, 0) + "k",
                  TablePrinter::num(rr / 1e3, 0) + "k"});
        t.addRow({"strict LRU", TablePrinter::num(lru.totalTicks / 1e6),
                  TablePrinter::num(ll / 1e3, 0) + "k",
                  TablePrinter::num(lr / 1e3, 0) + "k"});
        std::cout << "3. tagged-memory replacement (ocean's cyclic "
                     "sweeps, 75% pressure):\n";
        t.print(std::cout);
        std::cout << "\n";
    }

    // ----------------------------------------------- 4. handler costs
    {
        TablePrinter t({"software handler cost", "Mcycles",
                        "vs Table 2"});
        double base = 0;
        for (std::size_t i = 0; i < std::size(kHandlerFactors); ++i) {
            const double f = kHandlerFactors[i];
            const RunResult &r = results[5 + i];
            if (f == 1.0)
                base = static_cast<double>(r.totalTicks);
            t.addRow({TablePrinter::num(f, 1) + "x",
                      TablePrinter::num(r.totalTicks / 1e6),
                      base > 0 ? TablePrinter::num(r.totalTicks / base)
                               : "-"});
        }
        std::cout << "4. protocol-processing speed (radix, "
                     "D-node-intensive; 0.7x ~= the paper's custom "
                     "hardware assumption):\n";
        t.print(std::cout);
    }
    return 0;
}
