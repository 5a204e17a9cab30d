/**
 * @file
 * General-purpose command-line driver: run any workload on any
 * machine organization with every knob exposed, and emit either a
 * human-readable report or a CSV row (for scripting sweeps).
 *
 * Usage:
 *   pimdsm_run [options]
 *     --app NAME          fft|radix|ocean|barnes|swim|tomcatv|dbase
 *                         (default ocean); dbase-cim for the CIM variant
 *     --arch NAME         agg|coma|numa (default agg)
 *     --threads N         application threads / P-nodes (default 16)
 *     --dnodes N          explicit D-node count (AGG)
 *     --dratio N          AGG P:D ratio denominator (default 1)
 *     --pressure PCT      memory pressure percent (default 75)
 *     --scale N           problem-size multiplier (default 1)
 *     --pointers N        limited-pointer directory (0 = full map)
 *     --lru-localmem      strict-LRU tagged-memory replacement
 *     --no-master         disable the shared-master state (ablation)
 *     --sw-factor F       software handler cost multiplier
 *     --seed N            deterministic seed
 *     --check             run invariant checks after every phase
 *     --csv               one CSV row (with --csv-header for the header)
 *     --trace             print every coherence message to stderr
 *
 * Examples:
 *   pimdsm_run --app barnes --arch numa --threads 32 --pressure 25
 *   pimdsm_run --app dbase-cim --threads 16 --dnodes 16 --csv
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "report/experiment.hh"
#include "report/report.hh"
#include "sim/log.hh"
#include "workload/apps.hh"

using namespace pimdsm;

namespace
{

struct Options
{
    std::string app = "ocean";
    std::string arch = "agg";
    int threads = 16;
    int dnodes = 0;
    int dratio = 1;
    int pressure = 75;
    int scale = 1;
    int pointers = 0;
    bool lruLocalMem = false;
    bool noMaster = false;
    double swFactor = 1.0;
    std::uint64_t seed = 1;
    bool check = false;
    bool csv = false;
    bool csvHeader = false;
    bool trace = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--app NAME] [--arch agg|coma|numa] [--threads N]\n"
                 "  [--dnodes N] [--dratio N] [--pressure PCT]"
                 " [--scale N]\n"
                 "  [--pointers N] [--lru-localmem] [--no-master]"
                 " [--sw-factor F]\n"
                 "  [--seed N] [--check] [--csv] [--csv-header]"
                 " [--trace]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (++i >= argc)
            usage(argv[0]);
        return argv[i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--app")
            o.app = need(i);
        else if (a == "--arch")
            o.arch = need(i);
        else if (a == "--threads")
            o.threads = std::atoi(need(i));
        else if (a == "--dnodes")
            o.dnodes = std::atoi(need(i));
        else if (a == "--dratio")
            o.dratio = std::atoi(need(i));
        else if (a == "--pressure")
            o.pressure = std::atoi(need(i));
        else if (a == "--scale")
            o.scale = std::atoi(need(i));
        else if (a == "--pointers")
            o.pointers = std::atoi(need(i));
        else if (a == "--lru-localmem")
            o.lruLocalMem = true;
        else if (a == "--no-master")
            o.noMaster = true;
        else if (a == "--sw-factor")
            o.swFactor = std::atof(need(i));
        else if (a == "--seed")
            o.seed = std::strtoull(need(i), nullptr, 10);
        else if (a == "--check")
            o.check = true;
        else if (a == "--csv")
            o.csv = true;
        else if (a == "--csv-header")
            o.csvHeader = true;
        else if (a == "--trace")
            o.trace = true;
        else
            usage(argv[0]);
    }
    return o;
}

void
printCsvHeader()
{
    std::cout << "app,arch,threads,dnodes,pressure,scale,total_cycles,"
                 "memory_frac,busy,sync,mem_stall,reads,flc,slc,"
                 "localmem,hop2,hop3,messages,dnode_util,instructions"
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (o.csvHeader) {
        printCsvHeader();
        if (argc == 2)
            return 0;
    }
    if (o.trace)
        Trace::enable();

    try {
        std::unique_ptr<Workload> wl;
        if (o.app == "dbase-cim")
            wl = std::make_unique<DbaseWorkload>(o.scale, true);
        else
            wl = makeWorkload(o.app, o.scale);

        BuildSpec spec;
        spec.arch = o.arch == "numa"   ? ArchKind::Numa
                    : o.arch == "coma" ? ArchKind::Coma
                    : o.arch == "agg"
                        ? ArchKind::Agg
                        : throw FatalError("unknown arch " + o.arch);
        spec.threads = o.threads;
        spec.dNodes = o.dnodes;
        spec.dRatio = o.dratio;
        spec.pressure = o.pressure / 100.0;

        MachineConfig cfg = buildConfig(*wl, spec);
        cfg.directoryPointers = o.pointers;
        cfg.mem.lruLocalMemory = o.lruLocalMem;
        cfg.aggGrantsMastership = !o.noMaster;
        cfg.handlers.softwareFactor = o.swFactor;
        cfg.seed = o.seed;

        RunOptions opts;
        opts.checkInvariants = o.check;
        const RunResult r = runWorkload(cfg, *wl, opts);

        if (o.csv) {
            const auto &c = r.reads.count;
            std::cout << wl->name() << "," << o.arch << ","
                      << o.threads << "," << cfg.numDNodes << ","
                      << o.pressure << "," << o.scale << ","
                      << r.totalTicks << "," << r.memoryFraction()
                      << "," << r.time.busy << "," << r.time.sync
                      << "," << r.time.memoryStall << ","
                      << r.reads.totalAllCount() << "," << c[0] << ","
                      << c[1] << "," << c[2] << "," << c[3] << ","
                      << c[4] << "," << r.messages << ","
                      << r.dNodeUtilization << "," << r.instructions
                      << "\n";
            return 0;
        }

        std::cout << wl->name() << " on " << archName(spec.arch)
                  << ": " << o.threads << " threads";
        if (spec.arch == ArchKind::Agg)
            std::cout << ", " << cfg.numDNodes << " D-nodes";
        std::cout << ", " << o.pressure << "% pressure\n\n";

        TablePrinter t({"metric", "value"});
        t.addRow({"execution time",
                  TablePrinter::num(r.totalTicks / 1e6) + " Mcycles"});
        t.addRow({"memory time",
                  TablePrinter::pct(r.memoryFraction())});
        t.addRow({"instructions",
                  TablePrinter::num(r.instructions / 1e6) + " M"});
        t.addRow({"messages",
                  TablePrinter::num(r.messages / 1e3, 0) + " k"});
        t.addRow({"D-node utilization",
                  TablePrinter::pct(r.dNodeUtilization)});
        const auto &c = r.reads.count;
        const double total =
            static_cast<double>(r.reads.totalAllCount());
        for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
            t.addRow({std::string("reads: ") +
                          readServiceName(static_cast<ReadService>(i)),
                      TablePrinter::pct(total ? c[i] / total : 0)});
        }
        t.print(std::cout);

        std::cout << "\nper-phase:\n";
        TablePrinter pt({"phase", "Mcycles", "memory frac"});
        for (const auto &p : r.phases) {
            const double ptotal =
                static_cast<double>(p.time.total());
            pt.addRow({p.name,
                       TablePrinter::num(p.duration() / 1e6),
                       TablePrinter::pct(
                           ptotal > 0 ? p.time.memoryStall / ptotal
                                      : 0)});
        }
        pt.print(std::cout);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
