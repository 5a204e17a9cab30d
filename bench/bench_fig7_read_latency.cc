/**
 * @file
 * Figure 7: aggregated read latency (sum over all reads, whether or
 * not the processor stalled), decomposed into FLC / SLC / Memory /
 * 2Hop / 3Hop service levels, normalized to NUMA.
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

std::vector<double>
latencySegments(const RunResult &r, double scale)
{
    std::vector<double> segs;
    for (int i = 0; i < ReadLatencyStats::kNum; ++i)
        segs.push_back(r.reads.totalLatency[i] * scale);
    return segs;
}

} // namespace

int
main()
{
    banner("Figure 7: aggregated read latency by service level",
           "AGG/COMA convert NUMA's 2Hop time into Memory time; COMA "
           "shows more 3Hop than AGG (home displacements)");

    const int threads = paperThreads();
    const std::vector<std::string> apps = benchApps();

    // Four independent points per app: NUMA, COMA, 1/1 AGG and
    // reduced-ratio AGG, all at 75% pressure.
    std::vector<std::function<RunResult()>> jobs;
    for (const auto &app : apps) {
        const int red = reducedDRatio(app);
        for (const auto &[arch, ratio] :
             {std::pair{ArchKind::Numa, 1}, std::pair{ArchKind::Coma, 1},
              std::pair{ArchKind::Agg, 1}, std::pair{ArchKind::Agg, red}}) {
            jobs.push_back([app, arch, ratio, threads] {
                return run(*makeWorkload(app), arch, threads, 0.75, ratio);
            });
        }
    }
    const std::vector<RunResult> results = runPoints(jobs);

    std::size_t next = 0;
    for (const auto &app : apps) {
        const std::vector<std::string> labels = {
            "NUMA", "COMA75", "1/1AGG75",
            "1/" + std::to_string(reducedDRatio(app)) + "AGG75"};
        std::vector<NamedRun> runs;
        for (const auto &label : labels)
            runs.push_back({label, results[next++]});
        const double base =
            static_cast<double>(runs[0].result.reads.totalAllLatency());

        std::vector<Bar> bars;
        for (const auto &nr : runs)
            bars.push_back(
                {nr.label, latencySegments(nr.result, 1.0 / base)});
        printBars(std::cout,
                  "Fig 7 — " + app + " (total read latency vs NUMA)",
                  {"FLC", "SLC", "Memory", "2Hop", "3Hop"}, bars);

        TablePrinter t({"config", "FLC", "SLC", "Memory", "2Hop",
                        "3Hop", "reads"});
        for (const auto &nr : runs) {
            std::vector<std::string> row = {nr.label};
            for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
                row.push_back(TablePrinter::pct(
                    nr.result.reads.totalLatency[i] /
                    static_cast<double>(
                        nr.result.reads.totalAllLatency())));
            }
            row.push_back(TablePrinter::num(
                nr.result.reads.totalAllCount() / 1e3, 0) + "k");
            t.addRow(row);
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
