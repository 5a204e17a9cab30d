/**
 * @file
 * Fault campaign: sweep the fault domains over the paper workloads on
 * AGG — lossy mesh, mid-run D-node and P-node fail-stop deaths, a
 * permanent link death (detour routing), and a timed partition that
 * heals (blocked messages queue and drain) — reporting completion,
 * retry work, and slowdown versus the fault-free run. Also
 * demonstrates the watchdog: a 100% loss plan ends in a structured
 * diagnostic panic, not a hang, and the stuck-transaction list is
 * serialized into the failure row.
 *
 * Emits BENCH_faults.json (one row per scenario) next to the table.
 */

#include "bench_util.hh"

#include <sstream>

#include "proto/stuck.hh"
#include "report/json.hh"
#include "sim/log.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

struct Scenario
{
    std::string app;
    /** clean | drop | dnode_death | pnode_death | link_death |
     *  partition | wedge */
    std::string kind;
    double drop = 0.0;
    bool completed = false;
    std::string failure;
    /** Structured watchdog capture (failure rows only). */
    std::vector<StuckTxn> stuck;
    std::size_t partitionBlocked = 0;
    RunResult result;
};

Scenario
runScenario(const std::string &app, const std::string &kind,
            double drop, Tick fault_tick)
{
    Scenario s;
    s.app = app;
    s.kind = kind;
    s.drop = drop;

    auto wl = makeWorkload(app, 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = quick() ? 4 : 8;
    spec.pressure = 0.25;
    spec.dRatio = 2; // >= 2 D-nodes, so one can die
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.seed = 0x5eedull;
    if (kind == "drop" || kind == "wedge") {
        cfg.faults.setUniformDropRate(drop);
    } else if (kind == "dnode_death") {
        cfg.faults.schedule.push_back(
            {.domain = FaultDomain::DNodeDeath,
             .tick = fault_tick,
             .node = static_cast<NodeId>(cfg.numPNodes)});
    } else if (kind == "pnode_death") {
        cfg.faults.schedule.push_back(
            {.domain = FaultDomain::PNodeDeath, .tick = fault_tick, .node = 1});
    } else if (kind == "link_death") {
        // One permanent east-link death in the corner: the mesh stays
        // connected and every affected route detours.
        cfg.faults.schedule.push_back({.domain = FaultDomain::LinkDeath,
                                       .tick = fault_tick,
                                       .links = {LinkRef{0, 0, 0}}});
    } else if (kind == "partition") {
        // Full vertical cut between columns 0 and 1; heals after an
        // equal interval, so queued messages drain and the run
        // completes.
        ScheduledFault part{.domain = FaultDomain::Partition,
                            .tick = fault_tick,
                            .healTick = fault_tick * 2};
        for (int y = 0; y < cfg.net.meshY; ++y)
            part.links.push_back(LinkRef{0, y, 0});
        cfg.faults.schedule.push_back(part);
    }
    cfg.validate();

    try {
        s.result = runWorkload(cfg, *wl);
        s.completed = true;
    } catch (const WatchdogError &e) {
        // Keep the first line as the headline and the structured
        // stuck list as evidence.
        std::string what = e.what();
        s.failure = what.substr(0, what.find('\n'));
        s.stuck = e.stuck;
        s.partitionBlocked = e.partitionBlocked;
    } catch (const PanicError &e) {
        std::string what = e.what();
        s.failure = what.substr(0, what.find('\n'));
    }
    return s;
}

} // namespace

int
main()
{
    banner("Fault campaign: fault domains on AGG",
           "retries recover <=5% loss; dead D-/P-nodes fail over onto "
           "survivors; a dead link detours; a healed partition drains; "
           "total loss trips the structured watchdog");

    const std::vector<std::string> apps = benchApps();
    const std::vector<double> drops = {0.0, 0.01, 0.05};

    // Batch 1: every app's clean and lossy runs.
    std::vector<std::function<Scenario()>> jobs;
    for (const std::string &app : apps) {
        for (double drop : drops) {
            jobs.push_back([app, drop] {
                return runScenario(app, drop == 0.0 ? "clean" : "drop",
                                   drop, 0);
            });
        }
    }
    const std::vector<Scenario> lossy = runPoints(jobs);

    // Batch 2: structural campaigns, anchored to the clean run's
    // schedule: deaths halfway in, the partition cut over the middle
    // third. Last, the watchdog demonstration: nothing gets through,
    // the machine must diagnose rather than hang.
    struct Structural
    {
        const char *kind;
        Tick divisor;
    };
    constexpr Structural kStructural[] = {{"dnode_death", 2},
                                          {"pnode_death", 2},
                                          {"link_death", 2},
                                          {"partition", 3}};
    jobs.clear();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const Tick clean_ticks =
            lossy[a * drops.size()].result.totalTicks;
        for (const Structural &st : kStructural) {
            jobs.push_back([app = apps[a], st, clean_ticks] {
                return runScenario(app, st.kind, 0.0,
                                   clean_ticks / st.divisor);
            });
        }
    }
    jobs.push_back(
        [app = apps.front()] { return runScenario(app, "wedge", 1.0, 0); });
    const std::vector<Scenario> structural = runPoints(jobs);

    // Rows per app (lossy, then structural), then the wedge.
    std::vector<Scenario> rows;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const auto l = lossy.begin() + a * drops.size();
        rows.insert(rows.end(), l, l + drops.size());
        const auto st = structural.begin() + a * std::size(kStructural);
        rows.insert(rows.end(), st, st + std::size(kStructural));
    }
    rows.push_back(structural.back());

    TablePrinter t({"app", "scenario", "completed", "Mcycles",
                    "slowdown", "retries", "blocked", "failover"});
    std::map<std::string, double> clean;
    for (const Scenario &s : rows) {
        if (s.kind == "clean" && s.completed)
            clean[s.app] = static_cast<double>(s.result.totalTicks);
        const double base = clean.count(s.app) ? clean[s.app] : 0.0;
        const Tick fo_ticks =
            s.result.failoverTicks + s.result.pnodeFailoverTicks;
        t.addRow({s.app,
                  s.kind == "drop"
                      ? "drop " + TablePrinter::num(s.drop)
                      : s.kind,
                  s.completed ? "yes" : s.failure.substr(0, 24),
                  s.completed
                      ? TablePrinter::num(s.result.totalTicks / 1e6)
                      : "-",
                  s.completed && base > 0
                      ? TablePrinter::num(s.result.totalTicks / base)
                      : "-",
                  TablePrinter::num(s.result.counter("fault.retries")),
                  TablePrinter::num(
                      s.result.counter("fault.net.partition_blocked")),
                  s.completed && fo_ticks > 0
                      ? TablePrinter::num(fo_ticks / 1e6) + " Mcyc"
                      : "-"});
    }
    t.print(std::cout);

    std::ostringstream js;
    JsonWriter w(js);
    w.beginArray();
    for (const Scenario &s : rows) {
        const double base = clean.count(s.app) ? clean[s.app] : 0.0;
        w.beginObject(JsonLayout::Inline)
            .field("app", s.app)
            .field("scenario", s.kind)
            .field("drop_rate", s.drop)
            .field("completed", s.completed);
        if (s.completed) {
            w.field("total_ticks", s.result.totalTicks)
                .field("slowdown",
                       base > 0 ? s.result.totalTicks / base : 1.0)
                .field("retries", s.result.counter("fault.retries"))
                .field("net_drops", s.result.counter("fault.net.drop"))
                .field("link_deaths",
                       s.result.counter("fault.net.link_deaths"))
                .field("partition_blocked",
                       s.result.counter("fault.net.partition_blocked"))
                .field("failovers", s.result.counter("fault.failovers"))
                .field("failover_ticks", s.result.failoverTicks)
                .field("pnode_failovers",
                       s.result.counter("fault.pnode_failovers"))
                .field("pnode_failover_ticks",
                       s.result.pnodeFailoverTicks);
        } else {
            w.field("failure", s.failure)
                .field("partition_blocked", s.partitionBlocked)
                .key("stuck")
                .beginArray(JsonLayout::Inline);
            for (const StuckTxn &t : s.stuck) {
                w.beginObject(JsonLayout::Inline)
                    .field("kind", t.kind)
                    .field("node", t.node)
                    .field("line", t.line)
                    .field("state", t.state)
                    .field("retries", t.retries)
                    .field("acks_expected", t.acksExpected)
                    .field("acks_received", t.acksReceived)
                    .field("issue_tick", t.issueTick)
                    .field("last_progress_tick", t.lastProgressTick)
                    .end();
            }
            w.end();
        }
        w.end();
    }
    w.end();
    if (!writeFile("BENCH_faults.json", js.str())) {
        std::cerr << "bench_faults: cannot write BENCH_faults.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_faults.json (" << rows.size()
              << " scenarios)\n";
    return 0;
}
