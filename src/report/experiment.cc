#include "report/experiment.hh"

#include <algorithm>
#include <iostream>
#include <memory>

#include "core/processor.hh"
#include "core/sync.hh"
#include "machine/machine.hh"
#include "machine/reconfig.hh"
#include "proto/stuck.hh"
#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/** One action of the fault schedule. A link death or partition acts
 *  per link, and a partition adds a heal action per cut link. */
struct FaultStep
{
    Tick tick = 0;
    const ScheduledFault *fault = nullptr;
    LinkRef link{};
    bool heal = false;
};

/** The schedule's actions, tick-sorted (ties keep schedule order). */
std::vector<FaultStep>
faultSteps(const std::vector<ScheduledFault> &schedule)
{
    std::vector<FaultStep> steps;
    for (const ScheduledFault &f : schedule) {
        if (f.links.empty())
            steps.push_back({f.tick, &f, {}, false});
        for (const LinkRef &l : f.links) {
            steps.push_back({f.tick, &f, l, false});
            if (f.domain == FaultDomain::Partition)
                steps.push_back({f.healTick, &f, l, true});
        }
    }
    std::stable_sort(steps.begin(), steps.end(),
                     [](const FaultStep &a, const FaultStep &b) {
                         return a.tick < b.tick;
                     });
    return steps;
}

} // namespace

RunResult
runWorkload(MachineConfig cfg, const Workload &wl, const RunOptions &opts)
{
    cfg.l1.sizeBytes = wl.l1Bytes();
    cfg.l2.sizeBytes = wl.l2Bytes();

    Machine m(cfg);
    SyncManager sync(static_cast<int>(m.computeNodes().size()));

    RunResult result;

    // Scheduled faults, fired from the driver (not from pre-armed
    // events: the trailing per-phase drain must observe the same queue
    // a fault-free run does), in tick order.
    const std::vector<FaultStep> fault_steps =
        faultSteps(cfg.faults.schedule);
    std::size_t step_idx = 0;

    // The phase loop parks its live processors here so a P-node death
    // can abort the thread running on the dead chip.
    std::vector<std::unique_ptr<Processor>> *cur_procs = nullptr;
    const std::vector<NodeId> *cur_ids = nullptr;

    auto fire_event = [&](const FaultStep &ev) {
        switch (ev.fault->domain) {
          case FaultDomain::Rates:
            return; // never scheduled (MachineConfig::validate)
          case FaultDomain::DNodeDeath:
            {
                const NodeId n = ev.fault->node;
                if (n < 0 || n >= m.totalNodes() || m.isDead(n) ||
                    m.role(n) != NodeRole::Directory) {
                    warn("scheduled death skipped: node " +
                         std::to_string(n) + " is not a live D-node");
                    m.stats().add("fault.deaths_skipped");
                    return;
                }
                const FailoverResult fr = failOverDNode(m, n);
                result.failoverTicks += fr.cost;
                return;
            }
          case FaultDomain::PNodeDeath:
            {
                const NodeId n = ev.fault->node;
                if (n < 0 || n >= m.totalNodes() || m.isDead(n) ||
                    m.role(n) != NodeRole::Compute || !m.compute(n) ||
                    m.computeNodes().size() <= 1) {
                    warn("scheduled P-node death skipped: node " +
                         std::to_string(n) +
                         " is not a live, non-last P-node");
                    m.stats().add("fault.deaths_skipped");
                    return;
                }
                const PNodeFailoverResult fr = failOverPNode(m, n);
                result.pnodeFailoverTicks += fr.cost;
                // Shrink the sync population (releases a barrier the
                // death completed, breaks a dead-held lock) and abort
                // the thread so the phase's done-count converges.
                sync.threadDied(m.compute(n));
                if (cur_procs) {
                    for (std::size_t t = 0; t < cur_ids->size(); ++t) {
                        if ((*cur_ids)[t] == n)
                            (*cur_procs)[t]->abort();
                    }
                }
                return;
            }
          case FaultDomain::LinkDeath:
          case FaultDomain::Partition:
            m.mesh().setLinkAlive(ev.link.x, ev.link.y, ev.link.dir,
                                  ev.heal);
            return;
        }
    };
    auto fire_due_events = [&] {
        while (step_idx < fault_steps.size() &&
               m.eq().curTick() >= fault_steps[step_idx].tick) {
            fire_event(fault_steps[step_idx++]);
        }
    };

    // Per-phase D-node engine busy snapshot for the auto policy.
    auto dnode_busy = [&m] {
        Tick busy = 0;
        for (NodeId d : m.directoryNodes())
            busy += m.home(d)->engine().busyTicks();
        return busy;
    };

    for (int phase = 0; phase < wl.numPhases(); ++phase) {
        // Apply any reconfiguration scheduled before this phase.
        for (const auto &step : opts.reconfig) {
            if (step.beforePhase != phase)
                continue;
            const ReconfigResult rr =
                applyReconfig(m, step.newPNodes, step.newDNodes);
            m.eq().runUntil(m.eq().curTick() + rr.cost);
            result.reconfigTicks += rr.cost;
        }

        const auto compute_ids = m.computeNodes();
        const int threads = static_cast<int>(compute_ids.size());
        sync.setNumThreads(threads);
        const Tick busy_at_start = dnode_busy();
        const int dnodes_now =
            static_cast<int>(m.directoryNodes().size());

        std::vector<std::unique_ptr<Processor>> procs;
        procs.reserve(threads);
        int done = 0;
        for (int t = 0; t < threads; ++t) {
            procs.push_back(std::make_unique<Processor>(
                m.eq(), *m.compute(compute_ids[t]), sync, t, cfg.proc));
        }
        for (int t = 0; t < threads; ++t) {
            procs[t]->run(wl.makeStream(phase, t, threads),
                          [&done] { ++done; });
        }
        cur_procs = &procs;
        cur_ids = &compute_ids;

        PhaseResult pr;
        pr.name = wl.phaseName(phase);
        pr.startTick = m.eq().curTick();

        auto throw_watchdog = [&] {
            m.dumpState(std::cerr);
            for (int t = 0; t < threads; ++t) {
                if (!procs[t]->finished())
                    std::cerr << "thread " << t << " unfinished\n";
            }
            if (m.mesh().partitionBlocked() > 0) {
                // Distinct from a protocol stall: the work is queued
                // against a partition that never heals.
                throw WatchdogError(
                    "watchdog: phase '" + pr.name +
                        "' blocked on an unhealed partition:\n" +
                        m.stuckDiagnostic(),
                    m.collectStuck(), m.mesh().partitionBlocked());
            }
            throw WatchdogError("watchdog: phase '" + pr.name +
                                    "' stalled with work outstanding:\n" +
                                    m.stuckDiagnostic(),
                                m.collectStuck(), 0);
        };

        std::uint64_t events = 0;
        while (done < threads) {
            if (!m.eq().runOne()) {
                // The queue can legitimately drain early when the only
                // future work is a scheduled fault event (a failover
                // or a partition heal may revive retries): advance the
                // clock to it and fire.
                if (step_idx < fault_steps.size()) {
                    const Tick ft = fault_steps[step_idx].tick;
                    if (ft > m.eq().curTick())
                        m.eq().runUntil(ft);
                    fire_event(fault_steps[step_idx++]);
                    continue;
                }
                throw_watchdog();
            }
            fire_due_events();
            if (++events > opts.maxEventsPerPhase)
                panic("phase '" + pr.name + "' exceeded event budget");
        }
        // Drain trailing protocol activity (acks, writebacks). If the
        // drain wedges behind an unhealed partition, fast-forward to
        // the next scheduled fault event (the heal frees the queue).
        while (true) {
            if (m.eq().runOne()) {
                fire_due_events();
                continue;
            }
            if (m.mesh().partitionBlocked() > 0 &&
                step_idx < fault_steps.size()) {
                const Tick ft = fault_steps[step_idx].tick;
                if (ft > m.eq().curTick())
                    m.eq().runUntil(ft);
                fire_event(fault_steps[step_idx++]);
                continue;
            }
            break;
        }
        cur_procs = nullptr;
        cur_ids = nullptr;

        pr.endTick = m.eq().curTick();
        for (auto &p : procs) {
            pr.time += p->time();
            result.instructions += p->instructions();
        }
        result.time += pr.time;
        result.phases.push_back(pr);

        if (opts.checkInvariants)
            m.checkInvariants();

        // OS-initiated resizing: keep the projected D-node
        // utilization near the target (Section 2.3's tuning hint).
        if (opts.autoReconfig && cfg.arch == ArchKind::Agg &&
            cfg.reconfigurable && phase + 1 < wl.numPhases() &&
            pr.duration() > 0 && dnodes_now > 0) {
            const double util =
                static_cast<double>(dnode_busy() - busy_at_start) /
                (static_cast<double>(pr.duration()) * dnodes_now);
            int want = static_cast<int>(
                dnodes_now * util / opts.autoReconfigTarget + 0.999);
            const int total = m.totalNodes();
            if (want < 1)
                want = 1;
            if (want > total / 2)
                want = total / 2;
            if (want != dnodes_now) {
                const ReconfigResult rr =
                    applyReconfig(m, total - want, want);
                m.eq().runUntil(m.eq().curTick() + rr.cost);
                result.reconfigTicks += rr.cost;
                ++result.autoReconfigs;
            }
        }
    }

    if (step_idx < fault_steps.size()) {
        warn("scheduled fault events never fired (workload finished "
             "first)");
        m.stats().add(
            "fault.events_unfired",
            static_cast<double>(fault_steps.size() - step_idx));
    }

    result.totalTicks = m.eq().curTick();
    result.reads = m.aggregateReadStats();
    result.census = m.collectCensus();
    result.messages = m.messagesSent();
    result.counters = m.stats().all();
    result.failovers = static_cast<int>(result.counter("fault.failovers"));
    result.pnodeFailovers =
        static_cast<int>(result.counter("fault.pnode_failovers"));

    // Contention summary: ticks transactions spent queued behind busy
    // resources (mesh links, home protocol engines).
    result.counters["net.link_wait_ticks"] =
        static_cast<double>(m.mesh().totalLinkWait());
    double engine_wait = 0;
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        if (m.home(n))
            engine_wait +=
                static_cast<double>(m.home(n)->engine().waitTicks());
    }
    result.counters["home.engine_wait_ticks"] = engine_wait;
    result.counters["sim.events_executed"] =
        static_cast<double>(m.eq().executed());

    const auto dnodes = m.directoryNodes();
    if (!dnodes.empty() && result.totalTicks > 0) {
        double sum = 0;
        for (NodeId d : dnodes) {
            sum += static_cast<double>(m.home(d)->engine().busyTicks()) /
                   static_cast<double>(result.totalTicks);
        }
        result.dNodeUtilization = sum / static_cast<double>(
                                            dnodes.size());
    }
    return result;
}

RunResult
runWorkload(const Workload &wl, const BuildSpec &spec,
            const RunOptions &opts)
{
    return runWorkload(buildConfig(wl, spec), wl, opts);
}

} // namespace pimdsm
