/**
 * @file
 * Structural fault domains (PR "chaos" layer): config validation for
 * link deaths, timed partitions and P-node deaths; detour routing and
 * delivery semantics around dead links; partition queueing/drain on
 * heal; duplicate Acks across a heal; P-node failover salvage; and the
 * structured watchdog report.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "machine/reconfig.hh"
#include "net/mesh.hh"
#include "proto/compute_base.hh"
#include "proto/stuck.hh"
#include "report/experiment.hh"
#include "sim/log.hh"
#include "workload/workload.hh"

namespace pimdsm
{
namespace
{

NetParams
testNet()
{
    NetParams p;
    p.meshX = 4;
    p.meshY = 4;
    p.linkBytesPerTick = 2;
    p.routerLatency = 4;
    p.wireLatency = 1;
    p.niLatency = 8;
    p.headerBytes = 16;
    return p;
}

// ---------------------------------------------------------- validation

/** A valid 4+4-node AGG machine on a 4x4 mesh to hang schedules on. */
MachineConfig
scheduleCfg()
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 4;
    cfg.numThreads = 4;
    cfg.numDNodes = 4;
    cfg.net.meshX = 4;
    cfg.net.meshY = 4;
    return cfg;
}

/** The message validate() rejects @p cfg with ("" if it passes). */
std::string
rejection(const MachineConfig &cfg)
{
    try {
        cfg.validate();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

ScheduledFault
partition(Tick tick, Tick heal, std::vector<LinkRef> cut)
{
    return {.domain = FaultDomain::Partition,
            .tick = tick,
            .links = std::move(cut),
            .healTick = heal};
}

ScheduledFault
linkDeath(Tick tick, LinkRef link)
{
    return {.domain = FaultDomain::LinkDeath,
            .tick = tick,
            .links = {link}};
}

TEST(FaultDomainConfig, NeverHealingPartitionIsRejected)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(partition(1000, 0, {LinkRef{0, 0, 0}}));
    EXPECT_NE(rejection(cfg).find("partition never heals"),
              std::string::npos);
}

TEST(FaultDomainConfig, HealBeforeCutIsRejected)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        partition(1000, 900, {LinkRef{0, 0, 0}}));
    EXPECT_NE(rejection(cfg).find("partition must heal after it forms"),
              std::string::npos);
}

TEST(FaultDomainConfig, EmptyCutIsRejected)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(partition(1000, 2000, {}));
    EXPECT_NE(rejection(cfg).find("partition cuts no link"),
              std::string::npos);
}

TEST(FaultDomainConfig, HealedPartitionPasses)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        partition(1000, 2000, {LinkRef{0, 0, 0}}));
    EXPECT_EQ(rejection(cfg), "");
    EXPECT_TRUE(cfg.faults.enabled());
}

TEST(FaultDomainConfig, BadLinkDirectionIsRejected)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(linkDeath(1000, LinkRef{0, 0, 4}));
    EXPECT_NE(
        rejection(cfg).find("link death direction must be in [0, 3]"),
        std::string::npos);
    cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        partition(1000, 2000, {LinkRef{0, -1, 0}}));
    EXPECT_NE(rejection(cfg).find(
                  "partition link coordinates must be non-negative"),
              std::string::npos);
}

TEST(FaultDomainConfig, OffMeshLinkDeathIsRejectedByTopology)
{
    MachineConfig cfg = scheduleCfg();
    // East off the right edge of a 4-wide mesh.
    cfg.faults.schedule.push_back(linkDeath(1000, LinkRef{3, 0, 0}));
    EXPECT_NE(rejection(cfg).find(
                  "link death at (3,0) points off the mesh edge"),
              std::string::npos);
    // Same link is fine on a wider mesh.
    cfg.net.meshX = 5;
    EXPECT_EQ(rejection(cfg), "");
}

TEST(FaultDomainConfig, OffMeshPartitionCutIsRejectedByTopology)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        partition(1000, 2000, {LinkRef{0, 0, 1}})); // West off x=0
    EXPECT_NE(rejection(cfg).find("partition cut link at (0,0) points "
                                  "off the mesh edge"),
              std::string::npos);
    cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        partition(1000, 2000, {LinkRef{4, 0, 1}}));
    EXPECT_NE(rejection(cfg).find("is outside the 4x4 mesh"),
              std::string::npos);
}

TEST(FaultDomainConfig, KillingEveryComputeNodeIsRejected)
{
    MachineConfig cfg = scheduleCfg();
    for (NodeId n = 0; n < 4; ++n) {
        cfg.faults.schedule.push_back(
            {.domain = FaultDomain::PNodeDeath, .tick = 1000, .node = n});
    }
    EXPECT_NE(rejection(cfg).find("kills every compute node"),
              std::string::npos);
    // Killing all but one is allowed.
    cfg.faults.schedule.pop_back();
    EXPECT_EQ(rejection(cfg), "");
}

TEST(FaultDomainConfig, DeathsMustNameANodeOfTheirKind)
{
    MachineConfig cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::DNodeDeath, .tick = 1000, .node = 1});
    EXPECT_NE(rejection(cfg).find("scheduled death must name a D-node"),
              std::string::npos);
    cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::PNodeDeath, .tick = 1000, .node = 5});
    EXPECT_NE(rejection(cfg).find(
                  "scheduled P-node death must name a P-node"),
              std::string::npos);
    cfg = scheduleCfg();
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::DNodeDeath, .tick = 1000});
    EXPECT_NE(rejection(cfg).find("scheduled death names no node"),
              std::string::npos);
    cfg = makeBaseConfig(ArchKind::Numa);
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::PNodeDeath, .tick = 1000, .node = 1});
    EXPECT_NE(rejection(cfg).find(
                  "scheduled P-node deaths require an AGG machine"),
              std::string::npos);
}

TEST(FaultDomainConfig, DomainAndActionNamesAreDistinct)
{
    std::set<std::string> domains;
    for (int i = 0; i < kNumFaultDomains; ++i) {
        const char *name =
            faultDomainName(static_cast<FaultDomain>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?") << "unnamed FaultDomain " << i;
        EXPECT_TRUE(domains.insert(name).second);
    }
    std::set<std::string> actions;
    for (int i = 0; i < 4; ++i) {
        const char *name =
            faultActionName(static_cast<FaultAction>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?") << "unnamed FaultAction " << i;
        EXPECT_TRUE(actions.insert(name).second);
    }
}

// ------------------------------------------- link death and detouring

TEST(MeshFaultDomains, LinkDeathKillsBothDirections)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    EXPECT_FALSE(mesh.degraded());
    mesh.setLinkAlive(0, 0, 0, false); // channel (0,0) <-> (1,0)
    EXPECT_TRUE(mesh.degraded());
    EXPECT_EQ(mesh.deadLinkCount(), 2);
    EXPECT_FALSE(mesh.linkAlive(0, 0, 0));
    EXPECT_FALSE(mesh.linkAlive(1, 0, 1)); // reverse direction
}

TEST(MeshFaultDomains, DetourRoutesAroundADeadLink)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    mesh.setLinkAlive(0, 0, 0, false);
    ASSERT_TRUE(mesh.routable(0, 3));
    int delivered = 0;
    mesh.send(0, 3, 64, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1);
}

TEST(MeshFaultDomains, HealRestoresFaultFreeRouting)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    mesh.setLinkAlive(2, 1, 2, false);
    mesh.setLinkAlive(2, 1, 2, true);
    EXPECT_FALSE(mesh.degraded());
    EXPECT_EQ(mesh.deadLinkCount(), 0);
    int delivered = 0;
    mesh.send(0, 15, 64, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1);
}

TEST(MeshFaultDomains, LinkDeathMidWormholeDeliversExactlyOnce)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    int delivered = 0;
    // Node 0 -> 3 crosses the (1,0) east link; kill it while the
    // message is in flight. The wormhole already charged its links,
    // so the scheduled delivery stands — exactly one arrival.
    mesh.send(0, 3, 64, [&] { ++delivered; });
    mesh.setLinkAlive(1, 0, 0, false);
    eq.run();
    EXPECT_EQ(delivered, 1);

    // A message sent after the death detours and also arrives once.
    mesh.send(0, 3, 64, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 2);
}

// --------------------------------------------- partitions: block/drain

/** Cut every east link between columns 1 and 2 of the 4x4 mesh. */
void
cutColumn(Mesh &mesh, bool alive)
{
    for (int y = 0; y < 4; ++y)
        mesh.setLinkAlive(1, y, 0, alive);
}

TEST(MeshFaultDomains, PartitionQueuesMessagesAndDrainsOnHeal)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    StatSet stats;
    mesh.setStats(&stats);
    cutColumn(mesh, false);
    EXPECT_FALSE(mesh.routable(0, 3));
    EXPECT_TRUE(mesh.routable(0, 1)); // same side still fine

    int delivered = 0;
    mesh.send(0, 3, 64, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(mesh.partitionBlocked(), 1u);
    EXPECT_EQ(stats.get("fault.net.partition_blocked"), 1.0);

    // Healing a single channel of the cut reconnects the halves and
    // re-injects the queued message.
    mesh.setLinkAlive(1, 2, 0, true);
    EXPECT_EQ(mesh.partitionBlocked(), 0u);
    eq.run();
    EXPECT_EQ(delivered, 1);
}

TEST(MeshFaultDomains, BlockedMessagesSurviveAPartialHeal)
{
    EventQueue eq;
    Mesh mesh(eq, testNet(), 16);
    cutColumn(mesh, false);
    // Also isolate the (3,3) corner entirely (both incident channels)
    // so healing the column cut alone cannot reach node 15 from 0.
    mesh.setLinkAlive(2, 3, 0, false); // (2,3) <-> (3,3)
    mesh.setLinkAlive(3, 2, 2, false); // (3,2) <-> (3,3)

    int delivered = 0;
    mesh.send(0, 15, 64, [&] { ++delivered; });
    EXPECT_EQ(mesh.partitionBlocked(), 1u);

    // Healing the column cut still leaves (3,3) unreachable: the
    // message must stay queued rather than panic mid-walk.
    cutColumn(mesh, true);
    EXPECT_EQ(mesh.partitionBlocked(), 1u);
    eq.run();
    EXPECT_EQ(delivered, 0);

    mesh.setLinkAlive(3, 2, 2, true);
    eq.run();
    EXPECT_EQ(delivered, 1);
}

// ------------------------------------------------- workload-level runs

RunOptions
checkedOpts()
{
    RunOptions opts;
    opts.checkInvariants = true;
    return opts;
}

TEST(FaultDomainRuns, DupAcksAcrossPartitionHealStayCoherent)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    // Every Ack delivered twice, across a timed partition: dedup and
    // the spurious-TxnDone tolerance must absorb replays on both
    // sides of the heal. 6 nodes fit a 3x2 mesh; cut column 1.
    ASSERT_EQ(cfg.net.meshX, 3);
    cfg.faults.rates[static_cast<int>(MsgClass::Ack)].duplicate = 1.0;
    cfg.faults.schedule.push_back(
        partition(50'000, 150'000, {LinkRef{1, 0, 0}, LinkRef{1, 1, 0}}));
    cfg.validate();

    warnResetForTest();
    const RunResult r = runWorkload(cfg, *wl, checkedOpts());
    warnResetForTest();

    EXPECT_GT(r.counter("fault.net.dup"), 0.0);
    EXPECT_EQ(r.counter("check.violations"), 0.0);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
}

TEST(FaultDomainRuns, PartitionCampaignCompletesAfterHeal)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.schedule.push_back(
        partition(40'000, 240'000, {LinkRef{1, 0, 0}, LinkRef{1, 1, 0}}));
    cfg.validate();

    warnResetForTest();
    const RunResult r = runWorkload(cfg, *wl, checkedOpts());
    warnResetForTest();

    // The cut actually blocked traffic, links died and healed, and
    // the run still finished clean.
    EXPECT_GT(r.counter("fault.net.link_deaths"), 0.0);
    EXPECT_GT(r.counter("fault.net.link_heals"), 0.0);
    EXPECT_EQ(r.counter("check.violations"), 0.0);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
}

TEST(FaultDomainRuns, PNodeDeathSalvagesAndCompletes)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::PNodeDeath, .tick = 150'000, .node = 1});
    cfg.validate();

    warnResetForTest();
    const RunResult r = runWorkload(cfg, *wl, checkedOpts());
    warnResetForTest();

    EXPECT_EQ(r.counter("fault.pnode_failovers"), 1.0);
    EXPECT_EQ(r.counter("check.violations"), 0.0);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
}

TEST(FaultDomainRuns, PNodeDeathRunsAreDeterministic)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::PNodeDeath, .tick = 150'000, .node = 2});

    warnResetForTest();
    const RunResult a = runWorkload(cfg, *wl);
    const RunResult b = runWorkload(cfg, *wl);
    warnResetForTest();
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.messages, b.messages);
}

// ------------------------------------------ structured watchdog report

TEST(WatchdogReport, StuckReportFormatsEveryField)
{
    StuckTxn t;
    t.kind = "mshr";
    t.node = 3;
    t.line = 0x150580;
    t.req = MsgType::ReadReq;
    t.seq = 17;
    t.retries = 8;
    t.state = "abandoned";
    t.acksExpected = 2;
    t.acksReceived = 1;
    t.issueTick = 1000;
    t.lastProgressTick = 5000;
    const std::string s = stuckReport({t});
    EXPECT_NE(s.find("node 3"), std::string::npos) << s;
    EXPECT_NE(s.find("0x150580"), std::string::npos) << s;
    EXPECT_NE(s.find("seq=17"), std::string::npos) << s;
    EXPECT_NE(s.find("retries=8"), std::string::npos) << s;
    EXPECT_NE(s.find("abandoned"), std::string::npos) << s;
    EXPECT_NE(s.find("acks=1/2"), std::string::npos) << s;
}

TEST(WatchdogReport, WatchdogErrorIsAStructuredPanic)
{
    StuckTxn t;
    t.node = 1;
    t.line = 0x40;
    t.state = "waiting-reply";
    WatchdogError e("watchdog: stalled", {t}, 4);
    EXPECT_EQ(e.stuck.size(), 1u);
    EXPECT_EQ(e.partitionBlocked, 4u);
    // Existing catch sites treat it as a PanicError.
    try {
        throw WatchdogError("watchdog: stalled", {t}, 0);
    } catch (const PanicError &p) {
        EXPECT_NE(std::string(p.what()).find("watchdog"),
                  std::string::npos);
    }
}

// --------------------------------------------- direct P-node failover

TEST(PNodeFailover, SalvageKeepsTheMachineCoherent)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.armRecovery = true; // arm fault paths, no mesh faults
    Machine m(cfg);

    // Node 1 dirties a line, node 2 shares another.
    bool done = false;
    m.compute(1)->access(0x100000, true,
                         [&](Tick, ReadService) { done = true; });
    m.eq().run();
    ASSERT_TRUE(done);
    done = false;
    m.compute(2)->access(0x200000, false,
                         [&](Tick, ReadService) { done = true; });
    m.eq().run();
    ASSERT_TRUE(done);

    const PNodeFailoverResult fr = failOverPNode(m, 1);
    EXPECT_TRUE(m.isDead(1));
    EXPECT_GE(fr.linesSalvaged, 1u); // the dirty line came back
    m.eq().run(); // drain the failover's engine-cost events
    m.checkInvariants();
    m.checkCoherenceQuiescent();

    // A survivor can read the salvaged line (home has the data).
    done = false;
    m.compute(0)->access(0x100000, false,
                         [&](Tick, ReadService) { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    m.checkCoherenceQuiescent();
}

TEST(PNodeFailover, DeadNodesLateWriteBackQueuedOnABusyLineIsDropped)
{
    // A WriteBack the node sent just before it died is still delivered.
    // Write-backs skip acceptRequest's dead-sender filter, so one that
    // lands on a busy line queues there after abortNode has purged the
    // node's queued requests; when the line frees, drainQueued must
    // drop it rather than serve it.
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.armRecovery = true; // arm fault paths, no mesh faults
    Machine m(cfg);
    const Addr line = 0x100000;

    // Node 0 owns the line dirty.
    bool done = false;
    m.compute(0)->access(line, true, [&](Tick, ReadService) { done = true; });
    m.eq().run();
    ASSERT_TRUE(done);
    const NodeId home = m.pageMap().homeOf(line);

    // Node 1's read blocks the home on a forward to node 0, held back.
    std::vector<Message> held;
    std::vector<Message> acks_to_2;
    m.setSendInterceptor([&](const Message &msg) {
        if (msg.type == MsgType::Fwd && held.empty()) {
            held.push_back(msg);
            return true;
        }
        if (msg.type == MsgType::WriteBackAck && msg.dst == 2)
            acks_to_2.push_back(msg);
        return false;
    });
    done = false;
    m.compute(1)->access(line, false, [&](Tick, ReadService) { done = true; });
    m.eq().runUntil(m.eq().curTick() + 1000);
    ASSERT_EQ(held.size(), 1u);
    ASSERT_TRUE(m.home(home)->directory().find(line)->busy);

    // Node 2 dies; its last WriteBack of the line is still in flight
    // and lands on the busy line.
    failOverPNode(m, 2);
    Message wb;
    wb.type = MsgType::WriteBack;
    wb.lineAddr = line;
    wb.src = 2;
    wb.dst = home;
    wb.txnSeq = 77;
    m.home(home)->handleMessage(wb);
    m.eq().runUntil(m.eq().curTick() + 100);
    EXPECT_EQ(m.home(home)->directory().queued(line), 1u);
    EXPECT_EQ(m.stats().get("home.req_from_dead_dropped"), 0.0);

    // The forward goes through, node 1's TxnDone frees the line, and
    // the queued WriteBack is dropped unserved.
    m.deliverDirect(held[0]);
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.stats().get("home.req_from_dead_dropped"), 1.0);
    EXPECT_TRUE(acks_to_2.empty());
    const DirEntry *e = m.home(home)->directory().find(line);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->busy);
    EXPECT_EQ(m.home(home)->directory().queued(line), 0u);
    EXPECT_EQ(e->state, DirEntry::State::Shared);
    EXPECT_EQ(e->owner, 0);
    m.checkInvariants();
    m.checkCoherenceQuiescent();
}

} // namespace
} // namespace pimdsm
