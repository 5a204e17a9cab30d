/**
 * @file
 * Fault-injection and recovery: message classification, directed
 * drop/retry, the transaction watchdog, D-node failover, reboot, and
 * the determinism of seeded fault campaigns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "machine/machine.hh"
#include "machine/reconfig.hh"
#include "report/experiment.hh"
#include "sim/log.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

MachineConfig
smallCfg(ArchKind arch, int p, int d)
{
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = arch == ArchKind::Agg ? d : 0;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    // The oracle (on by default) runs in relaxed mode here (most of
    // these runs inject faults): recovery-path serialization slack is
    // counted and warned, but storage/oracle disagreement still panics
    // via checkInvariants.
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

struct Tracker
{
    bool done = false;
    Tick when = 0;
    ReadService svc = ReadService::FLC;

    ComputeBase::CompletionFn
    fn()
    {
        return [this](Tick t, ReadService s) {
            done = true;
            when = t;
            svc = s;
        };
    }
};

Tracker
doAccess(Machine &m, NodeId n, Addr a, bool write)
{
    Tracker t;
    m.compute(n)->access(a, write, t.fn());
    m.eq().run();
    EXPECT_TRUE(t.done);
    return t;
}

constexpr Addr kLine = 1ull << 20;

// ----------------------------------------------------- classification

TEST(FaultModel, EveryMsgTypeHasADistinctName)
{
    std::set<std::string> names;
    for (int i = 0; i < kNumMsgTypes; ++i) {
        const char *name = msgTypeName(static_cast<MsgType>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?") << "unnamed MsgType " << i;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate name " << name;
    }
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumMsgTypes));
}

TEST(FaultModel, OnlyRecoverableClassesAreDroppable)
{
    // Requests, replies and writebacks have a retry path; everything
    // else must never be silently lost.
    EXPECT_TRUE(msgClassDroppable(MsgClass::Request));
    EXPECT_TRUE(msgClassDroppable(MsgClass::Reply));
    EXPECT_TRUE(msgClassDroppable(MsgClass::WriteBack));
    EXPECT_FALSE(msgClassDroppable(MsgClass::Ack));
    EXPECT_FALSE(msgClassDroppable(MsgClass::Peer));
    EXPECT_FALSE(msgClassDroppable(MsgClass::Cim));
    EXPECT_FALSE(msgClassDroppable(MsgClass::Immune));
    // Acks are additionally dedup'd at the receiver, so duplication
    // is safe there too.
    EXPECT_TRUE(msgClassDupSafe(MsgClass::Ack));
    EXPECT_FALSE(msgClassDupSafe(MsgClass::Peer));

    // Every message type must land in a deliberate class.
    for (int i = 0; i < kNumMsgTypes; ++i) {
        const MsgType t = static_cast<MsgType>(i);
        EXPECT_NE(msgClassOf(t), MsgClass::Immune)
            << "unclassified type " << msgTypeName(t);
    }
    EXPECT_EQ(msgClassOf(MsgType::ReadReq), MsgClass::Request);
    EXPECT_EQ(msgClassOf(MsgType::ReadReply), MsgClass::Reply);
    EXPECT_EQ(msgClassOf(MsgType::WriteBack), MsgClass::WriteBack);
    EXPECT_EQ(msgClassOf(MsgType::InvalAck), MsgClass::Ack);
    EXPECT_EQ(msgClassOf(MsgType::Fwd), MsgClass::Peer);
    EXPECT_EQ(msgClassOf(MsgType::CimReq), MsgClass::Cim);
}

TEST(FaultModel, ConfigValidation)
{
    FaultConfig fc;
    EXPECT_FALSE(fc.enabled());
    EXPECT_NO_THROW(fc.validate());
    fc.setUniformDropRate(0.05);
    EXPECT_TRUE(fc.enabled());
    EXPECT_NO_THROW(fc.validate());
    fc.rates[static_cast<int>(MsgClass::Reply)].drop = 1.5;
    EXPECT_THROW(fc.validate(), FatalError);
}

// ----------------------------------------------------------- warn()

TEST(FaultModel, WarnDedupesUntilReset)
{
    warnResetForTest();
    EXPECT_TRUE(warn("test_faults: repeated warning"));
    EXPECT_FALSE(warn("test_faults: repeated warning"));
    warnResetForTest();
    EXPECT_TRUE(warn("test_faults: repeated warning"));
    warnResetForTest();
}

// ----------------------------------------------- directed drop/retry

TEST(FaultInjection, DroppedReadReplyIsRetriedAndCompletes)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    // Deterministically drop exactly the first reply on the mesh.
    cfg.faults.rates[static_cast<int>(MsgClass::Reply)].dropNth = 1;
    cfg.faults.timeoutTicks = 5000;
    cfg.faults.sweepInterval = 500;
    Machine m(cfg);

    auto t = doAccess(m, 0, kLine, false);
    EXPECT_TRUE(t.done);
    // The retry detour went through the timeout sweep.
    EXPECT_GT(t.when, cfg.faults.timeoutTicks);
    EXPECT_EQ(m.stats().get("fault.net.drop"), 1.0);
    EXPECT_EQ(m.stats().get("fault.retries"), 1.0);
    // The retried request hit the home's served-transaction cache.
    EXPECT_EQ(m.stats().get("home.reply_replayed"), 1.0);

    // The machine is fully recovered: later traffic behaves normally.
    auto t2 = doAccess(m, 1, kLine, true);
    EXPECT_TRUE(t2.done);
    m.checkInvariants();
}

TEST(FaultInjection, DroppedRequestIsRetriedAndCompletes)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    cfg.faults.rates[static_cast<int>(MsgClass::Request)].dropNth = 1;
    cfg.faults.timeoutTicks = 5000;
    cfg.faults.sweepInterval = 500;
    Machine m(cfg);

    auto t = doAccess(m, 0, kLine, true);
    EXPECT_TRUE(t.done);
    EXPECT_EQ(m.stats().get("fault.net.drop"), 1.0);
    EXPECT_EQ(m.stats().get("fault.retries"), 1.0);
    // The request never arrived, so there was nothing to replay.
    EXPECT_EQ(m.stats().get("home.reply_replayed"), 0.0);
    m.checkInvariants();
}

TEST(FaultInjection, DuplicatedReplyIsIgnoredOnce)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    cfg.faults.rates[static_cast<int>(MsgClass::Reply)].duplicate = 1.0;
    Machine m(cfg);

    auto t = doAccess(m, 0, kLine, false);
    EXPECT_TRUE(t.done);
    EXPECT_GT(m.stats().get("fault.net.dup"), 0.0);
    // The copy lands either while the MSHR is live (dup) or after it
    // retired (orphan); both are absorbed without a state change.
    EXPECT_GT(m.stats().get("fault.dup_reply") +
                  m.stats().get("fault.orphan_reply"),
              0.0);
    m.checkInvariants();
}

// ----------------------------------------------------------- MSHR file

/** Run every event of the next @p budget ticks. */
void
runFor(Machine &m, Tick budget)
{
    m.eq().runUntil(m.eq().curTick() + budget);
}

TEST(MshrFile, SeventeenthMissWaitsForAFreeSlot)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    ASSERT_EQ(cfg.proc.maxOutstandingLoads, 16);
    Machine m(cfg);
    const Addr lb = static_cast<Addr>(cfg.mem.lineBytes);
    std::set<Addr> requested;
    m.setSendInterceptor([&](const Message &msg) {
        if (msg.type == MsgType::ReadReq && msg.src == 0)
            requested.insert(msg.lineAddr);
        return false;
    });

    std::vector<Tracker> t(17);
    for (int i = 0; i < 17; ++i)
        m.compute(0)->access(kLine + i * lb, false, t[i].fn());
    EXPECT_EQ(m.compute(0)->outstanding(), 16u);

    const Addr last = kLine + 16 * lb;
    while (m.eq().runOne()) {
        EXPECT_LE(m.compute(0)->outstanding(), 16u);
        const bool any_done = std::any_of(
            t.begin(), t.end() - 1, [](const Tracker &x) { return x.done; });
        if (!any_done) {
            // The 17th miss waits for a slot, not for the network.
            EXPECT_EQ(requested.count(last), 0u);
            EXPECT_EQ(m.compute(0)->outstanding(), 16u);
        }
    }
    for (const Tracker &x : t)
        EXPECT_TRUE(x.done);
    EXPECT_EQ(requested.size(), 17u);
    EXPECT_TRUE(m.compute(0)->quiescent());
    m.checkInvariants();
}

TEST(MshrFile, FreedSlotIsFoundByItsNewLineOnly)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    cfg.proc.maxOutstandingLoads = 1; // one slot, reused by every miss
    cfg.faults.armRecovery = true;
    cfg.faults.timeoutTicks = 1'000'000;
    Machine m(cfg);
    const Addr a = kLine;
    const Addr b = kLine + 4 * static_cast<Addr>(cfg.mem.lineBytes);
    std::vector<Message> replies;
    bool hold = false;
    m.setSendInterceptor([&](const Message &msg) {
        if (msg.type != MsgType::ReadReply || msg.dst != 0)
            return false;
        replies.push_back(msg);
        return hold;
    });

    doAccess(m, 0, a, false);
    ASSERT_EQ(replies.size(), 1u);
    hold = true;
    Tracker tb;
    m.compute(0)->access(b, false, tb.fn());
    runFor(m, 5000);
    ASSERT_EQ(replies.size(), 2u);
    const std::vector<StuckTxn> open = m.collectStuck();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].line, b);

    // A replayed reply for a finds no MSHR: the slot now holds b.
    m.deliverDirect(replies[0]);
    EXPECT_EQ(m.stats().get("fault.orphan_reply"), 1.0);
    EXPECT_FALSE(tb.done);
    m.deliverDirect(replies[1]);
    m.eq().run();
    EXPECT_TRUE(tb.done);
    EXPECT_EQ(m.compute(0)->outstanding(), 0u);
    m.checkInvariants();
}

TEST(MshrFile, RetryResendsMissesInAscendingLineOrder)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 1);
    cfg.faults.armRecovery = true;
    cfg.faults.timeoutTicks = 1'000'000;
    Machine m(cfg);
    const Addr lb = static_cast<Addr>(cfg.mem.lineBytes);
    std::vector<Message> sent;
    m.setSendInterceptor([&](const Message &msg) {
        if (msg.src == 0)
            sent.push_back(msg);
        return true; // nothing is delivered: every miss stays open
    });

    // Opened in descending line order, so slot order is descending.
    std::vector<Tracker> t(8);
    for (int i = 7; i >= 0; --i)
        m.compute(0)->access(kLine + i * lb, false, t[i].fn());
    runFor(m, 5000);
    ASSERT_EQ(sent.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sent[i].lineAddr, kLine + (7 - i) * lb);

    sent.clear();
    EXPECT_EQ(m.compute(0)->retryStalledTransactions(false), 8);
    ASSERT_EQ(sent.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(sent[i].type, MsgType::ReadReq);
        EXPECT_EQ(sent[i].retryAttempt, 1);
        EXPECT_EQ(sent[i].lineAddr, kLine + i * lb);
    }
}

TEST(MshrFile, RetryResendsWritebacksInAscendingLineOrder)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 1, 1);
    cfg.pNodeMemBytes = 4096;
    cfg.mem.assoc = 1; // 32 direct-mapped sets of 128 B
    cfg.faults.armRecovery = true;
    cfg.faults.timeoutTicks = 1'000'000;
    Machine m(cfg);
    const Addr lb = static_cast<Addr>(cfg.mem.lineBytes);
    const Addr conflict = cfg.pNodeMemBytes; // same set, next tag

    for (int i = 0; i < 8; ++i)
        doAccess(m, 0, kLine + i * lb, true);
    std::vector<Addr> wbs;
    m.setSendInterceptor([&](const Message &msg) {
        if (msg.type != MsgType::WriteBack)
            return false;
        wbs.push_back(msg.lineAddr);
        return true; // never acked: the writebacks stay pending
    });
    // Displace the owned lines in descending line order.
    for (int i = 7; i >= 0; --i) {
        Tracker t;
        m.compute(0)->access(kLine + i * lb + conflict, true, t.fn());
        runFor(m, 5000);
        EXPECT_TRUE(t.done);
    }
    ASSERT_EQ(wbs.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(wbs[i], kLine + (7 - i) * lb);

    wbs.clear();
    EXPECT_EQ(m.compute(0)->retryStalledTransactions(false), 8);
    ASSERT_EQ(wbs.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(wbs[i], kLine + i * lb);
}

// ------------------------------------------------------------ watchdog

TEST(FaultInjection, TotalLossTripsWatchdogWithDiagnostic)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.setUniformDropRate(1.0);
    cfg.faults.timeoutTicks = 2000;
    cfg.faults.sweepInterval = 500;
    cfg.faults.retryLimit = 2;

    warnResetForTest();
    try {
        runWorkload(cfg, *wl);
        FAIL() << "expected the watchdog to panic";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        // The watchdog names itself and the stuck transactions.
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
        EXPECT_NE(what.find("line 0x"), std::string::npos) << what;
        EXPECT_NE(what.find("node"), std::string::npos) << what;
    }
    warnResetForTest();
}

// ------------------------------------------------- failover + reboot

TEST(Failover, DNodeDeathMidRunFailsOverAndCompletes)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    // Kill the first D-node early in the run.
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::DNodeDeath,
         .tick = 10'000,
         .node = static_cast<NodeId>(cfg.numPNodes)});
    cfg.faults.timeoutTicks = 5000;
    cfg.faults.sweepInterval = 1000;

    RunOptions opts;
    opts.checkInvariants = true;
    const RunResult r = runWorkload(cfg, *wl, opts);

    EXPECT_EQ(r.failovers, 1);
    EXPECT_GT(r.failoverTicks, 0u);
    EXPECT_EQ(r.counters.at("fault.failovers"), 1.0);
    // The survivors absorbed the dead node's pages.
    EXPECT_GT(r.counters.at("fault.failover_pages"), 0.0);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
}

TEST(Failover, SlowdownIsReportedAgainstCleanRun)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 2;
    spec.pressure = 0.25;

    const MachineConfig clean = buildConfig(*wl, spec);
    const RunResult base = runWorkload(clean, *wl);

    MachineConfig cfg = clean;
    cfg.faults.schedule.push_back(
        {.domain = FaultDomain::DNodeDeath,
         .tick = 10'000,
         .node = static_cast<NodeId>(cfg.numPNodes)});
    const RunResult faulty = runWorkload(cfg, *wl);

    // Losing half the directory capacity cannot speed the run up.
    EXPECT_GE(faulty.totalTicks, base.totalTicks);
}

TEST(Failover, ManualFailoverThenReboot)
{
    MachineConfig cfg = smallCfg(ArchKind::Agg, 2, 2);
    // A far-future death enables the fault machinery without firing.
    cfg.faults.schedule.push_back({.domain = FaultDomain::DNodeDeath,
                                   .tick = 1'000'000'000'000ull,
                                   .node = 2});
    Machine m(cfg);

    // Touch a line so node 2 owns directory state, then kill it.
    doAccess(m, 0, kLine, false);
    const NodeId home0 = m.pageMap().homeOf(kLine);
    ASSERT_EQ(m.directoryNodes().size(), 2u);

    const FailoverResult fr = failOverDNode(m, home0);
    EXPECT_TRUE(m.isDead(home0));
    EXPECT_GT(fr.cost, 0u);
    EXPECT_GT(fr.pagesMoved, 0u);
    EXPECT_EQ(m.directoryNodes().size(), 1u);
    const NodeId home1 = m.pageMap().homeOf(kLine);
    EXPECT_NE(home1, home0);

    // The line is still reachable through the surviving home.
    auto t = doAccess(m, 1, kLine, true);
    EXPECT_TRUE(t.done);
    m.checkInvariants();

    // Reboot the chip as a fresh D-node; it serves again.
    rebootNode(m, home0, NodeRole::Directory);
    EXPECT_FALSE(m.isDead(home0));
    EXPECT_EQ(m.directoryNodes().size(), 2u);
    EXPECT_EQ(m.stats().get("fault.reboots"), 1.0);
    auto t2 = doAccess(m, 0, kLine + (1ull << 21), false);
    EXPECT_TRUE(t2.done);
    m.checkInvariants();
}

// --------------------------------------------------------- determinism

TEST(FaultInjection, SeededLossyRunIsBitIdentical)
{
    auto wl = makeWorkload("fft", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.setUniformDropRate(0.02);
    cfg.faults.seed = 0xfeedbeefull;
    cfg.faults.timeoutTicks = 5000;
    cfg.faults.sweepInterval = 1000;

    warnResetForTest();
    const RunResult r1 = runWorkload(cfg, *wl);
    warnResetForTest();
    const RunResult r2 = runWorkload(cfg, *wl);
    warnResetForTest();

    EXPECT_GT(r1.counters.at("fault.net.drop"), 0.0);
    EXPECT_GT(r1.counters.at("fault.retries"), 0.0);
    EXPECT_EQ(r1.totalTicks, r2.totalTicks);
    EXPECT_EQ(r1.messages, r2.messages);
    EXPECT_EQ(r1.counters, r2.counters);
}

class EveryWorkloadLossy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkloadLossy, FivePercentDropCompletesWithRetries)
{
    auto wl = makeWorkload(GetParam(), 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.25;
    MachineConfig cfg = buildConfig(*wl, spec);
    cfg.faults.setUniformDropRate(0.05);
    cfg.faults.timeoutTicks = 5000;
    cfg.faults.sweepInterval = 1000;

    warnResetForTest();
    RunOptions opts;
    opts.checkInvariants = true;
    const RunResult r = runWorkload(cfg, *wl, opts);
    EXPECT_GT(r.counters.at("fault.net.drop"), 0.0);
    EXPECT_GT(r.counters.at("fault.retries"), 0.0);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
    warnResetForTest();
}

INSTANTIATE_TEST_SUITE_P(
    Apps, EveryWorkloadLossy,
    ::testing::ValuesIn(paperWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(FaultInjection, ModerateLossCompletesOnEveryArch)
{
    for (ArchKind arch :
         {ArchKind::Agg, ArchKind::Numa, ArchKind::Coma}) {
        auto wl = makeWorkload("fft", 1);
        BuildSpec spec;
        spec.arch = arch;
        spec.threads = 4;
        spec.pressure = 0.25;
        MachineConfig cfg = buildConfig(*wl, spec);
        cfg.faults.setUniformDropRate(0.02);
        cfg.faults.timeoutTicks = 5000;
        cfg.faults.sweepInterval = 1000;

        warnResetForTest();
        RunOptions opts;
        opts.checkInvariants = true;
        const RunResult r = runWorkload(cfg, *wl, opts);
        EXPECT_GT(r.totalTicks, 0u) << archName(arch);
        EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases())
            << archName(arch);
        warnResetForTest();
    }
}

} // namespace
} // namespace pimdsm
