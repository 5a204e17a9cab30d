/**
 * @file
 * Coherence-oracle self-tests: each deliberate protocol mutation
 * (sim/config.hh ProtoMutation) breaks one invariant in a targeted
 * way, and the oracle or the quiescent scan must catch it. The same
 * scenarios must run clean with the mutation disabled — the detectors
 * fire on the bug, not on the workload. Then the freshness checks the
 * oracle makes at the home's serve and at a blocked read's completion,
 * its SWMR rule on plain Shared copies, and the text of its reports.
 */

#include <gtest/gtest.h>

#include <string>

#include "machine/machine.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

constexpr Addr kLine = 1ull << 20;

MachineConfig
checkedCfg(ProtoMutation mutation)
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 2;
    cfg.numThreads = 2;
    cfg.numDNodes = 1;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    cfg.check.mutation = mutation;
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

void
doAccess(Machine &m, NodeId n, Addr a, bool write)
{
    bool done = false;
    m.compute(n)->access(a, write, [&](Tick, ReadService) {
        done = true;
    });
    m.eq().run();
    ASSERT_TRUE(done);
}

// A reader keeps its copy through an invalidation (it still acks, so
// the writer completes). The AGG cold read granted it mastership, so
// the stale survivor is owner-ish and the oracle's continuous SWMR
// check fires the moment the writer installs Dirty.
TEST(OracleMutation, SkipInvalCaughtBySwmr)
{
    Machine m(checkedCfg(ProtoMutation::SkipInval));
    doAccess(m, 0, kLine, false);
    m.compute(1)->access(kLine, true, [](Tick, ReadService) {});
    EXPECT_THROW(m.eq().run(), PanicError);
    EXPECT_GT(m.stats().get("check.mutation.skip_inval"), 0.0);
}

TEST(OracleMutation, SkipInvalScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, false);
    doAccess(m, 1, kLine, true);
    m.checkCoherenceQuiescent();
}

// The home forgets a dirty owner and serves a second write as if the
// line were uncached: two nodes install Dirty, and the oracle's
// continuous SWMR check fires the moment the second owner installs.
TEST(OracleMutation, DoubleOwnerCaughtBySwmrMidRun)
{
    Machine m(checkedCfg(ProtoMutation::DoubleOwner));
    doAccess(m, 0, kLine, true);
    bool done = false;
    m.compute(1)->access(kLine, true, [&](Tick, ReadService) {
        done = true;
    });
    EXPECT_THROW(m.eq().run(), PanicError);
    EXPECT_GT(m.stats().get("check.mutation.double_owner"), 0.0);
}

TEST(OracleMutation, DoubleOwnerScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, true);
    doAccess(m, 1, kLine, true);
    m.checkCoherenceQuiescent();
}

// The D-node "forgets" to return a Data slot to the FreeList when a
// write grant releases the home copy: the slot-conservation scan sees
// more slots in use than directory entries referencing them.
void
runLeakSlotScenario(Machine &m)
{
    doAccess(m, 1, kLine, false); // home absorbs a copy into a slot
    doAccess(m, 0, kLine, true);  // grant releases (and leaks) it
}

TEST(OracleMutation, LeakSlotCaughtBySlotConservation)
{
    Machine m(checkedCfg(ProtoMutation::LeakSlot));
    runLeakSlotScenario(m);
    EXPECT_GT(m.stats().get("check.mutation.leak_slot"), 0.0);
    EXPECT_THROW(m.checkInvariants(), PanicError);
}

TEST(OracleMutation, LeakSlotScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    runLeakSlotScenario(m);
    m.checkInvariants();
    m.checkCoherenceQuiescent();
}

/** Run @p m's queue; the text of the panic it raises ("" if none). */
std::string
panicText(Machine &m)
{
    try {
        m.eq().run();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

// A write commits behind the home's back after a read issued and
// before the home serves it from its own copy: the home serves a
// version that is no longer the latest. The read is a simple (not
// blocked) one and the commit postdates its issue, so only the
// oracle's serve-time check can see it.
TEST(OracleFreshness, HomeServingAStaleCopyIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 1, kLine, false); // cold read: the home keeps a copy
    m.compute(0)->access(kLine, false, [](Tick, ReadService) {});
    m.eq().scheduleIn(1, [&m] { m.bumpVersion(kLine); });
    const std::string text = panicText(m);
    EXPECT_NE(text.find("home 2 served a stale copy: v0 to node 0 but "
                        "the latest committed write is v1"),
              std::string::npos)
        << text;
}

// A read of a Dirty line is forwarded to the owner and blocks the home
// until its TxnDone, so it must observe the latest version. A commit
// after the read issued (behind the home's back) leaves the forwarded
// copy one version behind; it is not older than what had committed at
// issue, so only the blocked-read rule catches it.
TEST(OracleFreshness, BlockedReadCompletingStaleIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, true); // node 0 holds the line Dirty at v1
    m.compute(1)->access(kLine, false, [](Tick, ReadService) {});
    m.eq().scheduleIn(1, [&m] { m.bumpVersion(kLine); });
    const std::string text = panicText(m);
    EXPECT_NE(text.find("stale read: node 1 observed v1 but the home "
                        "held the line for it until its TxnDone and v2 "
                        "is committed"),
              std::string::npos)
        << text;
}

// The read-freshness floor reaches back past a burst of commits: on a
// hot line (a lock, a barrier) a miss can stay in flight across dozens
// of them (up to 26 in the paper benches).
TEST(OracleFreshness, StaleReadSpanningManyCommitsIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    m.bumpVersion(kLine);
    m.eq().runUntil(10);
    m.bumpVersion(kLine); // v2 commits before the read issues @20
    m.eq().runUntil(30);
    for (int i = 0; i < 30; ++i)
        m.bumpVersion(kLine);
    std::string text;
    try {
        m.oracle().noteReadObserved(40, 0, kLine, 1, 20, false);
    } catch (const PanicError &e) {
        text = e.what();
    }
    EXPECT_NE(text.find("stale read: node 0 observed v1 but v2 had "
                        "already committed when the read issued @20"),
              std::string::npos)
        << text;
}

TEST(OracleFreshness, ScenariosRunCleanWithoutTheStrayCommit)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 1, kLine, false);
    doAccess(m, 0, kLine, false);
    doAccess(m, 1, kLine + 4096, true);
    doAccess(m, 0, kLine + 4096, false);
    EXPECT_EQ(m.oracle().violations(), 0u);
    m.checkCoherenceQuiescent();
}

// SWMR covers plain Shared copies too: a Dirty copy must be the only
// valid copy of its line, whichever side installs second.
TEST(OracleSwmr, DirtyInstallBesideASharedCopyIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    CoherenceOracle &o = m.oracle();
    m.bumpVersion(kLine);
    o.noteNodeState(10, 0, kLine, CohState::Shared, 1, "test");
    EXPECT_THROW(o.noteNodeState(20, 1, kLine, CohState::Dirty, 1, "test"),
                 PanicError);
}

TEST(OracleSwmr, SharedInstallBesideADirtyCopyIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    CoherenceOracle &o = m.oracle();
    m.bumpVersion(kLine);
    o.noteNodeState(10, 0, kLine, CohState::Dirty, 1, "test");
    EXPECT_THROW(o.noteNodeState(20, 1, kLine, CohState::Shared, 1, "test"),
                 PanicError);
}

TEST(OracleSwmr, SharersBesideOneMasterAreLegal)
{
    Machine m(checkedCfg(ProtoMutation::None));
    CoherenceOracle &o = m.oracle();
    m.bumpVersion(kLine);
    o.noteNodeState(10, 0, kLine, CohState::SharedMaster, 1, "test");
    o.noteNodeState(20, 1, kLine, CohState::Shared, 1, "test");
    o.noteNodeState(30, 0, kLine, CohState::Invalid, 0, "test");
    o.noteNodeState(40, 1, kLine, CohState::Dirty, 1, "test");
    EXPECT_EQ(o.violations(), 0u);
    Version v = 0;
    EXPECT_EQ(o.holderState(1, kLine, &v), CohState::Dirty);
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(o.holderState(0, kLine), CohState::Invalid);
    int holders = 0;
    o.forEachTrackedHolder([&](Addr, NodeId, CohState, Version) {
        ++holders;
    });
    EXPECT_EQ(holders, 1);
}

// The invariant scan cross-checks the oracle's copies against node
// storage both ways: a copy the oracle lost track of, and one it
// tracks that storage does not hold.
TEST(OracleScan, CopyMissingFromTheOracleIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, false);
    m.checkInvariants();
    m.oracle().noteNodeState(m.eq().curTick(), 0, kLine, CohState::Invalid,
                             0, "test");
    EXPECT_THROW(m.checkInvariants(), PanicError);
}

TEST(OracleScan, CopyMissingFromStorageIsCaught)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, false);
    m.oracle().noteNodeState(m.eq().curTick(), 1, kLine, CohState::Shared,
                             0, "test");
    EXPECT_THROW(m.checkInvariants(), PanicError);
}

// The report's text is pinned: message records name the transaction
// as the watchdog's stuck report does (requester and seq=).
TEST(OracleReport, LineHistoryTextIsPinned)
{
    Machine m(checkedCfg(ProtoMutation::None));
    CoherenceOracle &o = m.oracle();

    Message req;
    req.type = MsgType::ReadExReq;
    req.lineAddr = kLine;
    req.src = 0;
    req.dst = 2;
    req.requester = 0;
    req.txnSeq = 7;
    o.noteMessage(100, req);

    m.eq().runUntil(150);
    m.bumpVersion(kLine);

    Message reply;
    reply.type = MsgType::ReadExReply;
    reply.lineAddr = kLine;
    reply.src = 2;
    reply.dst = 0;
    reply.ackCount = 1;
    reply.version = 1;
    reply.needsTxnDone = true;
    reply.txnSeq = 7;
    o.noteMessage(250, reply);

    Message ack;
    ack.type = MsgType::InvalAck;
    ack.lineAddr = kLine;
    ack.src = 1;
    ack.dst = 0;
    o.noteMessage(260, ack);
    o.noteNodeState(270, 0, kLine, CohState::Dirty, 1, "reply-install");

    EXPECT_EQ(o.lineHistory(kLine),
              "\n  line 0x100000 recent history:"
              "\n    @100 deliver ReadExReq 0->2 req=0 seq=7 acks=0 v0"
              "\n    @150 write committed v1"
              "\n    @250 deliver ReadExReply 2->0 req=-1 seq=7 acks=1 v1"
              " +txndone"
              "\n    @260 deliver InvalAck 1->0 req=-1 seq=0 acks=0 v0"
              "\n    @270 node 0 -> D v1 (reply-install)");
    EXPECT_EQ(o.lineHistory(kLine + 4096),
              "\n  line 0x101000 recent history: (none)");
}

// The ring keeps the newest kHistoryDepth events, oldest first.
TEST(OracleReport, HistoryKeepsTheNewestEvents)
{
    Machine m(checkedCfg(ProtoMutation::None));
    CoherenceOracle &o = m.oracle();
    Message msg;
    msg.type = MsgType::ReadReq;
    msg.lineAddr = kLine;
    const Tick n = CoherenceOracle::kHistoryDepth + 5;
    for (Tick t = 1; t <= n; ++t)
        o.noteMessage(t, msg);
    const std::string h = o.lineHistory(kLine);
    EXPECT_EQ(h.find("\n    @5 "), std::string::npos);
    EXPECT_NE(h.find("\n    @6 "), std::string::npos);
    EXPECT_EQ(h.rfind("\n    @"), h.find("\n    @" + std::to_string(n)));
}

} // namespace
} // namespace pimdsm
