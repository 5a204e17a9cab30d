/**
 * @file
 * Scripted real-machine regressions: hand-written schedules, found by
 * the spec explorer, played on the model-check harness with its full
 * terminal check (coherence, quiescence and the sequential version
 * reference; see src/check/model_check_run.hh).
 */

#include <gtest/gtest.h>

#include "check/model_check_run.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

const Addr kLine = modelCheckLine(0);

// Hand-scripted schedules, each found by pimdsm-speccheck --nodes 3
// --lines 1 --faults 2 and played on the real machine. Each delivery,
// drop or dup acts on the head of the exact (src, dst) queue and must
// find the expected message type there.

enum ScriptKind { Read, Write, Retry, Deliver, Drop, Dup, Failover };

struct ScriptStep
{
    ScriptKind kind;
    /** The accessing/retrying node for Read/Write/Retry; the D-node
     *  that dies for Failover. */
    NodeId src;
    NodeId dst;
    MsgType type;
};

constexpr MsgType R = MsgType::ReadReq, RR = MsgType::ReadReply,
                  X = MsgType::ReadExReq, XR = MsgType::ReadExReply,
                  U = MsgType::UpgradeReq, UR = MsgType::UpgradeReply,
                  F = MsgType::Fwd, FR = MsgType::FwdReply,
                  TD = MsgType::TxnDone, I = MsgType::Inval,
                  IA = MsgType::InvalAck, OH = MsgType::OwnerToHome;

/** Play @p script on @p run, then drain it with the default tail and
 *  the full terminal check. */
void
playScript(ModelCheckRun &run, const std::vector<ScriptStep> &script)
{
    const auto play = [&] {
        for (const ScriptStep &s : script) {
            if (s.kind == Read || s.kind == Write) {
                run.issue({s.src, kLine, s.kind == Write});
                run.settle();
                continue;
            }
            if (s.kind == Retry) {
                run.machine().compute(s.src)->retryStalledTransactions(
                    true);
                run.settle();
                continue;
            }
            if (s.kind == Failover) {
                run.failOver(s.src);
                continue;
            }
            const auto q = run.queues().find({s.src, s.dst});
            if (q == run.queues().end() || q->second.empty() ||
                q->second.front().type != s.type)
                panic(std::string("script expects a ") +
                      msgTypeName(s.type) + " at the head of " +
                      std::to_string(s.src) + "->" +
                      std::to_string(s.dst));
            if (s.kind == Deliver)
                run.deliver(q->first);
            else if (s.kind == Drop)
                run.drop(q->first);
            else
                run.dup(q->first);
        }
        run.finish();
    };
    EXPECT_NO_THROW(run.traced(play));
}

// ---------------------------------- a duplicated retry after a scrub
//
// NUMA on three nodes; line 0's home is node 0, so a step naming node
// 0 as an endpoint may mean the home.

void
playNumaScript(const std::vector<ScriptStep> &script)
{
    ModelCheckRun run(modelCheckMachine(ArchKind::Numa, 3, 1), true);
    run.machine().pageMap().assign(kLine, 0);
    playScript(run, script);
}

TEST(ModelCheck, NumaDuplicatedReplayedRetryGrantsNothing)
{
    // n1's UpgradeReply is dropped; n1's forced retry is duplicated,
    // and the first copy gets the cached reply replayed. n2's upgrade
    // then invalidates n1, scrubbing that cached reply. When the
    // duplicate arrives no transaction of n1's is live, so the home
    // used to re-serve it as a scrubbed retry: a phantom exclusive
    // grant whose FwdReply n1 (no MSHR) dropped as an orphan, losing
    // the line's only copy.
    playNumaScript({
        {Read, 0, 0, R},     {Read, 1, 0, R},     {Read, 2, 0, R},
        {Deliver, 1, 0, R},  {Deliver, 0, 1, RR}, {Write, 1, 0, R},
        {Deliver, 1, 0, U},  {Deliver, 2, 0, R},  {Deliver, 0, 0, R},
        {Drop, 0, 1, UR},    {Deliver, 0, 1, F},  {Retry, 1, 0, R},
        {Dup, 1, 0, U},      {Deliver, 0, 1, UR}, {Deliver, 1, 2, FR},
        {Write, 2, 0, R},    {Deliver, 2, 0, TD}, {Deliver, 2, 0, U},
        {Deliver, 0, 0, RR}, {Write, 0, 0, R},    {Deliver, 0, 0, I},
        {Deliver, 0, 1, I},  {Deliver, 0, 2, UR}, {Deliver, 0, 0, U},
        {Deliver, 1, 0, U},  {Deliver, 1, 0, OH}, {Deliver, 0, 2, IA},
        {Deliver, 1, 2, IA}, {Deliver, 2, 0, TD}, {Deliver, 0, 2, F},
        {Deliver, 2, 0, FR}, {Deliver, 0, 0, TD},
    });
}

TEST(ModelCheck, NumaDuplicatedFreshRetryGrantsNothing)
{
    // The same phantom grant when the duplicated retry is the first
    // copy of n1's upgrade to reach the home (the original request was
    // dropped): the first copy is served fresh, not replayed, and the
    // duplicate must still count as already seen.
    playNumaScript({
        {Read, 1, 0, R},     {Deliver, 1, 0, R},  {Deliver, 0, 1, RR},
        {Write, 1, 0, R},    {Drop, 1, 0, U},     {Retry, 1, 0, R},
        {Read, 0, 0, R},     {Read, 2, 0, R},     {Dup, 1, 0, U},
        {Deliver, 2, 0, R},  {Deliver, 0, 0, R},  {Deliver, 0, 1, UR},
        {Deliver, 0, 1, F},  {Deliver, 1, 2, FR}, {Write, 2, 0, R},
        {Deliver, 2, 0, TD}, {Deliver, 2, 0, U},  {Deliver, 0, 0, RR},
        {Write, 0, 0, R},    {Deliver, 0, 0, I},  {Deliver, 0, 1, I},
        {Deliver, 0, 2, UR}, {Deliver, 0, 0, U},  {Deliver, 1, 0, U},
        {Deliver, 1, 0, OH}, {Deliver, 0, 2, IA}, {Deliver, 1, 2, IA},
        {Deliver, 2, 0, TD}, {Deliver, 0, 2, F},  {Deliver, 2, 0, FR},
        {Deliver, 0, 0, TD},
    });
}

// ------------------------------- a D-node failover after a lost grant
//
// AGG with P-nodes 0-2 and D-nodes 3 and 4; line 0 is homed on D-node
// 4, so its failover re-homes the line on the spare, D-node 3.

void
playAggScript(const std::vector<ScriptStep> &script)
{
    ModelCheckRun run(modelCheckMachine(ArchKind::Agg, 3, 2), true);
    ASSERT_EQ(run.machine().directoryNodes(),
              (std::vector<NodeId>{3, 4}));
    run.machine().pageMap().assign(kLine, 4);
    playScript(run, script);
}

TEST(ModelCheck, AggFailoverDropsASupersededForward)
{
    // n1's write grant is lost and n0's read is forwarded to n1, which
    // parks it until its own grant lands. The home fails over; n1's
    // retry is re-served at the spare as version 2, and n1 used to
    // replay the parked version-1 forward on completion, handing n0 a
    // Shared copy the new directory never recorded (then n2's write
    // left n0 holding it beside a Dirty copy). A forward older than
    // the node's copy is now dropped; n0's retry re-reads.
    playAggScript({
        {Read, 0, 0, R},     {Write, 1, 0, X},    {Deliver, 1, 4, X},
        {Deliver, 0, 4, R},  {Drop, 4, 1, XR},    {Deliver, 4, 1, F},
        {Failover, 4, 0, F}, {Retry, 1, 0, X},    {Write, 2, 0, X},
        {Deliver, 1, 3, X},  {Deliver, 2, 3, X},  {Deliver, 3, 0, I},
        {Deliver, 3, 1, XR}, {Deliver, 0, 1, IA}, {Deliver, 1, 3, TD},
    });
}

TEST(ModelCheck, AggSupersededGrantDiscardsItsAcks)
{
    // n0's upgrade grant, naming one ack, is lost; n1's InvalAck still
    // reaches n0. The home fails over; n1's retried upgrade makes the
    // spare forward an exclusive request to n0, which voids n0's
    // grant. n0's retry is re-served as a ReadExReply naming two acks.
    // The void grant's ack used to count toward it, so n0 installed
    // Dirty on n2's ack alone while n1 still held its SharedMaster
    // copy, which the oracle's SWMR check flags. Acks gathered for a
    // voided grant are now discarded.
    playAggScript({
        {Read, 0, 0, R},     {Read, 1, 0, R},     {Read, 2, 0, R},
        {Deliver, 0, 4, R},  {Deliver, 1, 4, R},  {Deliver, 4, 0, RR},
        {Write, 0, 0, U},    {Deliver, 4, 1, RR}, {Write, 1, 0, U},
        {Deliver, 0, 4, U},  {Deliver, 2, 4, R},  {Deliver, 1, 4, U},
        {Deliver, 4, 1, I},  {Drop, 4, 0, UR},    {Deliver, 1, 0, IA},
        {Retry, 0, 0, U},    {Failover, 4, 0, F}, {Retry, 1, 0, U},
        {Deliver, 1, 3, U},  {Deliver, 3, 0, F},  {Deliver, 0, 1, FR},
        {Deliver, 1, 3, TD}, {Retry, 2, 0, R},    {Deliver, 2, 3, R},
        {Deliver, 3, 1, F},  {Deliver, 1, 2, FR}, {Deliver, 1, 3, OH},
        {Deliver, 2, 3, TD}, {Retry, 0, 0, U},    {Write, 2, 0, U},
        {Deliver, 0, 3, U},  {Deliver, 2, 3, U},  {Deliver, 3, 2, I},
        {Deliver, 3, 0, XR}, {Deliver, 2, 0, IA},
    });
}

} // namespace
} // namespace pimdsm
