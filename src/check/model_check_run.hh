/**
 * @file
 * Model checking on the real Machine: the intercepted-machine harness
 * (ModelCheckRun) that replays spec-explorer traces and scripted
 * regression schedules.
 *
 * The harness captures every outgoing message at the Machine::send
 * interception point into per-(src, dst) FIFO queues — the mesh never
 * reorders messages within a pair (XY routing + FIFO links), so the
 * legal delivery choices at any instant are exactly the queue heads.
 * Its driver delivers, drops or duplicates queue heads; when nothing
 * is in flight but the run is not quiescent, the harness forces a
 * retry round (the recovery the pushed-out fault timeouts would have
 * driven). Every run must end quiescent (all MSHRs and writebacks
 * drained, every scripted access completed), pass the machine
 * invariants and the quiescent whole-machine coherence scan, end with
 * each touched line's committed version equal to the sequential
 * reference (the number of scripted writes to it — no write lost, none
 * applied twice), and leave the coherence oracle with zero violations.
 * Any failure panics with the run's step trace.
 *
 * replaySpecTraces (check/spec_explorer.hh) maps each step of an
 * abstract spec trace to a queue-head choice or a D-node failover,
 * then drains the run with the default tail (finish()).
 */

#ifndef PIMDSM_CHECK_MODEL_CHECK_RUN_HH
#define PIMDSM_CHECK_MODEL_CHECK_RUN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace pimdsm
{

/** One scripted access of a model-check workload. */
struct ScriptedAccess
{
    NodeId node = 0;
    Addr addr = 0;
    bool isWrite = false;
};

/** Address of model-check line @p i (each on its own page). */
Addr modelCheckLine(int i);

/** A tiny model-check machine: @p pNodes P-nodes, @p dNodes D-nodes
 *  (AGG only; other organizations get none), 64 KiB node memories and
 *  direct-mapped 1 KiB L1 / 4 KiB L2 caches. */
MachineConfig modelCheckMachine(ArchKind arch, int pNodes, int dNodes);

/** One run of a real Machine whose messages the caller schedules. */
class ModelCheckRun
{
  public:
    using QueueKey = std::pair<NodeId, NodeId>;
    using Queues = std::map<QueueKey, std::deque<Message>>;

    /** Builds a Machine of @p mc with the coherence oracle armed. With
     *  @p recovery, also arms txn seqs / dedup / retry bookkeeping but
     *  pushes the simulated timers past the horizon: the driver
     *  injects faults and forced retry rounds drive recovery. */
    ModelCheckRun(MachineConfig mc, bool recovery);

    Machine &machine() { return m_; }
    const Machine &machine() const { return m_; }
    /** The per-(src, dst) FIFOs of intercepted messages. */
    const Queues &queues() const { return queues_; }
    /** Drop and duplicate choices applied so far. */
    int faults() const { return faults_; }
    /** Messages delivered so far (duplicates count twice). */
    std::uint64_t deliveries() const { return deliveries_; }

    /** Issue @p a @p delay ticks from now; it counts toward the
     *  terminal lost-access and version checks. */
    void issue(const ScriptedAccess &a, Tick delay = 0);
    /** Run far past any handler or disk latency chain, far short of
     *  the pushed-out fault timeouts. */
    void settle();

    /** Deliver the head of queue @p q, then settle. */
    void deliver(QueueKey q);
    /** Discard the head of queue @p q (a fault), then settle. */
    void drop(QueueKey q);
    /** Deliver the head of queue @p q and leave its copy at the head,
     *  so the duplicate's delivery is a later choice that can
     *  interleave with other pairs' traffic (a fault); then settle. */
    void dup(QueueKey q);
    /** Fail-stop D-node @p dnode and re-home its lines on the
     *  survivors (failOverDNode), discarding everything queued for it;
     *  what it already sent stays deliverable. Then settle. */
    void failOver(NodeId dnode);
    /** Append @p step to the trace a panic reports. */
    void note(std::string step);

    /** Every scripted access completed and every node is quiescent. */
    bool quiescent() const;

    /**
     * Drive the run to quiescence, then run the terminal checks. At
     * each decision @p decide acts on the run, returning false when it
     * has no live choice; the harness then stops if quiescent and
     * otherwise forces a retry round, panicking when recovery is not
     * armed (a deadlock) or after too many rounds (wedged).
     */
    void finish(const std::function<bool()> &decide);
    /** The default tail: always deliver the first non-empty queue's
     *  head. */
    void finish();

    /** Run @p body; a PanicError from it is rethrown with the run's
     *  step trace appended. */
    void traced(const std::function<void()> &body);

  private:
    void forceRetries();
    void checkTerminal();

    bool recovery_;
    Machine m_;
    Queues queues_;
    /** Scripted writes per touched line (the sequential reference). */
    std::map<Addr, Version> expectWrites_;
    std::vector<std::string> trace_;
    std::size_t issued_ = 0;
    std::size_t completions_ = 0;
    /** Scripted writes issued but not yet completed. */
    std::size_t pendingWrites_ = 0;
    /** Writes pending across failovers: each may be serialized once
     *  more, uncounted, by a home that lost its dedup records. */
    std::size_t voidable_ = 0;
    std::uint64_t deliveries_ = 0;
    int faults_ = 0;
    int retryRounds_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_CHECK_MODEL_CHECK_RUN_HH
