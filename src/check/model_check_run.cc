#include "check/model_check_run.hh"

#include <sstream>

#include "machine/reconfig.hh"
#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/** Ticks per settle step: far beyond any handler/disk latency chain,
 *  far below the pushed-out fault timeouts. */
constexpr Tick kSettleWindow = 1u << 20;

/** Timeout/sweep horizon a recovery-armed run pushes past: forced
 *  retry rounds drive recovery instead of simulated time. */
constexpr Tick kFarFuture = Tick{1} << 50;

/** Forced-retry rounds before a stalled run is declared wedged. */
constexpr int kMaxRetryRounds = 16;

MachineConfig
armed(MachineConfig mc, bool recovery)
{
    if (recovery) {
        mc.faults.armRecovery = true;
        mc.faults.timeoutTicks = kFarFuture;
        mc.faults.sweepInterval = kFarFuture;
    }
    return mc;
}

} // namespace

// ----------------------------------------------------------------------
// The harness.
// ----------------------------------------------------------------------

Addr
modelCheckLine(int i)
{
    return (Addr{1} << 16) + static_cast<Addr>(i) * 4096;
}

MachineConfig
modelCheckMachine(ArchKind arch, int pNodes, int dNodes)
{
    MachineConfig mc = makeBaseConfig(arch);
    mc.numPNodes = pNodes;
    mc.numThreads = pNodes;
    mc.numDNodes = arch == ArchKind::Agg ? dNodes : 0;
    mc.pNodeMemBytes = 64 * 1024;
    mc.dNodeMemBytes = 64 * 1024;
    mc.l1 = CacheParams{1024, 1, 64, 3};
    mc.l2 = CacheParams{4096, 1, 64, 6};
    fitMesh(mc.net, mc.totalNodes());
    mc.validate();
    return mc;
}

ModelCheckRun::ModelCheckRun(MachineConfig mc, bool recovery)
    : recovery_(recovery), m_(armed(std::move(mc), recovery))
{
    m_.setSendInterceptor([this](const Message &msg) {
        queues_[{msg.src, msg.dst}].push_back(msg);
        return true;
    });
}

void
ModelCheckRun::issue(const ScriptedAccess &a, Tick delay)
{
    const Addr line = blockAlign(
        a.addr, static_cast<std::uint64_t>(m_.config().mem.lineBytes));
    expectWrites_.emplace(line, 0);
    if (a.isWrite) {
        ++expectWrites_[line];
        ++pendingWrites_;
    }
    ++issued_;
    m_.eq().scheduleIn(delay, [this, a] {
        m_.compute(a.node)->access(
            a.addr, a.isWrite,
            [this, write = a.isWrite](Tick, ReadService) {
                ++completions_;
                if (write)
                    --pendingWrites_;
            });
    });
}

void
ModelCheckRun::settle()
{
    m_.eq().runUntil(m_.eq().curTick() + kSettleWindow);
}

void
ModelCheckRun::deliver(QueueKey q)
{
    std::deque<Message> &fifo = queues_.at(q);
    const Message msg = fifo.front();
    fifo.pop_front();
    note("deliver " + msg.toString());
    m_.deliverDirect(msg);
    ++deliveries_;
    settle();
}

void
ModelCheckRun::drop(QueueKey q)
{
    std::deque<Message> &fifo = queues_.at(q);
    note("drop " + fifo.front().toString());
    fifo.pop_front();
    ++faults_;
    settle();
}

void
ModelCheckRun::dup(QueueKey q)
{
    const Message &msg = queues_.at(q).front();
    note("dup " + msg.toString());
    m_.deliverDirect(msg);
    ++deliveries_;
    ++faults_;
    settle();
}

void
ModelCheckRun::failOver(NodeId dnode)
{
    note("fail over D-node " + std::to_string(dnode));
    failOverDNode(m_, dnode);
    for (auto &[key, fifo] : queues_) {
        if (key.second == dnode)
            fifo.clear();
    }
    voidable_ += pendingWrites_;
    settle();
}

void
ModelCheckRun::note(std::string step)
{
    trace_.push_back(std::move(step));
}

bool
ModelCheckRun::quiescent() const
{
    if (completions_ != issued_)
        return false;
    for (NodeId n : m_.computeNodes()) {
        if (!m_.compute(n)->quiescent())
            return false;
    }
    return true;
}

void
ModelCheckRun::finish(const std::function<bool()> &decide)
{
    while (true) {
        if (decide())
            continue;
        if (quiescent())
            break;
        forceRetries();
    }
    checkTerminal();
}

void
ModelCheckRun::finish()
{
    finish([this] {
        for (const auto &[key, fifo] : queues_) {
            if (!fifo.empty()) {
                deliver(key);
                return true;
            }
        }
        return false;
    });
}

void
ModelCheckRun::traced(const std::function<void()> &body)
{
    try {
        body();
    } catch (const PanicError &e) {
        std::ostringstream os;
        os << e.what() << "\n  model-check schedule (" << trace_.size()
           << " steps):";
        for (const std::string &s : trace_)
            os << "\n    " << s;
        throw PanicError(os.str());
    }
}

void
ModelCheckRun::forceRetries()
{
    if (!recovery_)
        panic("model-check deadlock without any injected fault\n" +
              m_.stuckDiagnostic());
    if (++retryRounds_ > kMaxRetryRounds)
        panic("model-check schedule wedged: " +
              std::to_string(kMaxRetryRounds) +
              " forced-retry rounds made no progress\n" +
              m_.stuckDiagnostic());
    int sent = 0;
    for (NodeId n : m_.computeNodes())
        sent += m_.compute(n)->retryStalledTransactions(true);
    note("force-retry round " + std::to_string(retryRounds_) + " (" +
         std::to_string(sent) + " resends)");
    settle();
}

void
ModelCheckRun::checkTerminal()
{
    if (completions_ != issued_)
        panic("model-check schedule lost accesses: " +
              std::to_string(completions_) + "/" +
              std::to_string(issued_) + " completed\n" +
              m_.stuckDiagnostic());
    m_.checkInvariants();
    m_.checkCoherenceQuiescent();

    // Sequential reference: every scripted write must have committed
    // exactly once, so each touched line's final version is its script
    // write count (dedup must stop retried or duplicated requests from
    // committing twice). A write whose grant was lost and whose cached
    // reply was then scrubbed by a later invalidation gets re-served,
    // serializing the same store twice; the home counts those, and the
    // final versions may legitimately run ahead by exactly that many.
    // A failover loses the home's dedup records, so each write pending
    // across one may run ahead once more without being counted.
    Version extra = 0;
    for (const auto &[line, v] : expectWrites_) {
        const Version got = m_.latestVersion(line);
        if (got < v) {
            std::ostringstream os;
            os << "sequential reference mismatch on line 0x" << std::hex
               << line << std::dec << ": committed v" << got
               << ", script wrote " << v << " times";
            panic(os.str() + m_.oracle().lineHistory(line));
        }
        extra += got - v;
    }
    const auto reserved = static_cast<Version>(
        m_.stats().get("home.extra_write_serializations"));
    if (extra < reserved || extra > reserved + voidable_)
        panic("sequential reference mismatch: final versions run " +
              std::to_string(extra) +
              " ahead of the script's write count but the homes "
              "re-serialized " +
              std::to_string(reserved) + " scrubbed write retries (" +
              std::to_string(voidable_) +
              " writes were pending across a failover)");

    if (m_.oracle().violations() != 0)
        panic("model-check schedule ended with " +
              std::to_string(m_.oracle().violations()) +
              " coherence violations (degraded mode)");
}

} // namespace pimdsm
