#include "check/explorer.hh"

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
    mc.check.enabled = true;
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
    if (a.isWrite)
        ++expectWrites_[line];
    ++issued_;
    m_.eq().scheduleIn(delay, [this, a] {
        m_.compute(a.node)->access(
            a.addr, a.isWrite,
            [this](Tick, ReadService) { ++completions_; });
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
ModelCheckRun::discardTo(NodeId dst)
{
    for (auto &[key, fifo] : queues_) {
        if (key.second == dst)
            fifo.clear();
    }
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
    const auto reserved = m_.stats().get("home.extra_write_serializations");
    if (extra != static_cast<Version>(reserved))
        panic("sequential reference mismatch: final versions run " +
              std::to_string(extra) +
              " ahead of the script's write count but the homes "
              "re-serialized " +
              std::to_string(reserved) + " scrubbed write retries");

    if (m_.oracle().violations() != 0)
        panic("model-check schedule ended with " +
              std::to_string(m_.oracle().violations()) +
              " coherence violations (degraded mode)");
}

// ----------------------------------------------------------------------
// The stateless-DFS explorer.
// ----------------------------------------------------------------------

namespace
{

/** One executable option at a decision point. */
struct Choice
{
    enum class Kind
    {
        Deliver,
        Drop,
        Dup,
        Kill,
    };
    Kind kind = Kind::Deliver;
    /** Deliver/Drop/Dup: which pair queue's head. */
    ModelCheckRun::QueueKey queue{kInvalidNode, kInvalidNode};
    /** Kill: the D-node to fail-stop. */
    NodeId victim = kInvalidNode;
};

/** One schedule: a fresh run replaying a choice prefix. */
class ScheduleRun
{
  public:
    ScheduleRun(const ExplorerConfig &cfg, const std::vector<int> &prefix)
        : cfg_(cfg), prefix_(prefix),
          run_(cfg.machine, cfg.faultMode != ExplorerFaultMode::None)
    {
    }

    void
    execute()
    {
        run_.traced([this] {
            // Stagger issues by one tick for a deterministic order.
            for (std::size_t i = 0; i < cfg_.accesses.size(); ++i)
                run_.issue(cfg_.accesses[i], static_cast<Tick>(i));
            run_.settle();
            run_.finish([this] { return decide(); });
        });
    }

    /** Choice indices actually taken, in order. */
    const std::vector<int> &taken() const { return taken_; }
    /** Branching factor at each decision (parallel to taken()). */
    const std::vector<int> &counts() const { return counts_; }
    bool faultUsed() const { return run_.faults() > 0 || killed_; }

  private:
    std::vector<Choice>
    enumerateChoices() const
    {
        std::vector<Choice> out;
        for (const auto &[key, q] : run_.queues()) {
            if (!q.empty())
                out.push_back({Choice::Kind::Deliver, key, kInvalidNode});
        }
        if (cfg_.faultMode == ExplorerFaultMode::DropDup &&
            run_.faults() < cfg_.faultBudget) {
            for (const auto &[key, q] : run_.queues()) {
                if (q.empty())
                    continue;
                const MsgClass cls = msgClassOf(q.front().type);
                if (msgClassDroppable(cls))
                    out.push_back({Choice::Kind::Drop, key, kInvalidNode});
                if (msgClassDupSafe(cls))
                    out.push_back({Choice::Kind::Dup, key, kInvalidNode});
            }
        }
        if (cfg_.faultMode == ExplorerFaultMode::Death && !killed_ &&
            !run_.quiescent()) {
            const std::vector<NodeId> dnodes =
                run_.machine().directoryNodes();
            if (dnodes.size() >= 2) {
                for (NodeId d : dnodes)
                    out.push_back({Choice::Kind::Kill, {}, d});
            }
        }
        return out;
    }

    /** Take the prefix's choice, or choice 0 past its end. */
    bool
    decide()
    {
        const std::vector<Choice> choices = enumerateChoices();
        if (choices.empty())
            return false;
        const std::size_t depth = taken_.size();
        const int pick = depth < prefix_.size() ? prefix_[depth] : 0;
        if (pick >= static_cast<int>(choices.size()))
            panic("model-check replay prefix names choice " +
                  std::to_string(pick) + " of " +
                  std::to_string(choices.size()) +
                  " (nondeterministic run?)");
        counts_.push_back(static_cast<int>(choices.size()));
        taken_.push_back(pick);
        apply(choices[pick]);
        return true;
    }

    void
    apply(const Choice &c)
    {
        switch (c.kind) {
          case Choice::Kind::Deliver:
            run_.deliver(c.queue);
            break;
          case Choice::Kind::Drop:
            run_.drop(c.queue);
            break;
          case Choice::Kind::Dup:
            run_.dup(c.queue);
            break;
          case Choice::Kind::Kill:
            run_.note("kill D-node " + std::to_string(c.victim));
            failOverDNode(run_.machine(), c.victim);
            // In-flight traffic to the dead node would be dropped at
            // delivery anyway; purge it so it stops generating
            // meaningless delivery choices. Traffic it already sent
            // is on the wire and stays deliverable.
            run_.discardTo(c.victim);
            killed_ = true;
            run_.settle();
            break;
        }
    }

    const ExplorerConfig &cfg_;
    const std::vector<int> &prefix_;
    ModelCheckRun run_;
    std::vector<int> taken_;
    std::vector<int> counts_;
    bool killed_ = false;
};

} // namespace

Explorer::Explorer(ExplorerConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.accesses.empty())
        fatal("explorer needs at least one scripted access");
    if (cfg_.faultMode != ExplorerFaultMode::None && cfg_.faultBudget < 1)
        fatal("fault exploration needs a positive fault budget");
    const MachineConfig &mc = cfg_.machine;
    if (cfg_.faultMode == ExplorerFaultMode::Death) {
        if (mc.arch != ArchKind::Agg)
            fatal("D-node death exploration requires an AGG machine");
        if (mc.numDNodes < 2)
            fatal("D-node death exploration needs a failover survivor");
    }
    mc.validate();
    for (const ScriptedAccess &a : cfg_.accesses) {
        if (a.node < 0 || a.node >= mc.totalNodes())
            fatal("scripted access names a node outside the machine");
    }
}

ExplorerResult
Explorer::run()
{
    ExplorerResult res;
    std::vector<int> prefix;
    while (true) {
        ScheduleRun sched(cfg_, prefix);
        sched.execute();
        ++res.schedules;
        res.decisions += sched.taken().size();
        res.reExecuted += prefix.size();
        res.visited += sched.taken().size() - prefix.size();
        if (sched.faultUsed())
            ++res.faultSchedules;

        // Backtrack to the deepest decision with an unexplored sibling.
        const std::vector<int> &taken = sched.taken();
        const std::vector<int> &counts = sched.counts();
        int i = static_cast<int>(counts.size()) - 1;
        while (i >= 0 && taken[i] + 1 >= counts[i])
            --i;
        if (i < 0)
            break; // choice tree exhausted
        if (res.schedules >= cfg_.maxSchedules) {
            res.truncated = true;
            break;
        }
        prefix.assign(taken.begin(), taken.begin() + i);
        prefix.push_back(taken[i] + 1);
    }
    return res;
}

} // namespace pimdsm
