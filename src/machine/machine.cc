#include "machine/machine.hh"

#include <sstream>
#include <vector>

#include "check/scan.hh"
#include "sim/log.hh"

namespace pimdsm
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), mesh_(eq_, cfg.net, cfg.totalNodes()),
      pageMap_(cfg.pageBytes),
      versions_(cfg.mem.lineBytes, cfg.pageBytes),
      oracle_(cfg, versions_, stats_)
{
    cfg_.validate();
    roles_.resize(cfg_.totalNodes());
    computes_.resize(cfg_.totalNodes());
    homes_.resize(cfg_.totalNodes());
    dead_.assign(cfg_.totalNodes(), 0);

    faults_.init(cfg_.faults, &stats_);
    if (faults_.active())
        mesh_.setFaultPlan(&faults_);
    mesh_.setStats(&stats_);

    if (cfg_.arch == ArchKind::Agg)
        buildAgg();
    else
        buildNumaOrComa();
}

void
Machine::buildAgg()
{
    // Node ids [0, P) are P-nodes, [P, P+D) are D-nodes; the mesh
    // placement interleaves them physically (see Mesh::setPlacement).
    // When the machine is reconfigurable, every node carries both
    // controllers so roles can change at run time.
    for (NodeId n = 0; n < cfg_.numPNodes; ++n) {
        roles_[n] = NodeRole::Compute;
        computes_[n] = std::make_unique<CachedMemCompute>(
            *this, n, cfg_.pNodeMemBytes, false);
        if (cfg_.reconfigurable) {
            homes_[n] = std::make_unique<AggDNodeHome>(
                *this, n, cfg_.dNodeMemBytes);
        }
    }
    for (NodeId n = cfg_.numPNodes; n < cfg_.totalNodes(); ++n) {
        roles_[n] = NodeRole::Directory;
        homes_[n] =
            std::make_unique<AggDNodeHome>(*this, n, cfg_.dNodeMemBytes);
        if (cfg_.reconfigurable) {
            computes_[n] = std::make_unique<CachedMemCompute>(
                *this, n, cfg_.pNodeMemBytes, false);
        }
    }

    // Physical placement: spread the D-nodes evenly across the mesh
    // so protocol traffic does not funnel through the bisection
    // between a P half and a D half.
    const int total = cfg_.totalNodes();
    std::vector<int> placement(total);
    std::vector<NodeId> ds, ps;
    for (NodeId n = 0; n < total; ++n) {
        const bool d_slot = ((n + 1) * cfg_.numDNodes) / total >
                            (n * cfg_.numDNodes) / total;
        (d_slot ? ds : ps).push_back(n);
    }
    std::size_t pi = 0, di = 0;
    for (NodeId slot = 0; slot < total; ++slot) {
        const bool d_slot = ((slot + 1) * cfg_.numDNodes) / total >
                            (slot * cfg_.numDNodes) / total;
        // D-ids are [numPNodes, total); P-ids are [0, numPNodes).
        placement[slot] = d_slot
                              ? cfg_.numPNodes + static_cast<int>(di++)
                              : static_cast<int>(pi++);
    }
    mesh_.setPlacement(placement);
}

void
Machine::buildNumaOrComa()
{
    const bool coma = cfg_.arch == ArchKind::Coma;
    for (NodeId n = 0; n < cfg_.numPNodes; ++n) {
        roles_[n] = NodeRole::Both;
        if (coma) {
            auto am = std::make_unique<CachedMemCompute>(
                *this, n, cfg_.pNodeMemBytes, true);
            auto hm =
                std::make_unique<ComaHome>(*this, n, cfg_.numPNodes);
            hm->setLocalCompute(am.get());
            computes_[n] = std::move(am);
            homes_[n] = std::move(hm);
        } else {
            computes_[n] = std::make_unique<NumaCompute>(*this, n);
            homes_[n] = std::make_unique<NumaHome>(*this, n,
                                                   cfg_.pNodeMemBytes);
        }
    }
}

std::vector<NodeId>
Machine::computeNodes() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (isCompute(n) && computes_[n] && !isDead(n))
            result.push_back(n);
    }
    return result;
}

std::vector<NodeId>
Machine::directoryNodes() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (isDirectory(n) && homes_[n] && !isDead(n))
            result.push_back(n);
    }
    return result;
}

void
Machine::markDead(NodeId n)
{
    if (n < 0 || n >= totalNodes())
        panic("markDead: no such node");
    dead_[n] = 1;
    if (homes_[n])
        homes_[n]->setDead(true);
}

NodeId
Machine::homeOf(Addr line_addr, NodeId toucher)
{
    const NodeId mapped = pageMap_.homeOf(line_addr);
    if (mapped != kInvalidNode)
        return mapped;

    NodeId home;
    if (cfg_.arch == ArchKind::Agg) {
        // First touch maps the page at a D-node; spread pages across
        // the directory nodes round-robin.
        const auto dnodes = directoryNodes();
        if (dnodes.empty())
            panic("AGG machine with no directory nodes");
        home = dnodes[nextDNode_++ % dnodes.size()];
    } else {
        // First-touch policy: the toucher's node is the home.
        home = toucher;
    }
    pageMap_.assign(line_addr, home);
    return home;
}

void
Machine::send(Message msg)
{
    if (msg.src == kInvalidNode || msg.dst == kInvalidNode)
        panic("message with unset endpoints: " + msg.toString());

    // Fail-stop: a dead node emits nothing (events queued before the
    // death still fire, so the send side must filter too).
    if (isDead(msg.src)) {
        stats_.add("fault.msg_from_dead");
        return;
    }

    // Model-check explorer: take custody of the message instead of
    // scheduling it; the explorer re-injects it via deliverDirect in
    // whatever order the current schedule dictates.
    if (interceptor_ && interceptor_(msg))
        return;

    const NodeId src = msg.src;
    const NodeId dst = msg.dst;
    const int payload = msg.payloadBytes(cfg_.mem.lineBytes);
    const MsgClass cls = msgClassOf(msg.type);

    // The closure carries the Message by value: this plus a trivially
    // copyable Message fits InlineCallback's budget, so the mesh builds
    // the delivery directly in its event node and never touches the
    // heap.
    const auto deliver = [this, msg] { deliverDirect(msg); };

    if (src == dst) {
        // On-chip: bypass the network entirely.
        eq_.scheduleIn(1, deliver);
        return;
    }
    mesh_.send(src, dst, payload, deliver, cls);
}

void
Machine::deliverDirect(const Message &msg)
{
    if (isDead(msg.dst)) {
        // Died while the message was in flight.
        stats_.add("fault.msg_to_dead");
        return;
    }
    if (oracle_.enabled())
        oracle_.noteMessage(eq_.curTick(), msg);
    if (Trace::enabled())
        Trace::print(eq_.curTick(), msg.toString());
    if (msgBoundForHome(msg.type)) {
        if (!homes_[msg.dst])
            panic("home-bound message to a pure compute node: " +
                  msg.toString());
        homes_[msg.dst]->handleMessage(msg);
    } else {
        if (!computes_[msg.dst])
            panic("compute-bound message to a pure D-node: " +
                  msg.toString());
        computes_[msg.dst]->handleMessage(msg);
    }
}

Version
Machine::bumpVersion(Addr line)
{
    Version &slot = versions_.slot(line);
    if (slot == kVersionLimit) {
        std::ostringstream os;
        os << "line 0x" << std::hex << line << std::dec
           << " wrote past the 32-bit version limit (" << kVersionLimit
           << ")";
        panic(os.str());
    }
    const Version v = ++slot;
    if (oracle_.enabled())
        oracle_.noteWriteCommit(eq_.curTick(), line, v);
    return v;
}

std::uint64_t
Machine::computeNodeMask() const
{
    std::uint64_t mask = 0;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (isCompute(n) && computes_[n] && !isDead(n))
            mask |= 1ull << n;
    }
    return mask;
}

Version
Machine::latestVersion(Addr line) const
{
    const Version *v = versions_.find(line);
    return v ? *v : 0;
}

LineCensus
Machine::collectCensus() const
{
    LineCensus census;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (isDirectory(n) && homes_[n])
            homes_[n]->collectCensus(census);
    }
    return census;
}

ReadLatencyStats
Machine::aggregateReadStats() const
{
    ReadLatencyStats total;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (computes_[n])
            total += computes_[n]->readStats();
    }
    return total;
}

void
Machine::dumpState(std::ostream &os) const
{
    os << "=== machine state at tick " << eq_.curTick() << " ===\n";
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (computes_[n] && computes_[n]->outstanding()) {
            os << "node " << n << ": " << computes_[n]->outstanding()
               << " outstanding MSHRs\n";
        }
        if (homes_[n]) {
            const DirectoryTable &dir = homes_[n]->directory();
            dir.forEach([&](Addr a, const DirEntry &e) {
                const std::size_t queued = dir.queued(a);
                if (e.busy || queued != 0) {
                    os << "home " << n << ": line 0x" << std::hex
                       << a << std::dec << " busy=" << e.busy
                       << " pending=" << queued
                       << " state=" << static_cast<int>(e.state)
                       << " owner=" << e.owner
                       << " sharers=0x" << std::hex << e.sharers
                       << std::dec << "\n";
                }
            });
        }
    }
}

std::string
Machine::stuckDiagnostic() const
{
    std::ostringstream os;
    os << stuckReport(collectStuck());
    if (mesh_.partitionBlocked() > 0) {
        os << "  " << mesh_.partitionBlocked()
           << " message(s) queued against an unroutable partition ("
           << mesh_.deadLinkCount() << " dead links)\n";
    }
    return os.str();
}

std::vector<StuckTxn>
Machine::collectStuck() const
{
    std::vector<StuckTxn> stuck;
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (computes_[n])
            computes_[n]->collectStuck(stuck);
        if (homes_[n])
            homes_[n]->collectStuck(stuck);
    }
    return stuck;
}

void
Machine::checkInvariants() const
{
    for (NodeId n = 0; n < totalNodes(); ++n) {
        if (homes_[n])
            homes_[n]->checkInvariants();
        if (computes_[n])
            computes_[n]->checkInclusion();
    }
    checkGlobalInvariants(*this);
}

void
Machine::checkCoherenceQuiescent() const
{
    checkQuiescentCoherence(*this);
}

} // namespace pimdsm
