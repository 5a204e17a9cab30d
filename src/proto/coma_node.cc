#include "proto/coma_node.hh"

#include "sim/log.hh"

namespace pimdsm
{

ComaHome::ComaHome(ProtoContext &ctx, NodeId self, int num_nodes)
    : HomeBase(ctx, self, spec::Role::ComaHome), numNodes_(num_nodes),
      maxProviderTries_(num_nodes < 6 ? num_nodes : 6),
      rng_(ctx.config().seed * 7919 + self)
{
}

void
ComaHome::initEntry(Addr, DirEntry &e)
{
    e.homeHasData = false;
    e.localPtr = kNilPtr;
}

bool
ComaHome::hasData(Addr line, const DirEntry &e) const
{
    // The home keeps no backing memory, but the home *node's* own
    // attraction memory may cache the line, allowing a 2-hop reply.
    return e.isSharer(self_) && am_ &&
           cohValid(am_->peekState(line));
}

Tick
ComaHome::dataAccessLatency(DirEntry &)
{
    return ctx_.config().mem.onChipLatency;
}

Tick
ComaHome::absorbData(Addr, DirEntry &, Version)
{
    panic("COMA homes never absorb data");
}

void
ComaHome::releaseData(Addr, DirEntry &)
{
    // Nothing to free: the attraction-memory copy is invalidated by
    // the regular invalidation sent to this node's compute side.
}

void
ComaHome::serveColdRead(Addr line, DirEntry &e, const Message &req,
                        Tick when)
{
    // Flat COMA: a cold (or disk-overflowed) line materializes as a
    // master copy at the requester's attraction memory.
    if (e.pagedOut) {
        when += ctx_.config().dnode.diskLatency;
        e.pagedOut = false;
        ctx_.stats().add("coma.disk_restore");
    }
    // The requester is recorded outside the directory pointer limit.
    grantRead(line, e, req, when, true, 0);
}

void
ComaHome::handleWriteBack(const Message &msg, DirEntry &e)
{
    // Acked before the home takes the line over, with no absorb
    // latency: the evictor may proceed at once, and the home now
    // safeguards the last copy.
    serveWriteBack(msg, e, true, [&](bool from_owner,
                                     bool from_master) -> Tick {
        const Addr line = msg.lineAddr;
        e.dropSharer(msg.src);
        if (!from_owner && !from_master)
            return 0;
        e.owner = kInvalidNode;
        e.masterOut = false;
        e.state = e.sharers != 0 ? DirEntry::State::Shared
                                 : DirEntry::State::Uncached;
        noteDir(line, e);

        PendingInject pi;
        pi.version = msg.version;
        pi.masterClean = from_master;
        pi.evictor = msg.src;
        if (from_master && e.sharers != 0) {
            // Cheaper than injection: hand mastership to a current
            // sharer.
            for (NodeId n = 0; n < 64; ++n) {
                if (e.isSharer(n))
                    pi.grantCandidates.push_back(n);
            }
            pi.grantMode = true;
        }

        ctx_.stats().add("coma.injections");
        e.busy = true;
        auto [it, inserted] = pendingInjects_.emplace(line, std::move(pi));
        if (!inserted)
            panic("second injection started for a line");
        stepInjection(line, it->second);
        return 0;
    });
}

NodeId
ComaHome::pickProvider(const PendingInject &pi)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        const NodeId p = static_cast<NodeId>(
            rng_.nextBounded(static_cast<std::uint64_t>(numNodes_)));
        if (p != pi.evictor && p != pi.lastTried)
            return p;
    }
    return pi.evictor == 0 && numNodes_ > 1 ? 1 : 0;
}

void
ComaHome::stepInjection(Addr line, PendingInject &pi)
{
    const Tick now = ctx_.eq().curTick();

    if (pi.grantMode && !pi.grantCandidates.empty()) {
        const NodeId c = pi.grantCandidates.back();
        pi.grantCandidates.pop_back();
        pi.lastTried = c;
        Message g;
        g.type = MsgType::MasterGrant;
        g.dst = c;
        g.lineAddr = line;
        g.version = pi.version;
        sendAt(now, g);
        return;
    }
    pi.grantMode = false;

    if (pi.providerTries >= maxProviderTries_) {
        // Nobody could take the line: overflow to disk.
        ctx_.stats().add("coma.disk_overflow");
        DirEntry &e = entryFor(line);
        e.pagedOut = true;
        e.version = pi.version;
        noteDir(line, e);
        pendingInjects_.erase(line);
        finishTxn(line);
        return;
    }

    const NodeId p = pickProvider(pi);
    ++pi.providerTries;
    pi.lastTried = p;
    ctx_.stats().add("coma.injection_hop");

    Message inj;
    inj.type = MsgType::Inject;
    inj.dst = p;
    inj.lineAddr = line;
    inj.version = pi.version;
    inj.masterClean = pi.masterClean;
    sendAt(now, inj);
}

void
ComaHome::handleInjectResponse(const Message &msg)
{
    auto it = pendingInjects_.find(msg.lineAddr);
    if (it == pendingInjects_.end())
        panic("injection response with no pending injection: " +
              msg.toString());
    PendingInject &pi = it->second;
    DirEntry &e = entryFor(msg.lineAddr);

    engine_.acquire(ctx_.eq().curTick(), scaled(costs().ackOccupancy));

    if (msg.type == MsgType::InjectAck) {
        if (pi.masterClean) {
            e.state = DirEntry::State::Shared;
            e.masterOut = true;
            e.owner = msg.src;
            e.addSharer(msg.src);
        } else {
            e.state = DirEntry::State::Dirty;
            e.owner = msg.src;
            e.sharers = 0;
        }
        noteDir(msg.lineAddr, e);
        const Addr line = msg.lineAddr;
        pendingInjects_.erase(it);
        finishTxn(line);
        return;
    }

    // Nack.
    if (pi.grantMode && !ctx_.config().faults.enabled()) {
        // The candidate silently dropped its copy: a stale sharer bit.
        e.dropSharer(msg.src);
        if (e.sharers == 0 && e.state == DirEntry::State::Shared)
            e.state = DirEntry::State::Uncached;
        noteDir(msg.lineAddr, e);
    }
    // Under faults a Nack does not prove absence: the candidate's
    // granted copy may still be in flight (a dropped reply the home
    // just replayed), and dropping its sharer bit would let a later
    // write serialize without ever invalidating the copy that then
    // installs. Keep the bit; the write's Inval loop invalidates the
    // node and scrubs its cached reply whether or not it installed.
    stepInjection(msg.lineAddr, pi);
}

double
ComaHome::costFactor() const
{
    return ctx_.config().handlers.hardwareFactor;
}

Tick
ComaHome::handlerLatency(const Message &req, Tick base) const
{
    if (req.src == self_)
        return 0;
    return scaled(base);
}

} // namespace pimdsm
