#include "proto/home_base.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "check/oracle.hh"
#include "sim/log.hh"

namespace pimdsm
{

HomeBase::HomeBase(ProtoContext &ctx, NodeId self, spec::Role role)
    : ctx_(ctx), self_(self), role_(role),
      dispatch_(&spec::dispatchTable<HomeBase>(
          role, {
                    {MsgType::ReadReq, &HomeBase::acceptRequest},
                    {MsgType::ReadExReq, &HomeBase::acceptRequest},
                    {MsgType::UpgradeReq, &HomeBase::acceptRequest},
                    {MsgType::WriteBack, &HomeBase::enqueueOrServe},
                    {MsgType::TxnDone, &HomeBase::handleTxnDone},
                    {MsgType::OwnerToHome, &HomeBase::handleOwnerToHome},
                    {MsgType::InjectAck, &HomeBase::handleInjectResponse},
                    {MsgType::InjectNack, &HomeBase::handleInjectResponse},
                    {MsgType::CimReq, &HomeBase::handleCimReq},
                })),
      dir_(ctx.config().mem.lineBytes, ctx.config().pageBytes),
      faultsOn_(ctx.config().faults.enabled())
{
}

Tick
HomeBase::scaled(Tick t) const
{
    return static_cast<Tick>(std::llround(t * costFactor()));
}

Tick
HomeBase::handlerLatency(const Message &, Tick base) const
{
    return scaled(base);
}

void
HomeBase::sendAt(Tick when, Message msg)
{
    // Messages must enter the mesh in the order the home committed
    // their state transitions: the immediate-unblock optimization
    // relies on a later transaction's Inval/Fwd never overtaking an
    // earlier reply to the same node. The mesh preserves per-pair
    // order, so monotonic egress suffices.
    if (when < egressClock_)
        when = egressClock_;
    egressClock_ = when;
    msg.src = self_;
    ctx_.eq().schedule(when, [this, msg] { ctx_.send(msg); });
}

void
HomeBase::noteDir(Addr line, const DirEntry &e)
{
    if (CoherenceOracle *o = ctx_.checker())
        o->noteDirEntry(ctx_.eq().curTick(), self_, line, e);
}

DirEntry &
HomeBase::entryFor(Addr line)
{
    DirEntry *existing = dir_.find(line);
    if (existing)
        return *existing;
    DirEntry &e = dir_.entry(line);
    initEntry(line, e);
    return e;
}

void
HomeBase::updateLinkage(Addr, DirEntry &)
{
}

Tick
HomeBase::pageIn(Addr, DirEntry &e)
{
    e.pagedOut = false;
    return 0;
}

bool
HomeBase::wantsSharingData(Addr line, const DirEntry &e) const
{
    return backsLines() && !hasData(line, e);
}

void
HomeBase::handleMessage(const Message &msg)
{
    const Tick when = ctx_.eq().curTick() + detectDelay();
    Message copy = msg;
    ctx_.eq().schedule(when, [this, copy] {
        // A handler event scheduled before the node died must not run
        // after it (fail-stop).
        if (!dead_)
            spec::dispatch(*this, *dispatch_, role_, copy);
    });
}

void
HomeBase::acceptRequest(const Message &msg)
{
    // A request from a fail-stopped node must not start a transaction:
    // the line would block on a TxnDone the dead requester can never
    // send.
    if (faultsOn_ && ctx_.nodeDead(msg.src)) {
        ctx_.stats().add("home.req_from_dead_dropped");
        return;
    }
    // Retried requests must be recognized *before* the busy check: a
    // dup of the very transaction the line is blocked on would
    // otherwise queue behind itself and deadlock.
    if (faultsOn_ && msg.txnSeq != 0 && dedupRequest(msg))
        return;
    enqueueOrServe(msg);
}

void
HomeBase::enqueueOrServe(const Message &msg)
{
    DirEntry &e = entryFor(msg.lineAddr);
    if (e.busy) {
        dir_.queue(msg.lineAddr).push_back(msg);
        ctx_.stats().add("home.blocked_requests");
        return;
    }
    serveRequest(msg, e);
}

void
HomeBase::serveRequest(const Message &msg, DirEntry &e)
{
    switch (msg.type) {
      case MsgType::ReadReq:
        serveRead(msg.lineAddr, e, msg);
        break;
      case MsgType::ReadExReq:
      case MsgType::UpgradeReq:
        serveWrite(msg.lineAddr, e, msg);
        break;
      case MsgType::WriteBack:
        handleWriteBack(msg, e);
        break;
      default:
        panic("serveRequest: bad type " + msg.toString());
    }
}

void
HomeBase::serveRead(Addr line, DirEntry &e, const Message &req)
{
    e.busy = true;
    e.busyFor = req.src;
    e.fwdTo = kInvalidNode;

    const Tick now = ctx_.eq().curTick();
    const Tick start = engine_.acquire(now, scaled(costs().readOccupancy));
    Tick when = start + handlerLatency(req, costs().readLatency);
    const int ptrs = ctx_.config().directoryPointers;

    if (e.state == DirEntry::State::Dirty) {
        if (faultsOn_ && e.owner == req.src) {
            // Retry of a read from the node our records call the dirty
            // owner (its granting reply was lost, e.g. across a
            // failover): re-grant a master copy idempotently at the
            // already-committed version instead of forwarding to self.
            ctx_.stats().add("home.regrant_read");
            e.sharers = 0;
            e.ptrOverflow = false;
            e.masterOut = grantsMasterOnRead();
            if (!grantsMasterOnRead()) {
                // NUMA: restore the always-backing home memory.
                when += absorbData(line, e, e.version);
                e.owner = kInvalidNode;
            }
            grantRead(line, e, req, when, grantsMasterOnRead(), ptrs);
            return;
        }
        // 3-hop: the owner supplies the data and keeps mastership as a
        // SharedMaster copy (no home slot is consumed now; the owner's
        // sharing writeback may restore one).
        forward(e, req, when, FwdKind::Read, e.owner, e.version, 0);
        e.state = DirEntry::State::Shared;
        e.sharers = 0;
        e.ptrOverflow = false;
        e.addSharer(e.owner);
        e.addSharerLimited(req.src, ptrs);
        if (grantsMasterOnRead()) {
            // The old owner keeps mastership as a SharedMaster copy.
            e.masterOut = true;
        } else {
            // NUMA: the owner downgrades to a plain sharer and the
            // sharing writeback restores the home memory.
            e.masterOut = false;
            e.owner = kInvalidNode;
        }
        updateLinkage(line, e);
        noteDir(line, e);
        return;
    }

    if (e.pagedOut)
        when += pageIn(line, e);

    if (hasData(line, e)) {
        // The serialization point: the oracle checks that the home
        // copy is the latest committed write.
        if (CoherenceOracle *o = ctx_.checker())
            o->noteHomeServe(ctx_.eq().curTick(), self_, req.src, line,
                             e.version);
        when += dataAccessLatency(e);
        // Re-granting mastership to the node that already holds it is
        // idempotent (only reachable when a granting reply was lost).
        grantRead(line, e, req, when,
                  grantsMasterOnRead() &&
                      (!e.masterOut || e.owner == req.src),
                  ptrs);
        return;
    }

    // A master copy cannot serve a forwarded read to itself; if the
    // recorded master *is* the requester (lost grant), fall through to
    // the cold path and re-serve it from home storage.
    if (e.masterOut && e.owner != req.src) {
        // Home dropped its copy; 3-hop via the master (the paper's
        // motivation for discouraging SharedList reuse).
        ctx_.stats().add("home.read_via_master");
        forward(e, req, when, FwdKind::Read, e.owner, e.version, 0);
        e.state = DirEntry::State::Shared;
        e.addSharerLimited(req.src, ptrs);
        updateLinkage(line, e);
        noteDir(line, e);
        return;
    }

    serveColdRead(line, e, req, when);
}

void
HomeBase::serveColdRead(Addr line, DirEntry &e, const Message &req,
                        Tick when)
{
    // Zero-fill the line into home storage, then serve it like a
    // regular home hit.
    when += absorbData(line, e, e.version);
    when += dataAccessLatency(e);
    grantRead(line, e, req, when, grantsMasterOnRead(),
              ctx_.config().directoryPointers);
}

void
HomeBase::grantRead(Addr line, DirEntry &e, const Message &req, Tick when,
                    bool master, int max_ptrs)
{
    Message r;
    r.type = MsgType::ReadReply;
    r.dst = req.src;
    r.lineAddr = line;
    r.version = e.version;
    r.legs = req.legs + 1;
    r.grantsMaster = master;
    if (master) {
        e.masterOut = true;
        e.owner = req.src;
    }
    e.state = DirEntry::State::Shared;
    e.addSharerLimited(req.src, max_ptrs);
    updateLinkage(line, e);
    // No third party involved: the line unblocks right away (the mesh
    // delivers our later messages to the requester after this reply).
    e.busy = false;
    noteDir(line, e);
    sendReplyTracked(when, r, req);
}

void
HomeBase::forward(DirEntry &e, const Message &req, Tick when, FwdKind kind,
                  NodeId to, Version v, int acks)
{
    Message f;
    f.type = MsgType::Fwd;
    f.fwdKind = kind;
    f.dst = to;
    f.requester = req.src;
    f.lineAddr = req.lineAddr;
    // A read forward carries the version the directory expects the
    // owner to hold: if a fault lost the owner's granting reply, the
    // owner can see the directory ran ahead of it and defer the
    // forward until its own transaction replays (serving now would
    // hand the reader a stale copy). A write forward carries the new
    // write generation.
    f.version = v;
    f.ackCount = acks;
    f.legs = req.legs + 1;
    f.txnSeq = req.txnSeq;
    sendAt(when, f);
    // Kept apart from owner, which a write rewrites to the requester.
    e.fwdTo = to;
}

void
HomeBase::serveWrite(Addr line, DirEntry &e, const Message &req)
{
    e.busy = true;
    e.busyFor = req.src;
    e.fwdTo = kInvalidNode;

    const NodeId requester = req.src;
    const Tick now = ctx_.eq().curTick();

    if (ctx_.config().check.mutation == ProtoMutation::DoubleOwner &&
        e.state == DirEntry::State::Dirty && e.owner != requester) {
        // Deliberate protocol mutation (oracle self-test): forget the
        // dirty owner and serve the write as if the line were uncached,
        // leaving two nodes believing they own it. The oracle's SWMR
        // check fires when the second owner installs.
        ctx_.stats().add("check.mutation.double_owner");
        e.state = DirEntry::State::Uncached;
        e.owner = kInvalidNode;
        e.sharers = 0;
        e.masterOut = false;
    }

    if (e.state == DirEntry::State::Dirty && e.owner == requester) {
        // Retry of a write we already granted (the reply or our
        // served_ record was lost, e.g. across a failover): re-grant
        // ownership idempotently at the already-committed version —
        // bumping again would break the version oracle.
        if (!faultsOn_)
            panic("write request from current dirty owner");
        ctx_.stats().add("home.regrant_write");
        const Tick start =
            engine_.acquire(now, scaled(costs().readExOccupancy));
        const Tick when = start + handlerLatency(req, costs().readExLatency);
        Message r;
        r.type = MsgType::ReadExReply;
        r.dst = requester;
        r.lineAddr = line;
        r.ackCount = 0;
        r.version = e.version;
        r.legs = req.legs + 1;
        r.needsTxnDone = false;
        e.busy = false;
        sendReplyTracked(when, r, req);
        return;
    }

    const Version vnew = ctx_.bumpVersion(line);

    if (e.state == DirEntry::State::Dirty) {
        const Tick start =
            engine_.acquire(now, scaled(costs().readExOccupancy));
        const Tick when = start + handlerLatency(req, costs().readExLatency);
        forward(e, req, when, FwdKind::ReadEx, e.owner, vnew, 0);
        e.state = DirEntry::State::Dirty;
        e.owner = requester;
        e.sharers = 0;
        e.version = vnew; // home tracks the latest committed generation
        updateLinkage(line, e);
        noteDir(line, e);
        return;
    }

    // Shared or Uncached.
    std::uint64_t inv_set = e.sharers & ~(1ull << requester);
    if (e.ptrOverflow) {
        // Limited-pointer overflow: invalidate every compute node.
        inv_set = ctx_.computeNodeMask() & ~(1ull << requester);
        ctx_.stats().add("home.broadcast_invals");
    }
    bool fwd_to_master = false;
    NodeId master = kInvalidNode;
    if (!hasData(line, e) && !e.pagedOut && e.masterOut &&
        e.owner != requester) {
        fwd_to_master = true;
        master = e.owner;
        inv_set &= ~(1ull << master);
    }
    const int n_inv = __builtin_popcountll(inv_set);

    const Tick occ = scaled(costs().readExOccupancy) +
                     static_cast<Tick>(n_inv) *
                         scaled(costs().perInvalOccupancy);
    const Tick start = engine_.acquire(now, occ);
    Tick when = start + handlerLatency(req, costs().readExLatency);

    // Walk the set bits in ascending node order.
    for (std::uint64_t rest = inv_set; rest; rest &= rest - 1) {
        const NodeId t = static_cast<NodeId>(std::countr_zero(rest));
        Message i;
        i.type = MsgType::Inval;
        i.dst = t;
        i.requester = requester;
        i.lineAddr = line;
        sendAt(when, i);
        scrubServedReply(line, t);
    }

    const bool dataless_ok = req.type == MsgType::UpgradeReq &&
                             e.isSharer(requester) && !fwd_to_master;

    if (dataless_ok) {
        Message r;
        r.type = MsgType::UpgradeReply;
        r.dst = requester;
        r.lineAddr = line;
        r.ackCount = n_inv;
        r.version = vnew;
        r.legs = req.legs + 1;
        r.needsTxnDone = n_inv > 0;
        sendReplyTracked(when, r, req);
    } else if (fwd_to_master) {
        forward(e, req, when, FwdKind::ReadEx, master, vnew, n_inv);
    } else {
        if (e.pagedOut)
            when += pageIn(line, e);
        if (hasData(line, e))
            when += dataAccessLatency(e);
        // Cold writes serve a zero-filled line with no storage cost.
        Message r;
        r.type = MsgType::ReadExReply;
        r.dst = requester;
        r.lineAddr = line;
        r.ackCount = n_inv;
        r.version = vnew;
        r.legs = req.legs + 1;
        r.needsTxnDone = n_inv > 0;
        sendReplyTracked(when, r, req);
    }

    // Track the latest committed generation at the directory entry so
    // that replies served from non-home copies can be labeled.
    e.version = vnew;
    // Writes that neither forwarded nor invalidated anyone complete at
    // the home; unblock immediately.
    if (!fwd_to_master && n_inv == 0)
        e.busy = false;
    // The key AGG storage move: a line dirty in a P-node keeps no home
    // placeholder, so its Data slot is reclaimed here.
    releaseData(line, e);
    e.masterOut = false;
    e.state = DirEntry::State::Dirty;
    e.owner = requester;
    e.sharers = 0;
    e.ptrOverflow = false;
    e.homeHasData = false;
    e.pagedOut = false;
    updateLinkage(line, e);
    noteDir(line, e);
}

void
HomeBase::handleWriteBack(const Message &msg, DirEntry &e)
{
    serveWriteBack(msg, e, false, [&](bool from_owner, bool from_master) {
        return absorbWriteBack(msg.lineAddr, e, msg.src, msg.version,
                               from_owner, from_master, false);
    });
}

void
HomeBase::serveWriteBack(const Message &msg, DirEntry &e, bool ack_first,
                         FunctionRef<Tick(bool, bool)> tail)
{
    const Tick now = ctx_.eq().curTick();
    const Tick start =
        engine_.acquire(now, scaled(costs().writeBackOccupancy));
    Tick when = start + handlerLatency(msg, costs().writeBackLatency);

    Message ack;
    ack.type = MsgType::WriteBackAck;
    ack.dst = msg.src;
    ack.lineAddr = msg.lineAddr;

    // Duplicate writebacks are discarded by sequence number, not by
    // state: after a re-injection hands the evictor the same version
    // back, a straggler duplicate passes both attribution and the
    // version guard and would surrender an ownership the sender never
    // gave up again. Ack it (the sender may be a retry waiting on a
    // lost ack) and touch nothing.
    if (faultsOn_ && msg.txnSeq != 0) {
        ServedTxn &sv = served_[{msg.lineAddr, msg.src}];
        if (msg.txnSeq <= sv.wbSeq) {
            ctx_.stats().add("home.dup_writeback_ignored");
            sendAt(when, ack);
            return;
        }
        sv.wbSeq = msg.txnSeq;
    }

    // A legitimate owner/master writeback always carries the entry's
    // current version; a duplicated WriteBack can straggle until after
    // its sender re-acquired the line (e.g. a COMA re-injection), when
    // it would otherwise pass attribution and absorb stale data.
    const bool stale = faultsOn_ && msg.version < e.version;
    const auto [from_owner, from_master] =
        attributeWriteBack(e, msg.src, msg.masterClean);
    if (ack_first)
        sendAt(when, ack);
    when += tail(from_owner && !stale, from_master && !stale);
    if (!ack_first)
        sendAt(when, ack);
}

std::pair<bool, bool>
HomeBase::attributeWriteBack(const DirEntry &e, NodeId from,
                             bool master_clean)
{
    // A *dirty* writeback from the current owner, or a master-copy
    // writeback from the current master. The masterClean flag
    // disambiguates the race where a node's clean-master eviction
    // crosses its own upgrade: by the time the writeback arrives the
    // node is the dirty owner again, but this (v_old) data must not be
    // absorbed. Conversely, a dirty eviction whose owner was demoted
    // to master by an intervening forwarded read is still the master's
    // (current) data.
    return {e.state == DirEntry::State::Dirty && e.owner == from &&
                !master_clean,
            e.state == DirEntry::State::Shared && e.masterOut &&
                e.owner == from};
}

Tick
HomeBase::absorbWriteBack(Addr line, DirEntry &e, NodeId from, Version v,
                          bool from_owner, bool from_master, bool salvage)
{
    Tick extra = 0;
    if (from_owner) {
        extra += absorbData(line, e, v);
        e.state = DirEntry::State::Uncached;
        e.owner = kInvalidNode;
        e.sharers = 0;
        e.masterOut = false;
    } else if (from_master) {
        e.dropSharer(from);
        if (!hasData(line, e) && !e.pagedOut)
            extra += absorbData(line, e, v);
        e.masterOut = false;
        e.owner = kInvalidNode;
        // An evicted master leaves the line Uncached only when the home
        // now holds the data; a salvaged one (functionalWriteBack) also
        // when the line stays paged out.
        if (e.sharers == 0 && (salvage || hasData(line, e)))
            e.state = DirEntry::State::Uncached;
    } else {
        // Late writeback: the transaction that took the line away has
        // already been serialized; the data here is superseded. A
        // salvage also demotes the Shared line it leaves with no
        // sharer and no master.
        e.dropSharer(from);
        if (salvage && e.sharers == 0 &&
            e.state == DirEntry::State::Shared && !e.masterOut)
            e.state = DirEntry::State::Uncached;
    }
    updateLinkage(line, e);
    noteDir(line, e);
    return extra;
}

void
HomeBase::handleTxnDone(const Message &msg)
{
    const Tick now = ctx_.eq().curTick();
    const Tick start = engine_.acquire(now, scaled(costs().ackOccupancy));
    const Tick when = start + scaled(costs().ackLatency);
    const Addr line = msg.lineAddr;
    const NodeId from = msg.src;
    ctx_.eq().schedule(when, [this, line, from] { finishTxn(line, from); });
}

void
HomeBase::finishTxn(Addr line, NodeId from)
{
    DirEntry &e = entryFor(line);
    if (!e.busy) {
        // A duplicated TxnDone (or one whose transaction was wiped by
        // a failover) lands on an idle line; harmless under faults.
        if (faultsOn_) {
            ctx_.stats().add("home.spurious_txndone");
            return;
        }
        panic("finishTxn on idle line");
    }
    if (from != kInvalidNode && e.busyFor != from) {
        // The line is blocked for a *different* transaction than this
        // TxnDone's sender — a duplicate of an earlier TxnDone whose
        // original already unblocked the line, or a straggler landing
        // during a COMA injection (busyFor invalid). Unblocking here
        // would serve the next queued request while the current
        // transaction's invalidations/forwards are still in flight —
        // under a write, that puts two exclusive grants in the air at
        // once. (Found by the spec-level model checker: duplicated
        // TxnDone + queued second writer.)
        if (faultsOn_) {
            ctx_.stats().add("home.mismatched_txndone");
            return;
        }
        panic("TxnDone from node " + std::to_string(from) +
              " while line is blocked for node " +
              std::to_string(e.busyFor));
    }
    e.busy = false;
    e.busyFor = kInvalidNode;
    e.fwdTo = kInvalidNode;
    drainQueued(line);
}

void
HomeBase::abortNode(NodeId dead, std::vector<Addr> *unblocked_out)
{
    std::vector<Addr> local;
    std::vector<Addr> &unblocked = unblocked_out ? *unblocked_out
                                                 : local;
    dir_.forEach([&](Addr line, DirEntry &e) {
        // Purge the dead node's queued requests.
        if (dir_.queued(line) != 0) {
            std::vector<Message> &q = dir_.queue(line);
            std::vector<Message> keep;
            for (Message &m : q) {
                if (m.src == dead || m.requester == dead)
                    ctx_.stats().add("home.req_from_dead_dropped");
                else
                    keep.push_back(std::move(m));
            }
            q = std::move(keep);
        }
        // A transaction blocked on the dead node — as the requester
        // whose TxnDone unblocks the line, as the owner a forward was
        // aimed at, or as the target of an in-flight forward (the
        // serve may have already rewritten owner to the new
        // requester) — is administratively finished; a live
        // requester's retry re-drives the line through the directory.
        if (e.busy && (e.busyFor == dead || e.owner == dead ||
                       e.fwdTo == dead)) {
            // Forget the aborted transaction's dedup record too: the
            // live requester retries with the *same* txnSeq, and a
            // surviving in-flight record (no cached reply) would make
            // dedupRequest ignore every retry forever.
            if (e.busyFor != kInvalidNode && e.busyFor != dead)
                served_.erase({line, e.busyFor});
            e.busy = false;
            e.busyFor = kInvalidNode;
            e.fwdTo = kInvalidNode;
            ctx_.stats().add("home.txn_aborted_dead");
            unblocked.push_back(line);
        }
        e.dropSharer(dead);
        noteDir(line, e);
    });
    // Re-serve queues that the aborts released (after the walk: serving
    // mutates entries and sends messages). Deferred when the caller
    // still has salvage to land first.
    if (!unblocked_out) {
        for (Addr line : unblocked)
            drainQueued(line);
    }
}

void
HomeBase::drainQueued(Addr line)
{
    // Serve queued requests until one blocks the line again. (A queued
    // WriteBack completes without blocking, so draining must continue
    // past it.)
    DirEntry &e = entryFor(line);
    while (!e.busy && dir_.queued(line) != 0) {
        std::vector<Message> &q = dir_.queue(line);
        Message next = q.front();
        q.erase(q.begin());
        // A dead node's request can reach here only as a WriteBack it
        // sent just before it died, queued after abortNode purged its
        // requests (write-backs skip acceptRequest's filter). Nodes
        // die only under faults, so fault-free runs never drop.
        if (ctx_.nodeDead(next.src)) {
            ctx_.stats().add("home.req_from_dead_dropped");
            continue;
        }
        serveRequest(next, e);
    }
}

std::uint64_t
HomeBase::reclaimDeadOwner(NodeId dead)
{
    std::uint64_t lost = 0;
    dir_.forEach([&](Addr line, DirEntry &e) {
        if (e.owner != dead)
            return;
        if (e.busy)
            panic("reclaimDeadOwner: line still busy after abortNode");
        e.owner = kInvalidNode;
        e.masterOut = false;
        if (!hasData(line, e) && !e.pagedOut) {
            // The only up-to-date copy died with the chip; the disk
            // backing copy (at the latest committed version) takes
            // over on the next touch.
            e.pagedOut = true;
            ++lost;
        }
        if (e.sharers == 0)
            e.state = DirEntry::State::Uncached;
        else if (e.state == DirEntry::State::Dirty)
            e.state = DirEntry::State::Shared;
        noteDir(line, e);
    });
    if (lost) {
        ctx_.stats().add("home.dead_owner_lines_lost",
                         static_cast<double>(lost));
    }
    return lost;
}

void
HomeBase::collectStuck(std::vector<StuckTxn> &out) const
{
    dir_.forEach([&](Addr line, const DirEntry &e) {
        const std::size_t queued = dir_.queued(line);
        if (!e.busy && queued == 0)
            return;
        StuckTxn t;
        t.kind = "home";
        t.node = self_;
        t.line = line;
        t.state = e.busy ? "busy" : "queued";
        t.seq = 0;
        t.retries = 0;
        t.pendingQueued = static_cast<int>(queued);
        // The forward target is the sharper diagnostic when one is
        // outstanding: that's the node whose reply the line awaits.
        t.waitingOn = !e.busy ? kInvalidNode
                              : e.fwdTo != kInvalidNode ? e.fwdTo
                                                        : e.busyFor;
        out.push_back(t);
    });
}

void
HomeBase::handleOwnerToHome(const Message &msg)
{
    DirEntry &e = entryFor(msg.lineAddr);
    const Tick now = ctx_.eq().curTick();
    engine_.acquire(now, scaled(costs().ackOccupancy));

    // A sharing writeback is only valid while the line is still in the
    // shared epoch it was produced in: the version must match the
    // home's latest committed generation and the master must still be
    // out. A late OwnerToHome from before an intervening write would
    // otherwise resurrect stale data.
    const bool current = e.state == DirEntry::State::Shared &&
                         msg.version == e.version &&
                         (e.masterOut || !grantsMasterOnRead());
    if (current && wantsSharingData(msg.lineAddr, e) &&
        canAbsorbCheaply()) {
        absorbData(msg.lineAddr, e, msg.version);
        updateLinkage(msg.lineAddr, e);
        noteDir(msg.lineAddr, e);
    } else {
        ctx_.stats().add("home.sharing_wb_dropped");
    }
}

void
HomeBase::handleInjectResponse(const Message &msg)
{
    panic("unexpected inject response " + msg.toString());
}

void
HomeBase::handleCimReq(const Message &msg)
{
    panic("this home does not support computation in memory: " +
          msg.toString());
}

void
HomeBase::adoptEntry(Addr line, const DirEntry &e, std::size_t queued)
{
    if (e.busy || queued != 0)
        panic("adopting a busy directory entry");
    DirEntry &mine = entryFor(line);
    mine.state = e.state;
    mine.sharers = e.sharers;
    mine.ptrOverflow = e.ptrOverflow;
    mine.owner = e.owner;
    mine.masterOut = e.masterOut;
    mine.version = e.version;
    mine.pagedOut = e.pagedOut;
    if (e.homeHasData) {
        absorbData(line, mine, e.version);
    } else {
        if (mine.homeHasData && mine.localPtr != kNilPtr)
            releaseData(line, mine);
        mine.homeHasData = false;
        mine.pagedOut = e.pagedOut;
    }
    updateLinkage(line, mine);
    noteDir(line, mine);
}

void
HomeBase::functionalWriteBack(Addr line, NodeId from, Version v)
{
    DirEntry &e = entryFor(line);
    if (e.busy) {
        if (e.busyFor == from || e.owner == from || e.fwdTo == from) {
            // abortNode must have cleared any in-flight transaction
            // that depends on the dead node before salvage runs.
            std::ostringstream os;
            os << "functional writeback into a busy entry: line 0x"
               << std::hex << line << std::dec << " from " << from
               << " busyFor " << e.busyFor << " owner " << e.owner
               << " fwdTo " << e.fwdTo << " state "
               << static_cast<int>(e.state);
            panic(os.str());
        }
        // A live requester's transaction is in flight and has already
        // taken the line over (e.g. its write is invalidating the dead
        // node's shared-master copy). The dead copy is superseded —
        // dropping it loses nothing, and the requester's missing
        // InvalAck is recovered by the compute fault sweep.
        e.dropSharer(from);
        ctx_.stats().add("fault.salvage_superseded");
        return;
    }
    const auto [from_owner, from_master] =
        attributeWriteBack(e, from, false);
    absorbWriteBack(line, e, from, v, from_owner, from_master, true);
}

bool
HomeBase::dedupRequest(const Message &msg)
{
    const auto key = std::make_pair(msg.lineAddr, msg.src);
    auto it = served_.find(key);
    if (it == served_.end() || msg.txnSeq > it->second.seq) {
        // Fresh transaction: record it and serve normally.
        ServedTxn &st = served_[key];
        st.seq = msg.txnSeq;
        st.hasReply = false;
        st.reply = Message{};
        st.retrySeen = msg.retryAttempt;
        return false;
    }
    if (msg.txnSeq == it->second.seq && it->second.hasReply) {
        if (msg.version != 0 && it->second.reply.version <= msg.version) {
            // The retry carries a version floor: the requester served
            // a superseding exclusive forward after this grant was
            // cached, so replaying it would resurrect a dead copy.
            // Fall through and re-serve the transaction fresh.
            ctx_.stats().add("home.superseded_reply_not_replayed");
        } else {
            // Fully served but the reply was lost. Replaying is
            // sound: any transaction that has since taken the line
            // away from this requester either routed a Fwd through it
            // (which the requester defers until the replayed install,
            // then yields to) or sent it an Inval, in which case
            // serveWrite scrubbed this cached reply and we would not
            // be here. Refusing instead can deadlock: the fresh retry
            // queues behind a line whose busy transaction is itself
            // waiting on the deferred Fwd this replay unblocks.
            // Replay it verbatim at the cheap ack-handler cost (no
            // directory transition).
            const Tick now = ctx_.eq().curTick();
            const Tick start =
                engine_.acquire(now, scaled(costs().ackOccupancy));
            Message r = it->second.reply;
            r.legs = msg.legs + 1;
            it->second.retrySeen =
                std::max<int>(it->second.retrySeen, msg.retryAttempt);
            ctx_.stats().add("home.reply_replayed");
            sendAt(start + scaled(costs().ackLatency), r);
            return true;
        }
    }
    if (msg.txnSeq == it->second.seq) {
        // Same transaction, no cached reply. Two very different cases
        // share this shape. If the transaction is genuinely still in
        // flight at this home — the line is blocked serving it, or it
        // sits in the pending queue — this is a straggler duplicate
        // and must be ignored. But if it is in flight *nowhere* (the
        // reply was scrubbed by a later invalidation after being
        // lost), ignoring would stall the requester forever: no
        // future retry could ever look fresher. Re-serve it through
        // the directory. (Found by the spec-level model checker:
        // dropped grant + later invalidation + same-seq retry.)
        const DirEntry &e = entryFor(msg.lineAddr);
        bool live = e.busy && e.busyFor == msg.src;
        if (dir_.queued(msg.lineAddr) != 0) {
            for (const Message &p : dir_.queue(msg.lineAddr))
                live = live || p.src == msg.src;
        }
        // Only a retry newer than every copy of this transaction seen
        // so far is re-served: a mesh duplicate of the original
        // request, or of a retry already served, replayed or ignored,
        // looks identical here, and re-serving it would serialize a
        // phantom grant nobody is waiting for.
        const bool newer = msg.retryAttempt > it->second.retrySeen;
        it->second.retrySeen =
            std::max<int>(it->second.retrySeen, msg.retryAttempt);
        if (!live && newer) {
            ctx_.stats().add("home.scrubbed_retry_reserved");
            // A re-served write serializes the same store a second
            // time: the first grant's version was voided when the
            // copy it promised got invalidated away, so the line's
            // final version runs one ahead of the store count. The
            // sequential reference consults this counter.
            if (msg.type == MsgType::ReadExReq ||
                msg.type == MsgType::UpgradeReq)
                ctx_.stats().add("home.extra_write_serializations");
            return false;
        }
    }
    // Still in flight (blocked or forwarded), or an older
    // transaction's straggler: ignore the duplicate.
    ctx_.stats().add("home.dup_request_ignored");
    return true;
}

void
HomeBase::scrubServedReply(Addr line, NodeId node)
{
    if (!faultsOn_)
        return;
    auto sit = served_.find({line, node});
    if (sit != served_.end() && sit->second.hasReply) {
        sit->second.hasReply = false;
        sit->second.reply = Message{};
        ctx_.stats().add("home.stale_reply_scrubbed");
    }
}

void
HomeBase::sendReplyTracked(Tick when, Message r, const Message &req)
{
    // Every reply names the transaction it answers.
    r.txnSeq = req.txnSeq;
    r.requester = req.src;
    if (faultsOn_ && req.txnSeq != 0) {
        ServedTxn &st = served_[{req.lineAddr, req.src}];
        st.seq = req.txnSeq;
        st.hasReply = true;
        st.reply = r;
    }
    sendAt(when, r);
}

void
HomeBase::collectCensus(LineCensus &census) const
{
    census.dNodeCapacityLines += storageCapacityLines();
    dir_.forEach([&](Addr, const DirEntry &e) {
        if (e.state == DirEntry::State::Dirty) {
            ++census.dirtyInPNode;
        } else if (e.sharers != 0) {
            ++census.sharedInPNode;
        } else if (e.homeHasData || e.pagedOut) {
            ++census.dNodeOnly;
        }
        if (e.homeHasData)
            ++census.dNodeUsedLines;
    });
}

void
HomeBase::checkInvariants() const
{
    dir_.forEach([&](Addr, const DirEntry &e) {
        if (e.state == DirEntry::State::Dirty) {
            if (e.owner == kInvalidNode)
                panic("dirty line with no owner");
            if (e.sharers != 0)
                panic("dirty line with sharers");
            if (e.homeHasData)
                panic("dirty line with home data");
        }
        if (e.masterOut && e.owner == kInvalidNode)
            panic("masterOut with no master node");
        if (e.state == DirEntry::State::Uncached && e.sharers != 0)
            panic("uncached line with sharers");
    });
}

} // namespace pimdsm
