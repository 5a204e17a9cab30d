#include "proto/compute_base.hh"

#include <algorithm>
#include <sstream>

#include "check/oracle.hh"
#include "sim/log.hh"

namespace pimdsm
{

ComputeBase::ComputeBase(ProtoContext &ctx, NodeId self, spec::Role role)
    : ctx_(ctx), self_(self), role_(role),
      dispatch_(&spec::dispatchTable<ComputeBase>(
          role, {
                    {MsgType::ReadReply, &ComputeBase::handleReply},
                    {MsgType::ReadExReply, &ComputeBase::handleReply},
                    {MsgType::UpgradeReply, &ComputeBase::handleReply},
                    {MsgType::FwdReply, &ComputeBase::handleReply},
                    {MsgType::InvalAck, &ComputeBase::handleInvalAck},
                    {MsgType::Inval, &ComputeBase::handleInval},
                    {MsgType::Fwd, &ComputeBase::handleFwd},
                    {MsgType::WriteBackAck,
                     &ComputeBase::handleWriteBackAck},
                    {MsgType::Inject, &ComputeBase::handleInject},
                    {MsgType::MasterGrant, &ComputeBase::handleMasterGrant},
                    {MsgType::CimReply, &ComputeBase::handleCimReply},
                })),
      l1_("l1", ctx.config().l1),
      l2_("l2",
          [&] {
              // The L2 is modeled at memory-line granularity so that it
              // doubles as the node coherence layer (see DESIGN.md).
              CacheParams p = ctx.config().l2;
              p.lineBytes = ctx.config().mem.lineBytes;
              return p;
          }()),
      mshrs_(ctx.config().proc.maxOutstandingLoads),
      msgEngineLatency_(ctx.config().handlers.msgEngineLatency),
      faultsOn_(ctx.config().faults.enabled())
{
    // Outstanding writebacks have no bound. This sizing covers the
    // bench workloads (at most 30 writebacks per node on fft, 12 on
    // barnes, against a rehash threshold of 48), but an eviction
    // burst may still rehash them; walks are line-ordered, so a
    // rehash moves no simulated result. wbBlocked_ grows on first use:
    // most nodes never block an access behind a writeback.
    const int loads = ctx.config().proc.maxOutstandingLoads;
    wbPending_.reserve(2 * static_cast<std::size_t>(loads > 0 ? loads
                                                              : 16));
}

ComputeBase::Mshr &
ComputeBase::MshrFile::open(Addr line)
{
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (lines_[i] == kInvalidAddr) {
            lines_[i] = line;
            slots_[i].line = line;
            ++size_;
            return slots_[i];
        }
    }
    panic("MSHR file full");
}

void
ComputeBase::MshrFile::close(Mshr &m)
{
    const auto i = static_cast<std::size_t>(&m - slots_.data());
    lines_[i] = kInvalidAddr;
    slots_[i] = Mshr{};
    --size_;
}

void
ComputeBase::MshrFile::clear()
{
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (lines_[i] != kInvalidAddr) {
            lines_[i] = kInvalidAddr;
            slots_[i] = Mshr{};
        }
    }
    size_ = 0;
    waiters_.clear();
    deferred_.clear();
    fwds_.clear();
}

std::vector<Message>
ComputeBase::MshrFile::takeFwds(Addr line)
{
    std::vector<Message> out;
    auto push = [&out](const Message &msg) { out.push_back(msg); };
    take(fwds_, line, push);
    return out;
}

std::vector<Addr>
ComputeBase::MshrFile::sortedLines() const
{
    std::vector<Addr> lines;
    lines.reserve(size_);
    for (Addr line : lines_)
        if (line != kInvalidAddr)
            lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

namespace
{

template <typename V>
std::vector<Addr>
sortedLines(const FlatMap<Addr, V> &map)
{
    std::vector<Addr> lines;
    lines.reserve(map.size());
    for (const auto &entry : map)
        lines.push_back(entry.first);
    std::sort(lines.begin(), lines.end());
    return lines;
}

} // namespace

void
ComputeBase::forEachMshr(FunctionRef<void(Mshr &)> fn)
{
    for (Addr line : mshrs_.sortedLines())
        if (Mshr *m = mshrs_.find(line))
            fn(*m);
}

void
ComputeBase::forEachMshr(FunctionRef<void(const Mshr &)> fn) const
{
    for (Addr line : mshrs_.sortedLines())
        fn(*mshrs_.find(line));
}

void
ComputeBase::forEachWbPending(FunctionRef<void(Addr, WbPending &)> fn)
{
    for (Addr line : sortedLines(wbPending_)) {
        auto it = wbPending_.find(line);
        if (it != wbPending_.end())
            fn(line, it->second);
    }
}

void
ComputeBase::forEachWbPending(
    FunctionRef<void(Addr, const WbPending &)> fn) const
{
    for (Addr line : sortedLines(wbPending_))
        fn(line, wbPending_.at(line));
}

void
ComputeBase::noteState(Addr line, const char *why)
{
    CoherenceOracle *o = ctx_.checker();
    if (!o)
        return;
    const CohState st = nodeState(line);
    o->noteNodeState(ctx_.eq().curTick(), self_, line, st,
                     cohValid(st) ? nodeVersion(line) : 0, why);
}

void
ComputeBase::noteWipe(const char *why)
{
    if (CoherenceOracle *o = ctx_.checker())
        o->noteNodeWipe(ctx_.eq().curTick(), self_, why);
}

Addr
ComputeBase::memLine(Addr addr) const
{
    return blockAlign(addr,
                      static_cast<std::uint64_t>(cfg().mem.lineBytes));
}

void
ComputeBase::sendAt(Tick when, Message msg)
{
    // Unlike the home's sendAt, egress is not clamped: each message
    // leaves exactly at @p when.
    msg.src = self_;
    ctx_.eq().schedule(when, [this, msg] { ctx_.send(msg); });
}

void
ComputeBase::complete(Tick when, ReadService svc, CompletionFn cb)
{
    // The completion is plain bytes: the closure copies it into its
    // event node next to the tick and service class.
    ctx_.eq().schedule(when, [cb, when, svc] { cb(when, svc); });
}

void
ComputeBase::access(Addr addr, bool is_write, CompletionFn cb)
{
    if (dead_) {
        // Fail-stopped: the access (from an aborted processor's write
        // buffer or a late sync callback) vanishes; nobody is waiting.
        return;
    }
    startAccess(PendingAccess{addr, is_write, cb});
}

void
ComputeBase::startAccess(const PendingAccess &acc)
{
    const Addr line = memLine(acc.addr);
    const Tick issue = ctx_.eq().curTick();

    // A line being written back must settle before new transactions.
    if (wbPending_.count(line)) {
        wbBlocked_[line].push_back(acc);
        return;
    }

    // Coalesce with an outstanding miss on the same line.
    if (Mshr *m = mshrs_.find(line)) {
        if (!acc.isWrite || m->isWrite)
            mshrs_.addWaiter(line, {acc.addr, acc.cb});
        else
            mshrs_.deferAccess(line, acc); // write joining a read
        return;
    }

    const CohState st = nodeState(line);
    const bool rights_ok = acc.isWrite ? st == CohState::Dirty
                                       : cohValid(st);
    if (!rights_ok) {
        startMiss(acc, line, st);
        return;
    }

    // Data path: the node has sufficient rights.
    if (l1_.access(acc.addr, acc.isWrite)) {
        if (!acc.isWrite)
            readStats_.record(ReadService::FLC, l1_.latency());
        complete(issue + l1_.latency(), ReadService::FLC, acc.cb);
        return;
    }
    if (l2_.access(acc.addr, acc.isWrite)) {
        auto f = l1_.fill(acc.addr, acc.isWrite);
        if (f.evictedDirty) {
            if (CacheLine *p = l2_.array().find(f.evictedLine))
                p->dirty = true;
        }
        if (!acc.isWrite)
            readStats_.record(ReadService::SLC, l2_.latency());
        complete(issue + l2_.latency(), ReadService::SLC, acc.cb);
        return;
    }

    // L2 miss with node rights: the tagged local memory supplies the
    // line (never reached by NUMA, whose rights live in the L2 tags).
    const Tick done = localDataAccess(line, issue);
    fillL2(line, st, nodeVersion(line), false);
    {
        auto f = l1_.fill(acc.addr, acc.isWrite);
        if (f.evictedDirty) {
            if (CacheLine *p = l2_.array().find(f.evictedLine))
                p->dirty = true;
        }
    }
    if (!acc.isWrite)
        readStats_.record(ReadService::LocalMem, done - issue);
    complete(done, ReadService::LocalMem, acc.cb);
}

void
ComputeBase::fillL2(Addr line, CohState st, Version v, bool dirty)
{
    auto f = l2_.fill(line, dirty, st, v);
    if (f.evictedLine == kInvalidAddr)
        return;
    const bool l1_dirty =
        l1_.invalidateBlock(f.evictedLine, l2_.lineBytes());
    onL2Evict(f.evictedLine, f.evictedDirty || l1_dirty, f.evictedState,
              f.evictedVersion);
}

void
ComputeBase::startMiss(const PendingAccess &acc, Addr line, CohState st)
{
    if (mshrs_.full()) {
        blocked_.push_back(acc);
        return;
    }

    const Tick now = ctx_.eq().curTick();
    Mshr &m = mshrs_.open(line);
    m.isWrite = acc.isWrite;
    m.issueTick = now;
    m.first = {acc.addr, acc.cb};

    MsgType t;
    if (acc.isWrite && (st == CohState::Shared ||
                        st == CohState::SharedMaster)) {
        t = MsgType::UpgradeReq;
        m.upgrade = true;
    } else {
        t = acc.isWrite ? MsgType::ReadExReq : MsgType::ReadReq;
    }
    m.reqType = t;
    m.seq = ++nextTxnSeq_;

    const Tick send_time =
        now + l1_.latency() + l2_.latency() + missDetectLatency_;
    if (faultsOn_) {
        m.lastProgress = send_time;
        m.curTimeout = cfg().faults.timeoutTicks;
    }
    sendAt(send_time, requestFor(m));
    scheduleFaultSweep();
}

Message
ComputeBase::requestFor(const Mshr &m) const
{
    Message req;
    req.type = m.reqType;
    req.lineAddr = m.line;
    req.src = self_;
    // Resolved per send: a failover may have remapped the page.
    req.dst = ctx_.homeOf(m.line, self_);
    req.requester = self_;
    req.legs = req.dst == self_ ? 0 : 1;
    req.txnSeq = m.seq;
    req.retryAttempt = m.retries;
    // Version floor: cached grants at or below it are dead (we served
    // a superseding exclusive forward) and must not be replayed.
    req.version = m.supersededVer;
    return req;
}

void
ComputeBase::handleMessage(const Message &msg)
{
    if (!dead_)
        spec::dispatch(*this, *dispatch_, role_, msg);
}

void
ComputeBase::handleReply(const Message &msg)
{
    Mshr *mp = mshrs_.find(msg.lineAddr);
    if (!mp) {
        if (faultsOn_) {
            // A duplicated/replayed reply for a transaction that
            // already completed.
            ctx_.stats().add("fault.orphan_reply");
            ackStaleBlockingReply(msg);
            return;
        }
        panic("reply with no MSHR: " + msg.toString());
    }
    Mshr &m = *mp;
    if (faultsOn_ && msg.txnSeq != 0 && m.seq != 0 &&
        msg.txnSeq != m.seq) {
        // Reply belongs to a previous transaction on the same line.
        ctx_.stats().add("fault.stale_reply");
        ackStaleBlockingReply(msg);
        return;
    }
    if (m.replyArrived) {
        if (faultsOn_) {
            ctx_.stats().add("fault.dup_reply");
            return;
        }
        panic("duplicate reply: " + msg.toString());
    }
    if (faultsOn_ && m.supersededVer != 0 &&
        msg.version <= m.supersededVer) {
        // A dead grant: we served an exclusive forward that yielded
        // this line to a later writer after the grant was issued.
        // Installing it would resurrect an invalidated copy next to
        // the new owner's. Drop it and keep retrying; the retry
        // carries the floor so the home re-serves fresh.
        ctx_.stats().add("fault.superseded_reply_dropped");
        ackStaleBlockingReply(msg);
        return;
    }
    m.lastProgress = ctx_.eq().curTick();
    m.replyArrived = true;
    m.replyHasData = msg.type != MsgType::UpgradeReply;
    m.acksExpected = msg.ackCount;
    m.version = msg.version;
    m.legs = msg.legs;
    m.grantsMaster = msg.grantsMaster;
    m.needsTxnDone = msg.needsTxnDone;
    tryComplete(msg.lineAddr);
}

void
ComputeBase::ackStaleBlockingReply(const Message &msg)
{
    if (!msg.needsTxnDone)
        return;
    // The home may be blocked waiting for this transaction's TxnDone,
    // but the transaction is dead on our side — a grant for a request
    // we have since abandoned (e.g. a scrubbed retry the home
    // re-served after our next transaction on the line started).
    // Unblock it; the home's identity check discards the TxnDone if
    // the line has since moved on to someone else. (Found by the
    // spec-level model checker: a re-served stale read's forward
    // blocking the home forever.)
    ctx_.stats().add("fault.stale_reply_txndone");
    sendTxnDone(ctx_.eq().curTick() + msgEngineLatency_, msg.lineAddr,
                msg.txnSeq);
}

void
ComputeBase::sendTxnDone(Tick when, Addr line, std::uint64_t seq)
{
    Message done;
    done.type = MsgType::TxnDone;
    done.lineAddr = line;
    done.dst = ctx_.homeOf(line, self_);
    done.txnSeq = seq;
    sendAt(when, done);
}

void
ComputeBase::handleInvalAck(const Message &msg)
{
    Mshr *mp = mshrs_.find(msg.lineAddr);
    if (!mp) {
        if (faultsOn_) {
            ctx_.stats().add("fault.orphan_inval_ack");
            return;
        }
        panic("inval ack with no MSHR: " + msg.toString());
    }
    Mshr &m = *mp;
    // Dedup by sender: a duplicated InvalAck must not over-count.
    if (msg.src >= 0 && msg.src < 64) {
        const std::uint64_t bit = 1ull << msg.src;
        if (m.ackFrom & bit) {
            ctx_.stats().add("fault.dup_inval_ack");
            return;
        }
        m.ackFrom |= bit;
    }
    m.lastProgress = ctx_.eq().curTick();
    ++m.acksReceived;
    tryComplete(msg.lineAddr);
}

void
ComputeBase::tryComplete(Addr line)
{
    Mshr *m = mshrs_.find(line);
    if (!m || !m->replyArrived || m->acksExpected < 0 ||
        m->acksReceived < m->acksExpected)
        return;
    finishAccess(*m);
}

void
ComputeBase::finishAccess(Mshr &m)
{
    const Tick now = ctx_.eq().curTick();
    const Tick done = now + msgEngineLatency_;
    const Addr line = m.line;

    const CohState new_state =
        m.isWrite ? CohState::Dirty
                  : (m.grantsMaster ? CohState::SharedMaster
                                    : CohState::Shared);
    if (m.replyHasData) {
        installLine(line, new_state, m.version);
        noteState(line, "reply-install");
    } else if (!cohValid(nodeState(line))) {
        // Our Shared copy was displaced while the upgrade was in
        // flight (the home still saw us as a sharer). Reconstitute the
        // line locally; timing-wise the grant already paid the
        // round trip.
        ctx_.stats().add("compute.upgrade_after_displacement");
        installLine(line, CohState::Dirty, m.version);
        noteState(line, "upgrade-reinstall");
    } else {
        setNodeState(line, CohState::Dirty, m.version);
        // Keep the caches inclusive under the upgraded line.
        fillL2(line, CohState::Dirty, m.version, false);
        noteState(line, "upgrade");
    }

    // Data-value coherence: the oracle checks the observed version
    // against the commit history. Local cache hits may legally be
    // stale while an invalidation is in flight, so only the miss path
    // reports. A blocked read (the home serializes writes until our
    // TxnDone) must observe the latest version; an unblocked simple
    // read may race with a newer write whose invalidation is already
    // on its way, and its home checked it at serve time.
    if (!m.isWrite) {
        if (CoherenceOracle *o = ctx_.checker())
            o->noteReadObserved(now, self_, line, m.version, m.issueTick,
                                m.needsTxnDone);
    }

    ReadService svc;
    if (m.legs <= 1)
        svc = ReadService::LocalMem;
    else if (m.legs == 2)
        svc = ReadService::Hop2;
    else
        svc = ReadService::Hop3;

    auto serve = [&](const Waiter &w) {
        auto f = l1_.fill(w.addr, m.isWrite);
        if (f.evictedDirty) {
            if (CacheLine *p = l2_.array().find(f.evictedLine))
                p->dirty = true;
        }
        if (!m.isWrite)
            readStats_.record(svc, done - m.issueTick);
        complete(done, svc, w.cb);
    };
    serve(m.first);
    mshrs_.takeWaiters(line, serve);

    // Unblock the home line (forwarded / invalidating txns only).
    if (m.needsTxnDone)
        sendTxnDone(done, line, m.seq);

    mshrs_.close(m);

    // Replay forwards that raced ahead of our data: the line is
    // installed now, so they can be served normally.
    for (const Message &f : mshrs_.takeFwds(line))
        handleFwd(f);

    mshrs_.takeDeferred(line, [&](const PendingAccess &acc) {
        ctx_.eq().schedule(done, [this, acc] { startAccess(acc); });
    });
    drainBlocked();
}

void
ComputeBase::handleInval(const Message &msg)
{
    if (cfg().check.mutation == ProtoMutation::SkipInval) {
        // Deliberate protocol mutation (oracle self-test): acknowledge
        // without giving up the copy. The stale survivor is caught by
        // the quiescent directory-agreement scan.
        ctx_.stats().add("check.mutation.skip_inval");
    } else {
        invalidateLocal(msg.lineAddr);
        noteState(msg.lineAddr, "inval");
    }

    Message ack;
    ack.type = MsgType::InvalAck;
    ack.lineAddr = msg.lineAddr;
    ack.dst = msg.requester;
    sendAt(ctx_.eq().curTick() + msgEngineLatency_, ack);
}

void
ComputeBase::handleFwd(const Message &msg)
{
    const Addr line = msg.lineAddr;
    const Tick now = ctx_.eq().curTick();

    const CohState st = nodeState(line);
    const bool live = cohValid(st);
    Version data_version = 0;
    if (live) {
        data_version = nodeVersion(line);
    } else {
        auto it = wbPending_.find(line);
        if (it == wbPending_.end()) {
            // Under faults the home's view can run ahead of ours: a
            // forward can reach us before the reply that grants us the
            // line, or after a failover reconstructed the directory
            // from stale state.
            if (mshrs_.find(line)) {
                mshrs_.deferFwd(msg);
                ctx_.stats().add("fault.fwd_deferred");
                return;
            }
            if (faultsOn_) {
                // No copy and no transaction: drop it; the original
                // requester's timeout re-drives the miss.
                ctx_.stats().add("fault.fwd_dropped_no_copy");
                return;
            }
            panic("forward for a line this node does not hold: " +
                  msg.toString());
        }
        data_version = it->second.version;
        ctx_.stats().add("compute.fwd_from_wb_buffer");
    }

    if (faultsOn_ && msg.version < data_version) {
        // A forward older than our copy belongs to a transaction the
        // directory has since superseded (one a failed-over home
        // started, parked here until our own grant landed): serving
        // it would give the line away from under the newer grant.
        ctx_.stats().add("fault.fwd_superseded_dropped");
        return;
    }

    if (live && msg.fwdKind == FwdKind::Read && msg.version > data_version) {
        if (mshrs_.find(line)) {
            // The directory stamped a version ahead of our copy while
            // we have our own transaction in flight on this line: our
            // granting reply was lost, and serving now would hand the
            // reader a stale copy the directory believes is current.
            // Park the forward; the MSHR's retry/replay installs the
            // granted version and then re-drives it.
            mshrs_.deferFwd(msg);
            ctx_.stats().add("fault.fwd_deferred_stale");
            return;
        }
    }

    const Tick when =
        now + msgEngineLatency_ + (live ? fwdDataLatency() : 0);

    Message reply;
    reply.type = MsgType::FwdReply;
    reply.lineAddr = line;
    reply.dst = msg.requester;
    reply.requester = msg.requester;
    reply.legs = msg.legs + 1;
    reply.needsTxnDone = true;
    reply.txnSeq = msg.txnSeq;

    const bool read = msg.fwdKind == FwdKind::Read;
    if (read) {
        if (live) {
            setNodeState(line, downgradeState(), data_version);
            noteState(line, "fwd-downgrade");
        }
        reply.version = data_version;
    } else {
        if (live) {
            invalidateLocal(line);
            noteState(line, "fwd-inval");
            // Our own transaction (if any) just lost the race: any
            // grant it was promised at or below this version is dead.
            Mshr *m = mshrs_.find(line);
            if (m && msg.version > m->supersededVer) {
                m->supersededVer = msg.version;
                ctx_.stats().add("fault.grant_superseded");
                // Acks gathered for a grant we never received are void
                // with it: a re-served grant names its own invals.
                if (!m->replyArrived) {
                    m->acksReceived = 0;
                    m->ackFrom = 0;
                }
            }
        }
        reply.version = msg.version; // the new write generation
        reply.ackCount = msg.ackCount;
    }
    sendAt(when, reply);

    if (read && sendsSharingWriteback()) {
        Message sw;
        sw.type = MsgType::OwnerToHome;
        sw.lineAddr = line;
        sw.dst = ctx_.homeOf(line, self_);
        sw.version = data_version;
        sendAt(when, sw);
    }
}

void
ComputeBase::handleWriteBackAck(const Message &msg)
{
    if (wbPending_.erase(msg.lineAddr) == 0) {
        // Duplicate ack (mesh dup, or the ack of a retried WriteBack
        // whose original also got through): already settled.
        ctx_.stats().add("fault.dup_wb_ack");
        return;
    }

    auto it = wbBlocked_.find(msg.lineAddr);
    if (it != wbBlocked_.end()) {
        std::vector<PendingAccess> waiters = std::move(it->second);
        wbBlocked_.erase(it);
        for (const auto &acc : waiters)
            startAccess(acc);
    }
}

void
ComputeBase::emitWriteBack(Addr line, CohState st, Version v)
{
    WbPending wb_state;
    wb_state.version = v;
    wb_state.masterClean = st == CohState::SharedMaster;
    wb_state.lastSend = ctx_.eq().curTick();
    wb_state.curTimeout = cfg().faults.timeoutTicks;
    wb_state.seq = ++nextTxnSeq_;
    wbPending_[line] = wb_state;
    sendWriteBack(line, wb_state);
    scheduleFaultSweep();
}

void
ComputeBase::sendWriteBack(Addr line, const WbPending &wb)
{
    Message msg;
    msg.type = MsgType::WriteBack;
    msg.lineAddr = line;
    msg.src = self_;
    msg.dst = ctx_.homeOf(line, self_);
    msg.version = wb.version;
    msg.masterClean = wb.masterClean;
    msg.txnSeq = wb.seq;
    ctx_.send(msg);
}

void
ComputeBase::drainBlocked()
{
    while (!blocked_.empty() && !mshrs_.full()) {
        PendingAccess acc = blocked_.front();
        blocked_.pop_front();
        startAccess(acc);
    }
}

void
ComputeBase::handleInject(const Message &msg)
{
    panic("this architecture does not inject lines: " + msg.toString());
}

void
ComputeBase::handleMasterGrant(const Message &msg)
{
    panic("this architecture does not transfer mastership: " +
          msg.toString());
}

void
ComputeBase::sendCim(NodeId dnode, Addr chunk_addr,
                     std::uint64_t record_count,
                     std::uint64_t match_count,
                     std::function<void(Tick)> cb)
{
    if (dnode == kInvalidNode)
        dnode = ctx_.homeOf(memLine(chunk_addr), self_);
    cimCallbacks_.push_back(std::move(cb));
    Message req;
    req.type = MsgType::CimReq;
    req.lineAddr = memLine(chunk_addr);
    req.src = self_;
    req.dst = dnode;
    req.requester = self_;
    req.cimCount = record_count;
    req.ackCount = static_cast<int>(match_count);
    ctx_.send(req);
}

void
ComputeBase::handleCimReply(const Message &msg)
{
    if (cimCallbacks_.empty())
        panic("CIM reply with no outstanding request: " + msg.toString());
    auto cb = std::move(cimCallbacks_.front());
    cimCallbacks_.pop_front();
    cb(ctx_.eq().curTick());
}

std::vector<std::tuple<Addr, CohState, Version>>
ComputeBase::wipeForDeath()
{
    std::vector<std::tuple<Addr, CohState, Version>> lines;
    forEachOwnedLine([&](Addr line, CohState st, Version v) {
        lines.emplace_back(line, st, v);
    });
    // A displaced owned line whose WriteBack is still in flight exists
    // only in that message; salvage its version too in case the mesh
    // dropped it (the home treats a later duplicate as stale).
    forEachWbPending([&](Addr line, const WbPending &wb) {
        lines.emplace_back(line, CohState::Dirty, wb.version);
    });

    invalidateAllLocal();
    l1_.invalidateAll();
    l2_.invalidateAll();
    mshrs_.clear();
    blocked_.clear();
    wbPending_.clear();
    wbBlocked_.clear();
    cimCallbacks_.clear();
    noteWipe("pnode-death");
    dead_ = true;
    return lines;
}

std::vector<std::tuple<Addr, CohState, Version>>
ComputeBase::drainForReconfig()
{
    if (!mshrs_.empty() || !wbPending_.empty())
        panic("drainForReconfig on a non-quiescent node");
    std::vector<std::tuple<Addr, CohState, Version>> lines;
    forEachOwnedLine([&](Addr line, CohState st, Version v) {
        lines.emplace_back(line, st, v);
    });
    invalidateAllLocal();
    l1_.invalidateAll();
    l2_.invalidateAll();
    noteWipe("reconfig-drain");
    return lines;
}

int
ComputeBase::retryStalledTransactions(bool force_acks)
{
    int sent = 0;
    std::vector<Addr> force_complete;
    forEachMshr([&](Mshr &m) {
        if (m.replyArrived) {
            if (force_acks && m.acksExpected > 0 &&
                m.acksReceived < m.acksExpected) {
                ctx_.stats().add("fault.acks_forced",
                                 m.acksExpected - m.acksReceived);
                m.acksReceived = m.acksExpected;
                force_complete.push_back(m.line);
            }
            return;
        }
        resendRequest(m);
        ++sent;
    });
    for (Addr line : force_complete)
        tryComplete(line);
    forEachWbPending([&](Addr line, WbPending &wb) {
        resendWriteBack(line, wb);
        ++sent;
    });
    return sent;
}

void
ComputeBase::scheduleFaultSweep()
{
    if (!faultsOn_ || sweepScheduled_)
        return;
    if (mshrs_.empty() && wbPending_.empty())
        return;
    sweepScheduled_ = true;
    ctx_.eq().scheduleIn(cfg().faults.sweepInterval,
                         [this] { faultSweep(); });
}

void
ComputeBase::resendRequest(Mshr &m)
{
    const Tick now = ctx_.eq().curTick();
    ++m.retries;
    m.lastProgress = now;
    m.curTimeout = static_cast<Tick>(
        static_cast<double>(m.curTimeout) * cfg().faults.backoffFactor);
    ctx_.stats().add("fault.retries");
    ctx_.send(requestFor(m));
}

void
ComputeBase::resendWriteBack(Addr line, WbPending &wb)
{
    const Tick now = ctx_.eq().curTick();
    wb.retries = wb.retries + 1;
    wb.lastSend = now;
    wb.curTimeout = static_cast<Tick>(
        static_cast<double>(wb.curTimeout) * cfg().faults.backoffFactor);
    ctx_.stats().add("fault.wb_retries");
    sendWriteBack(line, wb);
}

void
ComputeBase::faultSweep()
{
    sweepScheduled_ = false;
    if (dead_)
        return;
    const Tick now = ctx_.eq().curTick();
    const FaultConfig &fc = cfg().faults;

    // Ack-wait recovery: if the reply arrived but invalidation acks
    // never will (their sender died, or the inval was lost with its
    // home), force completion after a generous grace period. This is
    // graceful degradation — the un-acked sharer may briefly read
    // stale data, which the version oracle counts.
    std::vector<Addr> force_complete;

    forEachMshr([&](Mshr &m) {
        if (m.failed)
            return;
        if (m.replyArrived) {
            if (m.acksExpected > 0 && m.acksReceived < m.acksExpected &&
                now >= m.lastProgress + 4 * fc.timeoutTicks) {
                ctx_.stats().add("fault.acks_forced",
                                 m.acksExpected - m.acksReceived);
                m.acksReceived = m.acksExpected;
                force_complete.push_back(m.line);
            }
            return;
        }
        if (now < m.lastProgress + m.curTimeout)
            return;
        if (m.retries >= fc.retryLimit) {
            m.failed = true;
            ctx_.stats().add("fault.txn_abandoned");
            warn("node " + std::to_string(self_) +
                 " abandoned a transaction after " +
                 std::to_string(m.retries) + " retries (line 0x" +
                 [line = m.line] {
                     std::ostringstream os;
                     os << std::hex << line;
                     return os.str();
                 }() +
                 ")");
            return;
        }
        resendRequest(m);
    });

    for (Addr line : force_complete)
        tryComplete(line);

    forEachWbPending([&](Addr line, WbPending &wb) {
        if (wb.failed)
            return;
        if (now < wb.lastSend + wb.curTimeout)
            return;
        if (wb.retries >= fc.retryLimit) {
            wb.failed = true;
            ctx_.stats().add("fault.wb_abandoned");
            return;
        }
        resendWriteBack(line, wb);
    });

    // Keep sweeping while anything can still make progress; once only
    // failed transactions remain the queue may drain, which is what
    // lets the watchdog fire instead of spinning forever.
    bool live = false;
    forEachMshr([&](const Mshr &m) { live = live || !m.failed; });
    forEachWbPending([&](Addr, const WbPending &wb) {
        live = live || !wb.failed;
    });
    if (live)
        scheduleFaultSweep();
}

void
ComputeBase::collectStuck(std::vector<StuckTxn> &out) const
{
    forEachMshr([&](const Mshr &m) {
        StuckTxn t;
        t.kind = "mshr";
        t.node = self_;
        t.line = m.line;
        t.req = m.reqType;
        t.seq = m.seq;
        t.retries = m.retries;
        t.state = m.failed ? "abandoned"
                           : m.replyArrived ? "waiting-acks"
                                            : "waiting-reply";
        t.acksExpected = m.acksExpected;
        t.acksReceived = m.acksReceived;
        t.issueTick = m.issueTick;
        t.lastProgressTick = m.lastProgress;
        out.push_back(t);
    });
    forEachWbPending([&](Addr line, const WbPending &wb) {
        StuckTxn t;
        t.kind = "writeback";
        t.node = self_;
        t.line = line;
        t.retries = wb.retries;
        t.state = wb.failed ? "abandoned" : "pending";
        t.lastProgressTick = wb.lastSend;
        out.push_back(t);
    });
}

void
ComputeBase::checkInclusion() const
{
    l1_.array().forEach([&](const CacheLine &line) {
        if (!line.valid())
            return;
        const Addr parent = memLine(line.lineAddr());
        if (!l2_.array().find(parent))
            panic("L1 line not covered by L2");
    });
    l2_.array().forEach([&](const CacheLine &line) {
        if (!line.valid())
            return;
        if (!cohValid(nodeState(line.lineAddr())))
            panic("L2 line without node-level rights");
    });
}

} // namespace pimdsm
