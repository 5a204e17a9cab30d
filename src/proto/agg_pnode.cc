#include "proto/agg_pnode.hh"

#include "sim/log.hh"

namespace pimdsm
{

CachedMemCompute::CachedMemCompute(ProtoContext &ctx, NodeId self,
                                   std::uint64_t mem_bytes, bool coma_mode)
    : ComputeBase(ctx, self,
                  coma_mode ? spec::Role::ComaCompute
                            : spec::Role::AggCompute),
      mem_(mem_bytes, ctx.config().mem),
      comaMode_(coma_mode)
{
}

CohState
CachedMemCompute::nodeState(Addr line) const
{
    const CacheLine *l = mem_.find(line);
    return l ? l->state : CohState::Invalid;
}

Version
CachedMemCompute::nodeVersion(Addr line) const
{
    const CacheLine *l = mem_.find(line);
    if (!l || !l->valid())
        panic("nodeVersion on absent line");
    return l->version;
}

Tick
CachedMemCompute::localDataAccess(Addr line, Tick issue)
{
    CacheLine *l = mem_.find(line);
    if (!l)
        panic("localDataAccess on absent line");
    const Tick start = mem_.port().acquire(issue, mem_.transferOccupancy());
    return start + mem_.accessAndMigrate(*l);
}

void
CachedMemCompute::evictWay(CacheLine &way)
{
    const Addr victim = way.lineAddr();
    const CohState st = way.state;
    const Version v = way.version;

    // Inclusion: caches may not outlive the node-level line.
    l1_.invalidateBlock(victim, cfg().mem.lineBytes);
    l2_.invalidateLine(victim);

    // Shared non-master copies are dropped silently; the directory
    // keeps a stale sharer bit, which only costs a spurious inval.
    if (cohOwned(st))
        emitWriteBack(victim, st, v);
    const bool residence = way.onChip;
    way.reset();
    way.onChip = residence;
    noteState(victim, cohOwned(st) ? "evict-wb" : "evict-drop");
}

void
CachedMemCompute::installLine(Addr line, CohState st, Version v)
{
    CacheLine *way = mem_.find(line);
    if (!way) {
        way = mem_.victim(line,
                          comaMode_ ? VictimPolicy::ComaPriority
                          : cfg().mem.lruLocalMemory
                              ? VictimPolicy::Lru
                              : VictimPolicy::Random);
        if (way->valid())
            evictWay(*way);
        mem_.install(*way, line, st);
    } else {
        way->state = st;
        mem_.array().touch(*way);
    }
    way->version = v;
    mem_.port().acquire(ctx_.eq().curTick(), mem_.transferOccupancy());
    fillL2(line, st, v, false);
}

void
CachedMemCompute::setNodeState(Addr line, CohState st, Version v)
{
    CacheLine *way = mem_.find(line);
    if (!way)
        panic("setNodeState on absent line");
    way->state = st;
    way->version = v;
    mem_.array().touch(*way);
    if (CacheLine *l2line = l2_.array().find(line)) {
        l2line->state = st;
        l2line->version = v;
        if (st != CohState::Dirty)
            l2line->dirty = false;
    }
    if (st != CohState::Dirty) {
        // Downgrade: the node-level copy is clean with respect to the
        // home once the sharing writeback leaves.
        l1_.cleanBlock(line, cfg().mem.lineBytes);
    }
}

CohState
CachedMemCompute::invalidateLocal(Addr line)
{
    l1_.invalidateBlock(line, cfg().mem.lineBytes);
    l2_.invalidateLine(line);
    CacheLine *way = mem_.find(line);
    if (!way)
        return CohState::Invalid;
    const CohState prior = way->state;
    const bool residence = way->onChip;
    way->reset();
    way->onChip = residence;
    return prior;
}

void
CachedMemCompute::onL2Evict(Addr line, bool dirty, CohState, Version)
{
    // Dirty L2 data folds back into the node-level line; the tagged
    // memory already tracks the line's version, so this is timing-free.
    if (dirty && !mem_.find(line))
        panic("dirty L2 victim with no node-level line");
}

Tick
CachedMemCompute::fwdDataLatency() const
{
    return cfg().mem.onChipLatency;
}

void
CachedMemCompute::handleInject(const Message &msg)
{
    if (!comaMode_)
        panic("injection into a non-COMA node");

    const Tick now = ctx_.eq().curTick();
    const Addr line = msg.lineAddr;

    Message resp;
    resp.lineAddr = line;
    resp.dst = msg.src; // the home running the injection

    // A set full of owned lines (or an MSHR in flight for this line)
    // refuses; the home will try the next provider.
    CacheLine *way = mem_.find(line);
    if (!way)
        way = mem_.victim(line, VictimPolicy::ComaPriority);
    const bool conflict =
        mshrs_.find(line) != nullptr || wbPending_.count(line) != 0;
    if (conflict || (way->valid() && way->lineAddr() != line &&
                     cohOwned(way->state))) {
        resp.type = MsgType::InjectNack;
        sendAt(now + msgEngineLatency_, resp);
        return;
    }

    if (way->valid() && way->lineAddr() != line) {
        // Displace a non-master shared copy silently.
        const Addr displaced = way->lineAddr();
        l1_.invalidateBlock(displaced, cfg().mem.lineBytes);
        l2_.invalidateLine(displaced);
        const bool residence = way->onChip;
        way->reset();
        way->onChip = residence;
        noteState(displaced, "inject-displace");
    }
    if (!way->valid())
        mem_.install(*way, line, CohState::SharedMaster);
    way->state = msg.masterClean ? CohState::SharedMaster
                                 : CohState::Dirty;
    way->version = msg.version;
    noteState(line, "inject");

    resp.type = MsgType::InjectAck;
    sendAt(now + msgEngineLatency_ + cfg().mem.onChipLatency, resp);
}

void
CachedMemCompute::handleMasterGrant(const Message &msg)
{
    if (!comaMode_)
        panic("master grant to a non-COMA node");

    const Tick now = ctx_.eq().curTick();
    CacheLine *way = mem_.find(msg.lineAddr);

    Message resp;
    resp.lineAddr = msg.lineAddr;
    resp.dst = msg.src;

    if (way && way->state == CohState::Shared) {
        way->state = CohState::SharedMaster;
        noteState(msg.lineAddr, "master-grant");
        resp.type = MsgType::InjectAck;
        resp.masterClean = true;
    } else {
        // Our copy was silently dropped; home must pick someone else.
        resp.type = MsgType::InjectNack;
    }
    sendAt(now + msgEngineLatency_, resp);
}

void
CachedMemCompute::forEachOwnedLine(
    FunctionRef<void(Addr, CohState, Version)> fn)
{
    mem_.array().forEach([&](CacheLine &l) {
        if (l.valid())
            fn(l.lineAddr(), l.state, l.version);
    });
}

void
CachedMemCompute::forEachValidLine(
    FunctionRef<void(Addr, CohState, Version)> fn) const
{
    mem_.array().forEach([&](const CacheLine &l) {
        if (l.valid())
            fn(l.lineAddr(), l.state, l.version);
    });
}

void
CachedMemCompute::invalidateAllLocal()
{
    mem_.array().forEach([&](CacheLine &l) {
        const bool residence = l.onChip;
        l.reset();
        l.onChip = residence;
    });
}

} // namespace pimdsm
