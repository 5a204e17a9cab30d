#include "proto/numa_node.hh"

#include "sim/log.hh"

namespace pimdsm
{

// ---------------------------------------------------------------------
// NumaCompute
// ---------------------------------------------------------------------

NumaCompute::NumaCompute(ProtoContext &ctx, NodeId self)
    : ComputeBase(ctx, self, spec::Role::NumaCompute)
{
}

CohState
NumaCompute::nodeState(Addr line) const
{
    const CacheLine *l = l2_.array().find(line);
    return l ? l->state : CohState::Invalid;
}

Version
NumaCompute::nodeVersion(Addr line) const
{
    const CacheLine *l = l2_.array().find(line);
    if (!l || !l->valid())
        panic("nodeVersion on absent NUMA line");
    return l->version;
}

Tick
NumaCompute::localDataAccess(Addr, Tick)
{
    // Rights valid implies the line is resident in the L2 (whose tags
    // hold the rights), so the data path never reaches here.
    panic("NUMA node-level hit outside the caches");
}

void
NumaCompute::installLine(Addr line, CohState st, Version v)
{
    fillL2(line, st, v, false);
}

void
NumaCompute::setNodeState(Addr line, CohState st, Version v)
{
    CacheLine *l = l2_.array().find(line);
    if (!l)
        panic("setNodeState on absent NUMA line");
    l->state = st;
    l->version = v;
    if (st != CohState::Dirty) {
        // Downgrade: the sharing writeback cleaned the data.
        l->dirty = false;
        l1_.cleanBlock(line, cfg().mem.lineBytes);
    }
}

CohState
NumaCompute::invalidateLocal(Addr line)
{
    l1_.invalidateBlock(line, cfg().mem.lineBytes);
    CacheLine *l = l2_.array().find(line);
    const CohState prior = l ? l->state : CohState::Invalid;
    l2_.invalidateLine(line);
    return prior;
}

void
NumaCompute::onL2Evict(Addr line, bool dirty, CohState st, Version v)
{
    if (dirty && st != CohState::Dirty)
        panic("dirty cache data under a non-exclusive NUMA line");
    if (st == CohState::Dirty) {
        emitWriteBack(line, CohState::Dirty, v);
    }
    // Clean shared victims are dropped silently (the home keeps a
    // stale sharer bit).
    noteState(line, st == CohState::Dirty ? "l2-evict-wb"
                                          : "l2-evict-drop");
}

Tick
NumaCompute::fwdDataLatency() const
{
    return l2_.latency();
}

void
NumaCompute::forEachValidLine(
    FunctionRef<void(Addr, CohState, Version)> fn) const
{
    l2_.array().forEach([&](const CacheLine &l) {
        if (l.valid())
            fn(l.lineAddr(), l.state, l.version);
    });
}

void
NumaCompute::forEachOwnedLine(
    FunctionRef<void(Addr, CohState, Version)> fn)
{
    l2_.array().forEach([&](CacheLine &l) {
        if (l.valid())
            fn(l.lineAddr(), l.state, l.version);
    });
}

// ---------------------------------------------------------------------
// NumaHome
// ---------------------------------------------------------------------

NumaHome::NumaHome(ProtoContext &ctx, NodeId self, std::uint64_t mem_bytes)
    : HomeBase(ctx, self, spec::Role::NumaHome), mem_(mem_bytes, ctx.config().mem)
{
}

void
NumaHome::initEntry(Addr line, DirEntry &e)
{
    // Home memory always backs its lines; remember which slot (and so
    // which DRAM portion) the line maps to.
    e.homeHasData = true;
    e.version = 0;
    const std::uint64_t slot =
        (line / ctx_.config().mem.lineBytes) % mem_.capacityLines();
    e.localPtr = static_cast<std::uint32_t>(
        slot & 0xffffffffull);
}

Tick
NumaHome::dataAccessLatency(DirEntry &e)
{
    const Tick lat = mem_.accessLatency(e.localPtr);
    const Tick start =
        mem_.port().acquire(ctx_.eq().curTick(), mem_.transferOccupancy());
    return lat + (start - ctx_.eq().curTick());
}

Tick
NumaHome::absorbData(Addr, DirEntry &e, Version v)
{
    e.homeHasData = true;
    e.version = v;
    return dataAccessLatency(e);
}

void
NumaHome::releaseData(Addr, DirEntry &e)
{
    // The DRAM cells still hold (stale) bits, but the directory knows
    // the owner has the only valid copy.
    e.homeHasData = false;
}

double
NumaHome::costFactor() const
{
    return ctx_.config().handlers.hardwareFactor;
}

Tick
NumaHome::handlerLatency(const Message &req, Tick base) const
{
    // The on-chip directory access is overlapped with the local memory
    // access: node-local transactions see no directory latency.
    if (req.src == self_)
        return 0;
    return scaled(base);
}

} // namespace pimdsm
