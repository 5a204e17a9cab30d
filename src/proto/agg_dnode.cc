#include "proto/agg_dnode.hh"

#include <algorithm>
#include <cmath>

#include "check/oracle.hh"
#include "sim/log.hh"

namespace pimdsm
{

// ---------------------------------------------------------------------
// DNodeStore
// ---------------------------------------------------------------------

DNodeStore::DNodeStore(std::uint64_t data_entries)
{
    if (data_entries == 0)
        fatal("D-node with no Data entries");
    entries_.resize(data_entries);
    for (std::uint32_t i = 0; i < data_entries; ++i)
        pushTail(freeHead_, freeTail_, i);
    freeLen_ = data_entries;
}

void
DNodeStore::pushTail(std::uint32_t &head, std::uint32_t &tail,
                     std::uint32_t slot)
{
    Entry &e = entries_[slot];
    e.prev = tail;
    e.next = kNilPtr;
    if (tail != kNilPtr)
        entries_[tail].next = slot;
    else
        head = slot;
    tail = slot;
}

void
DNodeStore::unlink(std::uint32_t &head, std::uint32_t &tail,
                   std::uint32_t slot)
{
    Entry &e = entries_[slot];
    if (e.prev != kNilPtr)
        entries_[e.prev].next = e.next;
    else
        head = e.next;
    if (e.next != kNilPtr)
        entries_[e.next].prev = e.prev;
    else
        tail = e.prev;
    e.prev = kNilPtr;
    e.next = kNilPtr;
}

std::uint32_t
DNodeStore::allocate(Addr line, bool &reused_shared, Addr &dropped)
{
    reused_shared = false;
    dropped = kInvalidAddr;

    std::uint32_t slot;
    if (freeHead_ != kNilPtr) {
        slot = freeHead_;
        unlink(freeHead_, freeTail_, slot);
        --freeLen_;
    } else if (sharedHead_ != kNilPtr) {
        // Reuse the FIFO head of SharedList: the line least recently
        // granted away; its home copy is dropped (master is out).
        slot = sharedHead_;
        unlink(sharedHead_, sharedTail_, slot);
        --sharedLen_;
        reused_shared = true;
        dropped = entries_[slot].line;
    } else {
        return kNilPtr;
    }
    entries_[slot].line = line;
    entries_[slot].link = Link::None;
    entries_[slot].lastTouch = nextStamp();
    return slot;
}

void
DNodeStore::free(std::uint32_t slot)
{
    Entry &e = entries_[slot];
    if (e.link == Link::Free)
        panic("freeing an already-free D-node slot");
    if (e.link == Link::Shared) {
        unlink(sharedHead_, sharedTail_, slot);
        --sharedLen_;
    }
    e.line = kInvalidAddr;
    e.link = Link::Free;
    pushTail(freeHead_, freeTail_, slot);
    ++freeLen_;
}

void
DNodeStore::linkShared(std::uint32_t slot)
{
    Entry &e = entries_[slot];
    if (e.link != Link::None)
        panic("linkShared on a slot not in home-master state");
    e.link = Link::Shared;
    pushTail(sharedHead_, sharedTail_, slot);
    ++sharedLen_;
}

void
DNodeStore::unlinkShared(std::uint32_t slot)
{
    Entry &e = entries_[slot];
    if (e.link != Link::Shared)
        panic("unlinkShared on a slot not in SharedList");
    unlink(sharedHead_, sharedTail_, slot);
    --sharedLen_;
    e.link = Link::None;
}

bool
DNodeStore::inShared(std::uint32_t slot) const
{
    return entries_[slot].link == Link::Shared;
}

bool
DNodeStore::inFree(std::uint32_t slot) const
{
    return entries_[slot].link == Link::Free;
}

Addr
DNodeStore::slotLine(std::uint32_t slot) const
{
    return entries_[slot].line;
}

std::uint32_t
DNodeStore::nextStamp()
{
    return touchClock_.next([this] {
        std::vector<std::uint32_t *> stamps;
        stamps.reserve(entries_.size());
        for (Entry &e : entries_)
            stamps.push_back(&e.lastTouch);
        touchClock_.restart(stamps);
    });
}

void
DNodeStore::touch(std::uint32_t slot)
{
    entries_[slot].lastTouch = nextStamp();
}

std::uint32_t
DNodeStore::lastTouch(std::uint32_t slot) const
{
    return entries_[slot].lastTouch;
}

void
DNodeStore::forEachHomeMaster(
    FunctionRef<void(std::uint32_t, Addr)> fn) const
{
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].link == Link::None)
            fn(i, entries_[i].line);
    }
}

void
DNodeStore::checkIntegrity() const
{
    auto walk = [&](std::uint32_t head, std::uint32_t tail, Link want,
                    std::uint64_t expect_len) {
        std::uint64_t n = 0;
        std::uint32_t prev = kNilPtr;
        for (std::uint32_t s = head; s != kNilPtr;
             s = entries_[s].next) {
            if (entries_[s].link != want)
                panic("D-node list holds a slot with wrong link state");
            if (entries_[s].prev != prev)
                panic("D-node list prev pointer corrupt");
            prev = s;
            if (++n > entries_.size())
                panic("D-node list cycle");
        }
        if (prev != tail)
            panic("D-node list tail corrupt");
        if (n != expect_len)
            panic("D-node list length mismatch");
    };
    walk(freeHead_, freeTail_, Link::Free, freeLen_);
    walk(sharedHead_, sharedTail_, Link::Shared, sharedLen_);

    for (const auto &e : entries_) {
        if (e.link == Link::Free && e.line != kInvalidAddr)
            panic("free D-node slot still names a line");
        if (e.link != Link::Free && e.line == kInvalidAddr)
            panic("occupied D-node slot without a line");
    }
}

// ---------------------------------------------------------------------
// AggDNodeHome
// ---------------------------------------------------------------------

std::uint64_t
AggDNodeHome::metadataBytesPerLine(double directory_factor)
{
    // 64-bit Directory entries (3-pointer limited vector + state +
    // Local Pointer), directory_factor per Data entry, plus three
    // 32-bit pointers in the Pointer array.
    return static_cast<std::uint64_t>(std::llround(8 * directory_factor)) +
           12;
}

AggDNodeHome::AggDNodeHome(ProtoContext &ctx, NodeId self,
                           std::uint64_t mem_bytes)
    : HomeBase(ctx, self, spec::Role::AggHome),
      store_([&] {
          const auto &cfg = ctx.config();
          const std::uint64_t per_line =
              cfg.mem.lineBytes +
              metadataBytesPerLine(cfg.dnode.directoryFactor);
          std::uint64_t entries = mem_bytes / per_line;
          if (entries == 0)
              entries = 1;
          return DNodeStore(entries);
      }())
{
    onChipLines_ = static_cast<std::uint64_t>(
        ctx.config().mem.onChipFraction * store_.dataEntries());
}

void
AggDNodeHome::initEntry(Addr, DirEntry &e)
{
    e.homeHasData = false;
    e.localPtr = kNilPtr;
}

Tick
AggDNodeHome::dataAccessLatency(DirEntry &e)
{
    const auto &mem = ctx_.config().mem;
    if (e.localPtr == kNilPtr)
        return mem.offChipLatency;
    store_.touch(e.localPtr);
    return e.localPtr < onChipLines_ ? mem.onChipLatency
                                     : mem.offChipLatency;
}

Tick
AggDNodeHome::absorbData(Addr line, DirEntry &e, Version v)
{
    e.pagedOut = false;
    if (e.localPtr != kNilPtr) {
        e.homeHasData = true;
        e.version = v;
        return dataAccessLatency(e);
    }

    Tick extra = maybePageOut();

    bool reused = false;
    Addr dropped = kInvalidAddr;
    std::uint32_t slot = store_.allocate(line, reused, dropped);
    if (slot == kNilPtr) {
        extra += pageOutEpisode();
        slot = store_.allocate(line, reused, dropped);
        if (slot == kNilPtr)
            panic("D-node storage exhausted even after paging out");
    }
    if (reused) {
        ctx_.stats().add("dnode.sharedlist_reuse");
        DirEntry *victim = dir_.find(dropped);
        if (!victim)
            panic("SharedList slot names a line with no directory entry");
        if (!victim->masterOut)
            panic("SharedList reuse of a line whose master is home");
        victim->localPtr = kNilPtr;
        victim->homeHasData = false;
        if (CoherenceOracle *o = ctx_.checker()) {
            o->noteSlotEvent(ctx_.eq().curTick(), self_, dropped, slot,
                             "reuse-drop");
            o->noteDirEntry(ctx_.eq().curTick(), self_, dropped, *victim);
        }
    }
    e.localPtr = slot;
    e.homeHasData = true;
    e.version = v;
    if (CoherenceOracle *o = ctx_.checker())
        o->noteSlotEvent(ctx_.eq().curTick(), self_, line, slot, "alloc");
    return extra + dataAccessLatency(e);
}

void
AggDNodeHome::releaseData(Addr line, DirEntry &e)
{
    e.pagedOut = false;
    if (e.localPtr == kNilPtr) {
        e.homeHasData = false;
        return;
    }
    if (ctx_.config().check.mutation == ProtoMutation::LeakSlot &&
        !leakedOnce_) {
        // Injected bug: forget to return the Data slot to FreeList.
        // The slot stays "used" with no directory entry referencing
        // it, which the slot-conservation scan must flag.
        leakedOnce_ = true;
        ctx_.stats().add("check.mutation.leak_slot");
        e.localPtr = kNilPtr;
        e.homeHasData = false;
        return;
    }
    if (CoherenceOracle *o = ctx_.checker())
        o->noteSlotEvent(ctx_.eq().curTick(), self_, line, e.localPtr,
                         "free");
    store_.free(e.localPtr);
    e.localPtr = kNilPtr;
    e.homeHasData = false;
}

void
AggDNodeHome::updateLinkage(Addr, DirEntry &e)
{
    if (e.localPtr == kNilPtr)
        return;
    const bool want_shared = e.homeHasData && e.masterOut;
    const bool is_shared = store_.inShared(e.localPtr);
    if (want_shared && !is_shared)
        store_.linkShared(e.localPtr);
    else if (!want_shared && is_shared)
        store_.unlinkShared(e.localPtr);
}

bool
AggDNodeHome::canAbsorbCheaply() const
{
    return store_.freeLen() > 0;
}

Tick
AggDNodeHome::pageIn(Addr line, DirEntry &e)
{
    ctx_.stats().add("dnode.page_in");
    e.pagedOut = false;
    // Disk transfers whole pages; the per-line cost is the page
    // transfer amortized over its lines (lines of the page that are
    // touched later pay the same share).
    const auto &cfg = ctx_.config();
    const Tick disk = cfg.dnode.diskLatency /
                      (cfg.pageBytes / cfg.mem.lineBytes);
    return disk + absorbData(line, e, e.version);
}

Tick
AggDNodeHome::detectDelay() const
{
    return ctx_.config().handlers.pollDelay;
}

Tick
AggDNodeHome::maybePageOut()
{
    // Maintain a genuinely *free* reserve (not just reclaimable
    // SharedList entries): the design wants shared lines to stay in
    // the home (Section 2.2.2), so cold D-Node-Only pages go to disk
    // before shared home copies are sacrificed.
    const auto &dp = ctx_.config().dnode;
    const auto threshold = static_cast<std::uint64_t>(
        dp.pageOutThreshold * store_.dataEntries());
    if (store_.freeLen() >= threshold)
        return 0;
    // If plenty of SharedList entries are reclaimable, let the
    // allocator reuse them (a future 3-hop read) instead of paging
    // (a future disk access): paging is the last resort the paper
    // prescribes when the reclaimable pool itself runs low.
    if (store_.sharedLen() >= 2 * threshold)
        return 0;
    return pageOutEpisode();
}

Tick
AggDNodeHome::pageOutEpisode()
{
    const auto &dp = ctx_.config().dnode;
    const auto target = static_cast<std::uint64_t>(
        dp.pageOutFraction * store_.dataEntries());

    // The OS pages out whole pages of home-master ("D-Node Only")
    // lines: the only lines the D-node must keep, so paging them is
    // what actually frees space (Section 2.2.2). Pages are ranked by
    // the recency of their hottest line, coldest first; busy lines
    // are skipped.
    struct Candidate
    {
        /** The line's touch stamp, then its page's hottest. */
        std::uint32_t pageHeat;
        Addr line;
        std::uint32_t slot;
    };
    std::vector<Candidate> candidates;
    store_.forEachHomeMaster([&](std::uint32_t slot, Addr line) {
        const DirEntry *e = dir_.find(line);
        if (e && !e->busy && e->homeHasData && !e->masterOut &&
            e->state != DirEntry::State::Dirty)
            candidates.push_back({store_.lastTouch(slot), line, slot});
    });
    // Sorted by line, a page's candidates are adjacent: one pass per
    // page raises each to the page's hottest touch.
    const Addr page_mask = ~(ctx_.config().pageBytes - 1);
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.line < b.line;
              });
    for (std::size_t i = 0; i < candidates.size();) {
        const Addr page = candidates[i].line & page_mask;
        std::size_t end = i;
        std::uint32_t heat = 0;
        for (; end < candidates.size() &&
               (candidates[end].line & page_mask) == page;
             ++end)
            heat = std::max(heat, candidates[end].pageHeat);
        for (; i < end; ++i)
            candidates[i].pageHeat = heat;
    }
    // Lines of one page are already in line order, so a stable sort
    // by heat gives the (heat, line) order.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.pageHeat < b.pageHeat;
                     });
    if (candidates.size() > target)
        candidates.resize(target);
    const std::vector<Candidate> &victims = candidates;

    for (const auto &[heat, line, slot] : victims) {
        DirEntry *e = dir_.find(line);
        store_.free(slot);
        e->localPtr = kNilPtr;
        e->homeHasData = false;
        e->pagedOut = true;
        if (CoherenceOracle *o = ctx_.checker()) {
            o->noteSlotEvent(ctx_.eq().curTick(), self_, line, slot,
                             "page-out");
            o->noteDirEntry(ctx_.eq().curTick(), self_, line, *e);
        }
    }
    if (victims.empty())
        return 0;

    ctx_.stats().add("dnode.page_out_episode");
    ctx_.stats().add("dnode.pageout_used", store_.usedSlots());
    ctx_.stats().add("dnode.pageout_shared", store_.sharedLen());
    ctx_.stats().add("dnode.pageout_candidates", victims.size());
    const Tick occ = dp.pageOutBaseCost +
                     dp.pageOutPerLineCost * victims.size();
    engine_.acquire(ctx_.eq().curTick(), occ);
    return occ;
}

void
AggDNodeHome::handleCimReq(const Message &msg)
{
    const Tick now = ctx_.eq().curTick() + detectDelay();
    // Sequentially scan cimCount records out of local memory; only the
    // matching records' pointers travel back (Section 2.4).
    const Tick occ =
        msg.cimCount * ctx_.config().dnode.cimPerRecordCost;
    const Tick start = engine_.acquire(now, occ);

    Message reply;
    reply.type = MsgType::CimReply;
    reply.lineAddr = msg.lineAddr;
    reply.dst = msg.requester;
    reply.cimCount = static_cast<std::uint64_t>(msg.ackCount);
    sendAt(start + occ, reply);
}

} // namespace pimdsm
