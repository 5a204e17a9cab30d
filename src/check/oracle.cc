#include "check/oracle.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/log.hh"
#include "sim/stats.hh"

namespace pimdsm
{

namespace
{

const char *
dirStateName(DirEntry::State s)
{
    switch (s) {
      case DirEntry::State::Uncached:
        return "Uncached";
      case DirEntry::State::Shared:
        return "Shared";
      case DirEntry::State::Dirty:
        return "Dirty";
    }
    return "?";
}

std::int8_t
node8(NodeId n)
{
    return static_cast<std::int8_t>(n);
}

} // namespace

CoherenceOracle::CoherenceOracle(const MachineConfig &cfg,
                                 const PageBlocks<Version> &versions,
                                 StatSet &stats)
    : lines_(cfg.mem.lineBytes, cfg.pageBytes), versions_(versions),
      stats_(stats), nodes_(static_cast<std::size_t>(cfg.totalNodes())),
      enabled_(cfg.check.enabled), strict_(!cfg.faults.enabled())
{
    if (enabled_ && cfg.totalNodes() > kMaxNodes)
        fatal("the coherence oracle tracks at most " +
              std::to_string(kMaxNodes) + " nodes");
}

NodeId
CoherenceOracle::lowestNode(std::uint64_t mask)
{
    return static_cast<NodeId>(std::countr_zero(mask));
}

CohState
CoherenceOracle::stateOf(const LineInfo &li, NodeId n)
{
    const std::uint64_t bit = 1ull << n;
    if (li.dirty & bit)
        return CohState::Dirty;
    if (li.owned & bit)
        return CohState::SharedMaster;
    if (li.valid & bit)
        return CohState::Shared;
    return CohState::Invalid;
}

CoherenceOracle::LineInfo &
CoherenceOracle::info(Addr line, std::uint32_t *slot_out)
{
    const std::uint32_t slot = lines_.insert(line);
    const std::size_t per_page = lines_.linesPerPage() * nodes_;
    while (holderVer_.size() < lines_.slotCount() / lines_.linesPerPage()) {
        holderVer_.push_back(std::make_unique<Version[]>(per_page));
        commitTicks_.emplace_back();
    }
    if (slot_out)
        *slot_out = slot;
    return lines_[slot];
}

CoherenceOracle::Event &
CoherenceOracle::record(Addr line, Tick now, Kind kind)
{
    if (ring_.empty())
        ring_.resize(kRingSize);
    Event &ev = ring_[recorded_++ % kRingSize];
    ev = Event{};
    ev.tick = now;
    ev.line = line;
    ev.kind = kind;
    return ev;
}

Version
CoherenceOracle::latest(Addr line) const
{
    const Version *v = versions_.find(line);
    return v ? *v : 0;
}

Version
CoherenceOracle::committedAtOrBefore(Addr line, Tick t) const
{
    // Versions commit one at a time, so a line keeps the ticks of its
    // newest kCommitDepth. If every kept commit postdates t, the true
    // floor is older than the record: fall back to the weakest sound
    // bound (0).
    const std::uint32_t slot = lines_.slotOf(line);
    const Tick *ticks = slot == PageBlocks<LineInfo>::kNoSlot
                            ? nullptr
                            : commitTicks(slot);
    const Version newest = latest(line);
    for (Version v = newest; ticks && v > 0 && newest - v < kCommitDepth;
         --v) {
        if (ticks[v % kCommitDepth] <= t)
            return v;
    }
    return 0;
}

std::string
CoherenceOracle::formatEvent(const Event &ev)
{
    std::ostringstream os;
    os << "@" << ev.tick << " ";
    switch (ev.kind) {
      case Kind::Deliver:
        os << "deliver " << msgTypeName(ev.type) << " " << int{ev.node}
           << "->" << int{ev.peer} << " req=" << int{ev.requester}
           << " seq=" << ev.aux << " acks=" << int{ev.acks} << " v"
           << ev.version;
        if (ev.flags & kTxnDone)
            os << " +txndone";
        if (ev.flags & kMaster)
            os << " +master";
        break;
      case Kind::NodeState:
        os << "node " << int{ev.node} << " -> "
           << cohStateName(static_cast<CohState>(ev.state)) << " v"
           << ev.version << " (" << ev.why << ")";
        break;
      case Kind::Wipe:
        os << "node " << int{ev.node} << " -> Invalid (wipe: " << ev.why
           << ")";
        break;
      case Kind::DirEntry:
        os << "home " << int{ev.node} << " dir: "
           << dirStateName(static_cast<DirEntry::State>(ev.state))
           << " owner=" << int{ev.peer} << " sharers=" << ev.aux
           << " master=" << (ev.flags & kMasterOut ? "out" : "in")
           << " data="
           << (ev.flags & kHomeData  ? "home"
               : ev.flags & kPagedOut ? "disk"
                                      : "-")
           << " v" << ev.version;
        break;
      case Kind::Commit:
        os << "write committed v" << ev.version;
        break;
      case Kind::HomeServe:
        os << "home " << int{ev.node} << " served v" << ev.version
           << " to node " << int{ev.peer};
        break;
      case Kind::ReadObserved:
        os << "node " << int{ev.node} << " read observed v" << ev.version
           << " (issued @" << ev.aux << ")";
        break;
      case Kind::Slot:
        os << "home " << int{ev.node} << " slot " << ev.aux << ": "
           << ev.why;
        break;
      case Kind::Failover:
        os << "failover: home " << int{ev.node} << " -> "
           << int{ev.peer};
        break;
    }
    return os.str();
}

std::string
CoherenceOracle::lineHistory(Addr line) const
{
    std::ostringstream os;
    os << "\n  line 0x" << std::hex << line << std::dec
       << " recent history:";
    // The newest kHistoryDepth of the line's records still in the ring,
    // printed oldest first.
    std::vector<const Event *> events;
    const std::uint64_t kept = std::min<std::uint64_t>(recorded_, kRingSize);
    for (std::uint64_t i = 1; i <= kept && events.size() < kHistoryDepth;
         ++i) {
        const Event &ev = ring_[(recorded_ - i) % kRingSize];
        if (ev.line == line || ev.line == kInvalidAddr)
            events.push_back(&ev);
    }
    if (events.empty())
        os << " (none)";
    for (auto it = events.rbegin(); it != events.rend(); ++it)
        os << "\n    " << formatEvent(**it);
    return os.str();
}

void
CoherenceOracle::violation(Addr line, const std::string &what,
                           bool always_hard)
{
    ++violations_;
    stats_.add("check.violations");
    if (strict_ || always_hard)
        panic("coherence violation: " + what + lineHistory(line));
    warn("coherence violation (degraded mode): " + what);
}

void
CoherenceOracle::noteMessage(Tick now, const Message &msg)
{
    if (!enabled_)
        return;
    Event &ev = record(msg.lineAddr, now, Kind::Deliver);
    ev.type = msg.type;
    ev.node = node8(msg.src);
    ev.peer = node8(msg.dst);
    ev.requester = node8(msg.requester);
    ev.acks = static_cast<std::int8_t>(msg.ackCount);
    ev.aux = msg.txnSeq;
    ev.version = msg.version;
    ev.flags = static_cast<std::uint8_t>(
        (msg.needsTxnDone ? kTxnDone : 0) | (msg.grantsMaster ? kMaster : 0));
}

void
CoherenceOracle::noteNodeState(Tick now, NodeId node, Addr line,
                               CohState st, Version v, const char *why)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::NodeState);
    ev.node = node8(node);
    ev.state = static_cast<std::uint8_t>(st);
    ev.version = v;
    ev.why = why;

    std::uint32_t slot = 0;
    LineInfo &li = info(line, &slot);
    const std::uint64_t bit = 1ull << node;
    li.valid &= ~bit;
    li.owned &= ~bit;
    li.dirty &= ~bit;
    if (!cohValid(st))
        return;
    const Version newest = latest(line);
    if (v > newest) {
        std::ostringstream os;
        os << "node " << node << " installed v" << v << " of a line whose"
           << " latest committed write is v" << newest << " (" << why
           << ")";
        violation(line, os.str(), true);
    }
    // A Dirty copy must be the only valid one, and a line has at most
    // one owner.
    std::uint64_t clash = li.dirty;
    if (st == CohState::Dirty)
        clash |= li.valid;
    else if (cohOwned(st))
        clash |= li.owned;
    for (; clash; clash &= clash - 1) {
        const NodeId n = lowestNode(clash);
        std::ostringstream os;
        os << "SWMR broken: node " << node << " became "
           << cohStateName(st) << " (" << why << ") while node " << n
           << " still holds " << cohStateName(stateOf(li, n)) << " v"
           << holderVersions(slot)[n];
        violation(line, os.str());
    }
    li.valid |= bit;
    if (cohOwned(st))
        li.owned |= bit;
    if (st == CohState::Dirty)
        li.dirty |= bit;
    holderVersions(slot)[node] = v;
}

void
CoherenceOracle::noteNodeWipe(Tick now, NodeId node, const char *why)
{
    if (!enabled_)
        return;
    const std::uint64_t bit = 1ull << node;
    lines_.forEachPage([&](Addr page, std::uint32_t first) {
        for (std::uint32_t i = 0; i < lines_.linesPerPage(); ++i) {
            LineInfo &li = lines_[first + i];
            if (!(li.valid & bit))
                continue;
            Event &ev =
                record(page + i * lines_.lineBytes(), now, Kind::Wipe);
            ev.node = node8(node);
            ev.why = why;
            li.valid &= ~bit;
            li.owned &= ~bit;
            li.dirty &= ~bit;
        }
    });
}

void
CoherenceOracle::noteDirEntry(Tick now, NodeId home, Addr line,
                              const DirEntry &e)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::DirEntry);
    ev.node = node8(home);
    ev.peer = node8(e.owner);
    ev.state = static_cast<std::uint8_t>(e.state);
    ev.aux = static_cast<std::uint64_t>(e.sharerCount());
    ev.version = e.version;
    ev.flags = static_cast<std::uint8_t>(
        (e.masterOut ? kMasterOut : 0) | (e.homeHasData ? kHomeData : 0) |
        (e.pagedOut ? kPagedOut : 0));

    const Version newest = latest(line);
    if (e.version > newest) {
        std::ostringstream os;
        os << "home " << home << " recorded v" << e.version
           << " for a line whose latest committed write is v" << newest;
        violation(line, os.str(), true);
    }
    if (e.state == DirEntry::State::Dirty) {
        if (e.owner == kInvalidNode)
            violation(line, "directory entry Dirty with no owner");
        if (e.sharerCount() != 0)
            violation(line, "directory entry Dirty with sharers");
        if (e.homeHasData)
            violation(line,
                      "directory entry Dirty while the home holds data");
    }
    if (e.masterOut && e.owner == kInvalidNode)
        violation(line, "master copy outstanding with no owner recorded");
    if (e.state == DirEntry::State::Uncached && e.sharerCount() != 0)
        violation(line, "directory entry Uncached with sharers");
}

void
CoherenceOracle::noteWriteCommit(Tick now, Addr line, Version v)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::Commit);
    ev.version = v;
    std::uint32_t slot = 0;
    info(line, &slot);
    std::unique_ptr<Tick[]> &page =
        commitTicks_[slot / lines_.linesPerPage()];
    if (!page)
        page = std::make_unique<Tick[]>(lines_.linesPerPage() *
                                        kCommitDepth);
    commitTicks(slot)[v % kCommitDepth] = now;
}

void
CoherenceOracle::noteHomeServe(Tick now, NodeId home, NodeId requester,
                               Addr line, Version v)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::HomeServe);
    ev.node = node8(home);
    ev.peer = node8(requester);
    ev.version = v;
    const Version newest = latest(line);
    if (v != newest) {
        std::ostringstream os;
        os << "home " << home << " served a stale copy: v" << v
           << " to node " << requester << " but the latest committed"
           << " write is v" << newest;
        violation(line, os.str());
    }
}

void
CoherenceOracle::noteReadObserved(Tick now, NodeId node, Addr line,
                                  Version observed, Tick issue_tick,
                                  bool serialized)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::ReadObserved);
    ev.node = node8(node);
    ev.version = observed;
    ev.aux = issue_tick;
    const Version newest = latest(line);
    if (observed > newest) {
        std::ostringstream os;
        os << "node " << node << " read observed v" << observed
           << ", which was never committed (latest v" << newest << ")";
        violation(line, os.str(), true);
        return;
    }
    if (serialized && observed != newest) {
        std::ostringstream os;
        os << "stale read: node " << node << " observed v" << observed
           << " but the home held the line for it until its TxnDone and"
           << " v" << newest << " is committed";
        violation(line, os.str());
        return;
    }
    const Version floor = committedAtOrBefore(line, issue_tick);
    if (observed < floor) {
        std::ostringstream os;
        os << "stale read: node " << node << " observed v" << observed
           << " but v" << floor
           << " had already committed when the read issued @"
           << issue_tick;
        violation(line, os.str());
    }
}

void
CoherenceOracle::noteSlotEvent(Tick now, NodeId home, Addr line,
                               std::uint32_t slot, const char *what)
{
    if (!enabled_)
        return;
    Event &ev = record(line, now, Kind::Slot);
    ev.node = node8(home);
    ev.aux = slot;
    ev.why = what;
}

void
CoherenceOracle::noteFailover(Tick now, NodeId dead_home,
                              NodeId new_home)
{
    if (!enabled_)
        return;
    Event &ev = record(kInvalidAddr, now, Kind::Failover);
    ev.node = node8(dead_home);
    ev.peer = node8(new_home);
}

CohState
CoherenceOracle::holderState(NodeId node, Addr line,
                             Version *v_out) const
{
    const std::uint32_t slot = lines_.slotOf(line);
    if (slot == PageBlocks<LineInfo>::kNoSlot)
        return CohState::Invalid;
    const CohState st = stateOf(lines_[slot], node);
    if (v_out && cohValid(st))
        *v_out = holderVersions(slot)[node];
    return st;
}

} // namespace pimdsm
