#include "check/oracle.hh"

#include <sstream>

#include "proto/message.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

namespace pimdsm
{

namespace
{

/** Per-line history/commit ring depth kept for violation traces. */
constexpr std::size_t kHistoryDepth = 48;

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

} // namespace

void
CoherenceOracle::init(const CheckConfig &cfg, bool faults_on,
                      StatSet *stats)
{
    stats_ = stats;
    enabled_ = cfg.enabled;
    strict_ = !faults_on;
    lines_.clear();
    violations_ = 0;
}

void
CoherenceOracle::record(LineInfo &li, Tick now, const std::string &text)
{
    std::ostringstream os;
    os << "@" << now << " " << text;
    li.history.push_back(os.str());
    while (li.history.size() > kHistoryDepth)
        li.history.pop_front();
}

std::string
CoherenceOracle::lineHistory(Addr line) const
{
    auto it = lines_.find(line);
    std::ostringstream os;
    os << "\n  line 0x" << std::hex << line << std::dec
       << " recent history:";
    if (it == lines_.end() || it->second.history.empty()) {
        os << " (none)";
        return os.str();
    }
    for (const std::string &e : it->second.history)
        os << "\n    " << e;
    return os.str();
}

void
CoherenceOracle::violation(Addr line, const std::string &what,
                           bool always_hard)
{
    ++violations_;
    if (stats_)
        stats_->add("check.violations");
    if (strict_ || always_hard)
        panic("coherence violation: " + what + lineHistory(line));
    warn("coherence violation (degraded mode): " + what);
}

Version
CoherenceOracle::committedAtOrBefore(const LineInfo &li, Tick t)
{
    // The ring is bounded; if every kept commit postdates t the true
    // floor was trimmed, so fall back to the weakest sound bound (0).
    for (auto it = li.commits.rbegin(); it != li.commits.rend(); ++it) {
        if (it->first <= t)
            return it->second;
    }
    return 0;
}

void
CoherenceOracle::noteMessage(Tick now, const Message &msg)
{
    if (!enabled_)
        return;
    record(info(msg.lineAddr), now, "deliver " + msg.toString());
}

void
CoherenceOracle::noteNodeState(Tick now, NodeId node, Addr line,
                               CohState st, Version v, const char *why)
{
    if (!enabled_)
        return;
    LineInfo &li = info(line);
    {
        std::ostringstream os;
        os << "node " << node << " -> " << cohStateName(st) << " v" << v
           << " (" << why << ")";
        record(li, now, os.str());
    }
    if (!cohValid(st)) {
        li.holders.erase(node);
        return;
    }
    if (v > li.latest) {
        std::ostringstream os;
        os << "node " << node << " installed v" << v << " of a line whose"
           << " latest committed write is v" << li.latest << " (" << why
           << ")";
        violation(line, os.str(), true);
    }
    if (cohOwned(st)) {
        for (const auto &[n, h] : li.holders) {
            if (n == node || !cohOwned(h.st))
                continue;
            std::ostringstream os;
            os << "SWMR broken: node " << node << " became "
               << cohStateName(st) << " (" << why << ") while node " << n
               << " still holds " << cohStateName(h.st) << " v" << h.v;
            violation(line, os.str());
        }
    }
    li.holders[node] = Holder{st, v};
}

void
CoherenceOracle::noteNodeWipe(Tick now, NodeId node, const char *why)
{
    if (!enabled_)
        return;
    for (auto &[line, li] : lines_) {
        auto it = li.holders.find(node);
        if (it == li.holders.end())
            continue;
        std::ostringstream os;
        os << "node " << node << " -> Invalid (wipe: " << why << ")";
        record(li, now, os.str());
        li.holders.erase(it);
    }
}

void
CoherenceOracle::noteDirEntry(Tick now, NodeId home, Addr line,
                              const DirEntry &e)
{
    if (!enabled_)
        return;
    LineInfo &li = info(line);
    {
        std::ostringstream os;
        os << "home " << home << " dir: " << dirStateName(e.state)
           << " owner="
           << e.owner << " sharers=" << e.sharerCount() << " master="
           << (e.masterOut ? "out" : "in") << " data="
           << (e.homeHasData ? "home" : e.pagedOut ? "disk" : "-")
           << " v" << e.version;
        record(li, now, os.str());
    }
    if (e.version > li.latest) {
        std::ostringstream os;
        os << "home " << home << " recorded v" << e.version
           << " for a line whose latest committed write is v"
           << li.latest;
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
    LineInfo &li = info(line);
    {
        std::ostringstream os;
        os << "write committed v" << v;
        record(li, now, os.str());
    }
    if (v <= li.latest) {
        std::ostringstream os;
        os << "write serialized as v" << v
           << " but the line already committed v" << li.latest;
        violation(line, os.str(), true);
    }
    li.latest = v;
    li.commits.emplace_back(now, v);
    while (li.commits.size() > kHistoryDepth)
        li.commits.pop_front();
}

void
CoherenceOracle::noteReadObserved(Tick now, NodeId node, Addr line,
                                  Version observed, Tick issue_tick)
{
    if (!enabled_)
        return;
    LineInfo &li = info(line);
    {
        std::ostringstream os;
        os << "node " << node << " read observed v" << observed
           << " (issued @" << issue_tick << ")";
        record(li, now, os.str());
    }
    if (observed > li.latest) {
        std::ostringstream os;
        os << "node " << node << " read observed v" << observed
           << ", which was never committed (latest v" << li.latest
           << ")";
        violation(line, os.str(), true);
        return;
    }
    const Version floor = committedAtOrBefore(li, issue_tick);
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
    std::ostringstream os;
    os << "home " << home << " slot " << slot << ": " << what;
    record(info(line), now, os.str());
}

void
CoherenceOracle::noteFailover(Tick now, NodeId dead_home,
                              NodeId new_home)
{
    if (!enabled_)
        return;
    for (auto &[line, li] : lines_) {
        std::ostringstream os;
        os << "failover: home " << dead_home << " -> " << new_home;
        record(li, now, os.str());
    }
}

CohState
CoherenceOracle::holderState(NodeId node, Addr line,
                             Version *v_out) const
{
    auto it = lines_.find(line);
    if (it == lines_.end())
        return CohState::Invalid;
    auto hit = it->second.holders.find(node);
    if (hit == it->second.holders.end())
        return CohState::Invalid;
    if (v_out)
        *v_out = hit->second.v;
    return hit->second.st;
}

void
CoherenceOracle::forEachTrackedHolder(
    const std::function<void(Addr, NodeId, CohState, Version)> &fn) const
{
    for (const auto &[line, li] : lines_) {
        for (const auto &[node, h] : li.holders)
            fn(line, node, h.st, h.v);
    }
}

} // namespace pimdsm
