#include "check/scan.hh"

#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/oracle.hh"
#include "machine/machine.hh"
#include "proto/agg_dnode.hh"
#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/** Slot conservation on one AGG D-node (see file header). */
void
checkDNodeSlots(NodeId hn, const AggDNodeHome &home)
{
    const DNodeStore &store = home.store();
    store.checkIntegrity();

    std::unordered_map<std::uint32_t, Addr> referenced;
    home.directory().forEach([&](Addr line, const DirEntry &e) {
        if (e.localPtr == kNilPtr)
            return;
        if (!e.homeHasData)
            panic("D-node " + std::to_string(hn) +
                  " directory entry references slot " +
                  std::to_string(e.localPtr) +
                  " but claims the home holds no data");
        if (e.localPtr >= store.dataEntries())
            panic("D-node " + std::to_string(hn) +
                  " directory entry references out-of-range slot " +
                  std::to_string(e.localPtr));
        if (store.inFree(e.localPtr))
            panic("D-node " + std::to_string(hn) +
                  " directory entry references FreeList slot " +
                  std::to_string(e.localPtr));
        if (store.slotLine(e.localPtr) != line) {
            std::ostringstream os;
            os << "D-node " << hn << " slot " << e.localPtr
               << " stores line 0x" << std::hex
               << store.slotLine(e.localPtr)
               << " but is referenced by the entry for line 0x" << line;
            panic(os.str());
        }
        auto [it, fresh] = referenced.emplace(e.localPtr, line);
        if (!fresh) {
            std::ostringstream os;
            os << "D-node " << hn << " slot " << e.localPtr
               << " referenced by two directory entries (lines 0x"
               << std::hex << it->second << " and 0x" << line << ")";
            panic(os.str());
        }
    });

    if (referenced.size() != store.usedSlots()) {
        std::ostringstream os;
        os << "D-node " << hn << " slot conservation broken: "
           << store.usedSlots() << " slots in use ("
           << store.dataEntries() << " total, " << store.freeLen()
           << " free, " << store.sharedLen() << " on SharedList) but "
           << referenced.size()
           << " referenced by directory entries — "
           << (referenced.size() < store.usedSlots() ? "leaked"
                                                     : "double-booked")
           << " Data slot(s)";
        panic(os.str());
    }
}

/** Oracle holder table vs. real node storage, both directions. */
void
checkOracleAgreement(const Machine &m)
{
    const CoherenceOracle &oracle = m.oracle();
    if (!oracle.enabled())
        return;

    // Storage -> oracle: every valid copy must be tracked identically.
    std::map<std::pair<NodeId, Addr>, char> seen;
    for (NodeId n : m.computeNodes()) {
        m.compute(n)->forEachValidLine(
            [&](Addr line, CohState st, Version v) {
                seen[{n, line}] = 1;
                Version ov = 0;
                const CohState ost = oracle.holderState(n, line, &ov);
                if (ost != st || (cohValid(ost) && ov != v)) {
                    std::ostringstream os;
                    os << "node " << n << " storage holds line 0x"
                       << std::hex << line << std::dec << " as "
                       << cohStateName(st) << " v" << v
                       << " but the oracle tracks "
                       << cohStateName(ost) << " v" << ov
                       << " — a protocol path is missing its oracle "
                          "hook"
                       << oracle.lineHistory(line);
                    panic(os.str());
                }
            });
    }

    // Oracle -> storage: no tracked copy may have vanished silently.
    oracle.forEachTrackedHolder(
        [&](Addr line, NodeId n, CohState st, Version v) {
            if (seen.count({n, line}))
                return;
            std::ostringstream os;
            os << "oracle tracks node " << n << " holding line 0x"
               << std::hex << line << std::dec << " as "
               << cohStateName(st) << " v" << v
               << " but the node's storage has no valid copy"
               << oracle.lineHistory(line);
            panic(os.str());
        });
}

struct Copy
{
    NodeId node;
    CohState st;
    Version v;
};

std::string
describeCopies(const std::vector<Copy> &hs)
{
    std::ostringstream os;
    for (const Copy &c : hs)
        os << " [node " << c.node << " " << cohStateName(c.st) << " v"
           << c.v << "]";
    return os.str();
}

} // namespace

void
checkGlobalInvariants(const Machine &m)
{
    for (NodeId hn : m.directoryNodes()) {
        if (m.isDead(hn))
            continue;
        if (const auto *agg =
                dynamic_cast<const AggDNodeHome *>(m.home(hn)))
            checkDNodeSlots(hn, *agg);
    }
    checkOracleAgreement(m);
}

void
checkQuiescentCoherence(const Machine &m)
{
    checkGlobalInvariants(m);

    std::unordered_map<Addr, std::vector<Copy>> holders;
    for (NodeId n : m.computeNodes()) {
        m.compute(n)->forEachValidLine(
            [&](Addr line, CohState st, Version v) {
                holders[line].push_back(Copy{n, st, v});
            });
    }

    const bool coma = m.config().arch == ArchKind::Coma;
    std::unordered_set<Addr> covered;
    const std::vector<Copy> none;

    for (NodeId hn : m.directoryNodes()) {
        if (m.isDead(hn))
            continue;
        m.home(hn)->directory().forEach([&](Addr line,
                                            const DirEntry &e) {
            covered.insert(line);
            std::ostringstream where;
            where << "line 0x" << std::hex << line << std::dec
                  << " at home " << hn;
            const std::string at = where.str() +
                                   m.oracle().lineHistory(line);

            if (e.busy || m.home(hn)->directory().queued(line) != 0)
                panic("quiescent coherence check ran on a busy " +
                      at);

            const Version latest = m.latestVersion(line);
            auto hit = holders.find(line);
            const std::vector<Copy> &hs =
                hit == holders.end() ? none : hit->second;

            if (e.homeHasData && e.version != latest)
                panic("home copy of " + at + " is v" +
                      std::to_string(e.version) +
                      " at quiescence but the latest commit is v" +
                      std::to_string(latest));

            bool owner_holds = false;
            for (const Copy &c : hs) {
                if (c.v != latest)
                    panic("node " + std::to_string(c.node) +
                          " holds v" + std::to_string(c.v) + " of " +
                          at + " at quiescence; latest is v" +
                          std::to_string(latest) +
                          describeCopies(hs));
                switch (e.state) {
                  case DirEntry::State::Dirty:
                    if (c.node != e.owner)
                        panic("copy at node " +
                              std::to_string(c.node) +
                              " while the directory says Dirty at "
                              "node " +
                              std::to_string(e.owner) + " for " + at +
                              describeCopies(hs));
                    if (c.st != CohState::Dirty)
                        panic("directory says Dirty but the owner "
                              "holds " +
                              std::string(cohStateName(c.st)) +
                              " for " + at);
                    owner_holds = true;
                    break;
                  case DirEntry::State::Shared:
                    if (c.st == CohState::Dirty)
                        panic("Dirty copy at node " +
                              std::to_string(c.node) +
                              " under a Shared directory entry for " +
                              at + describeCopies(hs));
                    if (c.st == CohState::SharedMaster) {
                        if (!e.masterOut || e.owner != c.node)
                            panic("master copy at node " +
                                  std::to_string(c.node) +
                                  " the directory does not know "
                                  "about for " +
                                  at + describeCopies(hs));
                        owner_holds = true;
                    } else if (!e.isSharer(c.node) && !e.ptrOverflow) {
                        panic("sharer at node " +
                              std::to_string(c.node) +
                              " unknown to the directory for " + at +
                              describeCopies(hs));
                    }
                    break;
                  case DirEntry::State::Uncached:
                    panic("valid copy at node " +
                          std::to_string(c.node) +
                          " under an Uncached directory entry for " +
                          at + describeCopies(hs));
                }
            }

            if (e.state == DirEntry::State::Dirty && !owner_holds)
                panic("directory says Dirty at node " +
                      std::to_string(e.owner) +
                      " but no such copy exists for " + at +
                      describeCopies(hs));
            if (e.state == DirEntry::State::Shared && e.masterOut &&
                !owner_holds)
                panic("directory says master is out at node " +
                      std::to_string(e.owner) +
                      " but no master copy exists for " + at +
                      describeCopies(hs));
            // The latest data must survive somewhere. COMA homes keep
            // no storage of their own (hasData is a dynamic property
            // of the local attraction memory), so the reachability
            // argument there is the master/disk check above.
            if (!coma && e.state == DirEntry::State::Shared &&
                !e.masterOut && !e.homeHasData && !e.pagedOut)
                panic("shared " + at +
                      " has neither a home copy, a master, nor a "
                      "disk copy — latest data unreachable" +
                      describeCopies(hs));
        });
    }

    for (const auto &[line, hs] : holders) {
        if (!covered.count(line)) {
            std::ostringstream os;
            os << "valid copies of line 0x" << std::hex << line
               << std::dec << " exist but no live directory covers "
               << "the line:" << describeCopies(hs);
            panic(os.str());
        }
    }
}

} // namespace pimdsm
