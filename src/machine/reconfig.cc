#include "machine/reconfig.hh"

#include <vector>

#include "sim/function_ref.hh"
#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/**
 * Re-home every page of @p from round-robin on @p targets, starting at
 * turn @p turn, and hand each of @p from's directory entries, after
 * @p prepare has adjusted it, to its line's new home; then wipe
 * @p from's directory. Returns the pages moved.
 */
std::uint64_t
rehomePages(Machine &m, NodeId from, const std::vector<NodeId> &targets,
            std::uint64_t turn, FunctionRef<void(Addr, DirEntry &)> prepare)
{
    const auto pages = m.pageMap().pagesHomedAt(from);
    for (Addr page : pages)
        m.pageMap().remap(page, targets[turn++ % targets.size()]);

    const DirectoryTable &dir = m.home(from)->directory();
    std::vector<std::pair<Addr, DirEntry>> entries;
    dir.forEach([&](Addr line, const DirEntry &e) {
        entries.emplace_back(line, e);
    });
    for (auto &[line, e] : entries) {
        prepare(line, e);
        const NodeId target = m.pageMap().homeOf(line);
        if (target == kInvalidNode || target == from)
            panic("re-homing pages left a line behind");
        m.home(target)->adoptEntry(line, e, dir.queued(line));
    }
    m.home(from)->resetForReconfig();
    return pages.size();
}

/** Spread @p cost over the live D-node engines, starting now (they
 *  rebuild the state and absorb the salvage traffic). */
void
chargeSurvivors(Machine &m, Tick cost)
{
    const auto survivors = m.directoryNodes();
    if (survivors.empty())
        return;
    const Tick now = m.eq().curTick();
    const Tick share = cost / static_cast<Tick>(survivors.size()) + 1;
    for (NodeId s : survivors)
        m.home(s)->engine().acquire(now, share);
}

} // namespace

ReconfigResult
applyReconfig(Machine &m, int new_p, int new_d)
{
    const MachineConfig &cfg = m.config();
    if (cfg.arch != ArchKind::Agg)
        fatal("only AGG machines reconfigure");
    if (!cfg.reconfigurable)
        fatal("machine was not built reconfigurable");
    if (new_p + new_d != m.totalNodes())
        fatal("reconfiguration must cover every node");
    if (new_p < 1 || new_d < 1)
        fatal("need at least one P-node and one D-node");
    if (!m.eq().empty())
        panic("reconfiguration requires a quiescent machine");

    ReconfigResult res;

    std::vector<NodeId> surviving_d;
    for (NodeId n = new_p; n < m.totalNodes(); ++n)
        surviving_d.push_back(n);

    // 1. Flush compute state of nodes that switch from P to D: the OS
    //    writes back their dirty and shared-master lines (Section 2.3).
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        const bool was_p = m.role(n) == NodeRole::Compute;
        const bool now_d = n >= new_p;
        if (!(was_p && now_d))
            continue;
        ++res.nodesChanged;
        auto lines = m.compute(n)->drainForReconfig();
        for (auto &[line, st, v] : lines) {
            const NodeId home = m.pageMap().homeOf(line);
            if (home == kInvalidNode)
                continue;
            m.home(home)->functionalWriteBack(line, n, v);
            if (cohOwned(st))
                ++res.linesMigrated;
        }
    }

    // 2. Migrate pages off nodes that switch from D to P.
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        const bool was_d = m.role(n) == NodeRole::Directory;
        const bool now_p = n < new_p;
        if (!(was_d && now_p))
            continue;
        ++res.nodesChanged;
        // Move every directory entry (and home copy) to the page's
        // new home. Only entries with a home copy move a memory line;
        // the rest are 8-byte Directory entries.
        res.pagesMoved += rehomePages(
            m, n, surviving_d, res.pagesMoved, [&](Addr, DirEntry &e) {
                if (e.homeHasData)
                    ++res.linesMigrated;
                else
                    ++res.dirEntriesMoved;
            });
    }

    // 3. Flip the roles.
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        m.setRole(n, n < new_p ? NodeRole::Compute
                               : NodeRole::Directory);
    }

    // 4. Overhead model (Section 4.2): a base cost for setup,
    //    synchronization and decision making, plus per-line collection
    //    and migration, page-mapping updates per 10 pages, and a TLB
    //    update in every P-node processor.
    const ReconfigCosts &rc = cfg.reconfig;
    res.cost = rc.baseCost + rc.perLineCost * res.linesMigrated +
               rc.perDirEntryCost * res.dirEntriesMoved +
               rc.perTenPagesCost * ((res.pagesMoved + 9) / 10) +
               rc.tlbUpdateCost * static_cast<Tick>(new_p);

    m.stats().add("reconfig.episodes");
    m.stats().add("reconfig.lines", static_cast<double>(
                                        res.linesMigrated));
    m.stats().add("reconfig.pages", static_cast<double>(res.pagesMoved));
    return res;
}

FailoverResult
failOverDNode(Machine &m, NodeId dead)
{
    const MachineConfig &cfg = m.config();
    if (cfg.arch != ArchKind::Agg)
        fatal("D-node failover requires an AGG machine");
    if (dead < 0 || dead >= m.totalNodes() ||
        m.role(dead) != NodeRole::Directory)
        fatal("failOverDNode: not a directory node");
    if (m.isDead(dead))
        fatal("failOverDNode: node already dead");

    // Fail-stop first: from this instant nothing leaves or reaches the
    // node, and its already-scheduled handler events no-op.
    m.markDead(dead);

    const auto survivors = m.directoryNodes();
    if (survivors.empty())
        fatal("failOverDNode: no surviving directory node");
    if (m.oracle().enabled())
        m.oracle().noteFailover(m.eq().curTick(), dead, survivors[0]);

    FailoverResult res;

    // Re-home the dead node's pages round-robin on the survivors and
    // adopt its directory entries. In-flight transactions die with the
    // home (requesters retry into the new home); home-only data is
    // lost and recovered from the disk backing store on next touch.
    DirectoryTable &dir = m.home(dead)->directory();
    res.pagesMoved = rehomePages(m, dead, survivors, 0, [&](Addr line,
                                                           DirEntry &e) {
        if (e.busy)
            ++res.pendingDropped;
        if (dir.queued(line) != 0) {
            res.pendingDropped += dir.queued(line);
            dir.queue(line).clear();
        }
        e.busy = false;
        e.busyFor = kInvalidNode;
        if (e.homeHasData) {
            e.homeHasData = false;
            e.localPtr = kNilPtr;
            if (!e.masterOut) {
                // The only up-to-date copy died with the node.
                e.pagedOut = true;
                ++res.linesLost;
            }
        }
        ++res.entriesMoved;
    });

    // Overhead: the OS rebuilds the mapping and directory state from
    // its replicated page tables — same per-entry/per-page model as a
    // planned reconfiguration (the lost lines are charged lazily at
    // page-in). The work is spread over the surviving D-node engines.
    const ReconfigCosts &rc = cfg.reconfig;
    res.cost = rc.baseCost + rc.perDirEntryCost * res.entriesMoved +
               rc.perTenPagesCost * ((res.pagesMoved + 9) / 10);
    chargeSurvivors(m, res.cost);

    m.stats().add("fault.failovers");
    m.stats().add("fault.failover_pages",
                  static_cast<double>(res.pagesMoved));
    m.stats().add("fault.failover_entries",
                  static_cast<double>(res.entriesMoved));
    m.stats().add("fault.failover_lines_lost",
                  static_cast<double>(res.linesLost));
    m.stats().add("fault.failover_pending_dropped",
                  static_cast<double>(res.pendingDropped));
    return res;
}

PNodeFailoverResult
failOverPNode(Machine &m, NodeId dead)
{
    const MachineConfig &cfg = m.config();
    if (cfg.arch != ArchKind::Agg)
        fatal("P-node failover requires an AGG machine");
    if (dead < 0 || dead >= m.totalNodes() ||
        m.role(dead) != NodeRole::Compute)
        fatal("failOverPNode: not a compute node");
    if (m.isDead(dead))
        fatal("failOverPNode: node already dead");

    PNodeFailoverResult res;

    // 1. The chip's controllers stop: capture the cache and write
    //    buffer contents for salvage, then go fail-stop.
    auto lines = m.compute(dead)->wipeForDeath();
    m.markDead(dead);

    // 2. Every surviving directory scrubs the dead node out. The
    //    re-serve of queues the aborts released is deferred until the
    //    salvage below has landed: serving earlier could forward a
    //    read at the dead owner and re-busy the line.
    std::vector<std::pair<NodeId, std::vector<Addr>>> unblocked;
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        if (n == dead || !m.home(n) || m.isDead(n))
            continue;
        std::vector<Addr> released;
        m.home(n)->abortNode(dead, &released);
        res.txnsAborted += released.size();
        if (!released.empty())
            unblocked.emplace_back(n, std::move(released));
    }

    // 3. Salvage: the dead chip's DRAM outlives its processor long
    //    enough for the OS to read the owned lines back over the mesh
    //    (modeled functionally at their exact committed versions, so
    //    no write is lost).
    for (auto &[line, st, v] : lines) {
        const NodeId home = m.pageMap().homeOf(line);
        if (home == kInvalidNode || m.isDead(home))
            continue;
        m.home(home)->functionalWriteBack(line, dead, v);
        if (cohOwned(st))
            ++res.linesSalvaged;
    }

    // 4. Anything still recording the dead node as owner had no
    //    salvageable copy left: fall back to the disk backing store.
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        if (n == dead || !m.home(n) || m.isDead(n))
            continue;
        res.linesLost += m.home(n)->reclaimDeadOwner(dead);
    }

    // 5. Now re-serve the queues the aborts released.
    for (auto &[n, released] : unblocked) {
        for (Addr line : released)
            m.home(n)->drainQueued(line);
    }

    // Overhead: base OS decision cost plus a per-line charge for the
    // salvage reads, spread over the surviving directory engines (they
    // absorb the salvage traffic).
    const ReconfigCosts &rc = cfg.reconfig;
    res.cost = rc.baseCost + rc.perLineCost * res.linesSalvaged;
    chargeSurvivors(m, res.cost);

    m.stats().add("fault.pnode_failovers");
    m.stats().add("fault.pnode_lines_salvaged",
                  static_cast<double>(res.linesSalvaged));
    m.stats().add("fault.pnode_lines_lost",
                  static_cast<double>(res.linesLost));
    m.stats().add("fault.pnode_txns_aborted",
                  static_cast<double>(res.txnsAborted));
    return res;
}

void
rebootNode(Machine &m, NodeId n, NodeRole role)
{
    if (!m.eq().empty())
        panic("reboot requires a quiescent machine");
    if (n < 0 || n >= m.totalNodes() || !m.isDead(n))
        fatal("rebootNode: node is not dead");
    if (role == NodeRole::Compute && !m.compute(n))
        fatal("rebootNode: node has no compute controller");
    if (role == NodeRole::Directory && !m.home(n))
        fatal("rebootNode: node has no home controller");
    // The chip comes back empty: wipe any pre-death state.
    if (m.home(n))
        m.home(n)->resetForReconfig();
    m.setRole(n, role);
    m.clearDead(n);
    m.stats().add("fault.reboots");
}

} // namespace pimdsm
