/**
 * @file
 * Machine-wide coherence oracle.
 *
 * A shadow model of every node's coherence rights and of every write
 * commit, maintained from hooks in the protocol controllers (proto/)
 * and the node storage layers (mem/). On every event it checks the
 * global invariants the paper's Section 2 protocol must preserve:
 *
 *  - SWMR: at most one owning copy (Dirty or SharedMaster) per line;
 *  - version monotonicity: no copy may carry a version newer than the
 *    latest committed write;
 *  - data-value coherence: a miss-path read serialized at the home must
 *    observe a version at least as new as the latest write committed
 *    before the read issued, and never one that was never committed.
 *
 * Structural properties that need a whole-machine snapshot (directory
 * vs. node-storage agreement, D-node slot conservation) live in
 * check/scan.hh and cross-check this table against the real arrays.
 *
 * Violations panic with the full per-line event history while the
 * machine is fault-free; under fault injection (where recovery paths
 * legitimately weaken serialization transiently) they are counted in
 * "check.violations" and warned instead — except version-forgery, which
 * is impossible under any legal recovery and always panics.
 */

#ifndef PIMDSM_CHECK_ORACLE_HH
#define PIMDSM_CHECK_ORACLE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "mem/cache_array.hh"
#include "proto/directory.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace pimdsm
{

class Message;
class StatSet;

class CoherenceOracle
{
  public:
    /** Arm the oracle. @p faults_on selects relaxed (counting) mode. */
    void init(const CheckConfig &cfg, bool faults_on, StatSet *stats);

    bool enabled() const { return enabled_; }

    /** Violations observed so far (only grows in relaxed mode; strict
     *  mode panics on the first one). */
    std::uint64_t violations() const { return violations_; }

    // ------------------------------------------------------------------
    // Event hooks (all no-ops until init() with cfg.enabled).
    // ------------------------------------------------------------------

    /** A message was delivered to its destination controller. */
    void noteMessage(Tick now, const Message &msg);

    /** Node @p node now holds @p line in @p st (Invalid = dropped). */
    void noteNodeState(Tick now, NodeId node, Addr line, CohState st,
                       Version v, const char *why);

    /** Node @p node dropped every line it held (flush / reconfig). */
    void noteNodeWipe(Tick now, NodeId node, const char *why);

    /** Directory entry for @p line changed at home @p home. */
    void noteDirEntry(Tick now, NodeId home, Addr line, const DirEntry &e);

    /** A write to @p line was serialized at its home as @p v. */
    void noteWriteCommit(Tick now, Addr line, Version v);

    /**
     * A miss-path read of @p line, issued at @p issue_tick, completed
     * observing @p observed. Checks @p observed against the commit
     * history: never newer than the latest commit, never older than
     * the newest commit that predates the issue.
     */
    void noteReadObserved(Tick now, NodeId node, Addr line,
                          Version observed, Tick issue_tick);

    /** D-node Data-slot lifecycle event (history only). */
    void noteSlotEvent(Tick now, NodeId home, Addr line, std::uint32_t slot,
                       const char *what);

    /** Directory failover: @p dead_home's lines move to @p new_home. */
    void noteFailover(Tick now, NodeId dead_home, NodeId new_home);

    // ------------------------------------------------------------------
    // Queries (for check/scan.cc and tests).
    // ------------------------------------------------------------------

    /**
     * Tracked state of @p node's copy of @p line (Invalid if none);
     * the copy's version is returned through @p v_out when non-null.
     */
    CohState holderState(NodeId node, Addr line,
                         Version *v_out = nullptr) const;

    /** Visit every tracked (line, holder) pair. */
    void forEachTrackedHolder(
        const std::function<void(Addr, NodeId, CohState, Version)> &fn)
        const;

    /** Formatted per-line event history (for violation reports). */
    std::string lineHistory(Addr line) const;

  private:
    struct Holder
    {
        CohState st = CohState::Invalid;
        Version v = 0;
    };

    struct LineInfo
    {
        /** Nodes currently holding a valid copy. */
        std::map<NodeId, Holder> holders;
        /** Latest committed write generation. */
        Version latest = 0;
        /** Recent commits as (tick, version), oldest first. */
        std::deque<std::pair<Tick, Version>> commits;
        /** Recent events, oldest first (ring depth: oracle.cc). */
        std::deque<std::string> history;
    };

    LineInfo &info(Addr line) { return lines_[line]; }
    void record(LineInfo &li, Tick now, const std::string &text);

    /**
     * Report a violation: panic (with history) in strict mode or when
     * @p always_hard; count + warn in relaxed mode otherwise.
     */
    void violation(Addr line, const std::string &what,
                   bool always_hard = false);

    /** Newest version committed at or before @p t (0 if unknown). */
    static Version committedAtOrBefore(const LineInfo &li, Tick t);

    std::unordered_map<Addr, LineInfo> lines_;
    StatSet *stats_ = nullptr;
    bool enabled_ = false;
    /** Panic on violation (fault-free runs); else count + warn. */
    bool strict_ = true;
    std::uint64_t violations_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_CHECK_ORACLE_HH
