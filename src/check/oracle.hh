/**
 * @file
 * Machine-wide coherence oracle: the simulator's one run-time
 * coherence checker.
 *
 * A shadow model of every node's coherence rights, maintained from
 * hooks in the protocol controllers (proto/) and the node storage
 * layers (mem/), checked against the committed write versions the
 * Machine keeps (Machine::versions_). On every event it checks the
 * global invariants the paper's Section 2 protocol must preserve:
 *
 *  - SWMR: a Dirty copy is the only valid copy of its line, and at most
 *    one node owns a line (Dirty or SharedMaster);
 *  - version monotonicity: no copy may carry a version newer than the
 *    latest committed write;
 *  - data-value coherence: a home serves only the latest committed
 *    version from its storage; a miss-path read observes a version at
 *    least as new as the latest write committed before it issued, and
 *    exactly the latest if the home held the line for it until its
 *    TxnDone; and never a version that was never committed.
 *
 * Structural properties that need a whole-machine snapshot (directory
 * vs. node-storage agreement, D-node slot conservation) live in
 * check/scan.hh and cross-check this table against the real arrays.
 *
 * Every event is kept as a POD record in one machine-wide ring and
 * formatted only when a report is built, which picks out the line's
 * records. Violations panic
 * with the line's recent history while the machine is fault-free; under
 * fault injection (where recovery paths legitimately weaken
 * serialization transiently) they are counted in "check.violations"
 * and warned instead, except version forgery, which is impossible under
 * any legal recovery and always panics.
 */

#ifndef PIMDSM_CHECK_ORACLE_HH
#define PIMDSM_CHECK_ORACLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache_array.hh"
#include "proto/directory.hh"
#include "proto/message.hh"
#include "sim/config.hh"
#include "sim/page_blocks.hh"
#include "sim/types.hh"

namespace pimdsm
{

class StatSet;

class CoherenceOracle
{
  public:
    /** Nodes the holder masks can track. */
    static constexpr int kMaxNodes = 64;
    /** Events a line's report shows, at most. */
    static constexpr std::uint32_t kHistoryDepth = 32;
    /** Events the machine-wide ring keeps. */
    static constexpr std::uint32_t kRingSize = 1u << 14;
    /** Commit ticks kept per line for the read-freshness floor. */
    static constexpr std::uint32_t kCommitDepth = 48;

    /**
     * Arm the oracle for a machine of @p cfg (inert unless
     * cfg.check.enabled; relaxed counting mode under fault injection).
     * @p versions is the machine's committed-version table.
     */
    CoherenceOracle(const MachineConfig &cfg,
                    const PageBlocks<Version> &versions, StatSet &stats);

    bool enabled() const { return enabled_; }

    /** Violations observed so far (only grows in relaxed mode; strict
     *  mode panics on the first one). */
    std::uint64_t violations() const { return violations_; }

    // ------------------------------------------------------------------
    // Event hooks (all no-ops unless enabled()).
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

    /** A write to @p line was serialized at its home as @p v (the
     *  machine has already committed it). */
    void noteWriteCommit(Tick now, Addr line, Version v);

    /** Home @p home served @p requester's read of @p line from its own
     *  storage as @p v, which must be the latest committed version. */
    void noteHomeServe(Tick now, NodeId home, NodeId requester, Addr line,
                       Version v);

    /**
     * A miss-path read of @p line, issued at @p issue_tick, completed
     * observing @p observed. Checks @p observed against the commit
     * history: never newer than the latest commit, never older than
     * the newest commit that predates the issue, and, when
     * @p serialized (the home blocked the line until this read's
     * TxnDone, so no write can have overtaken it), exactly the latest.
     */
    void noteReadObserved(Tick now, NodeId node, Addr line,
                          Version observed, Tick issue_tick,
                          bool serialized);

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

    /** Visit every tracked (line, holder) pair as
     *  fn(line, node, state, version). */
    template <typename Fn>
    void
    forEachTrackedHolder(Fn fn) const
    {
        lines_.forEachPage([&](Addr page, std::uint32_t first) {
            for (std::uint32_t i = 0; i < lines_.linesPerPage(); ++i) {
                const LineInfo &li = lines_[first + i];
                for (std::uint64_t rest = li.valid; rest;
                     rest &= rest - 1) {
                    const NodeId n = lowestNode(rest);
                    fn(page + i * lines_.lineBytes(), n, stateOf(li, n),
                       holderVersions(first + i)[n]);
                }
            }
        });
    }

    /** Formatted per-line event history (for violation reports). */
    std::string lineHistory(Addr line) const;

  private:
    enum class Kind : std::uint8_t
    {
        Deliver,
        NodeState,
        Wipe,
        DirEntry,
        Commit,
        HomeServe,
        ReadObserved,
        Slot,
        Failover,
    };

    /** One history record; which fields mean what depends on kind
     *  (see formatEvent). */
    struct Event
    {
        Tick tick = 0;
        /** Deliver: txnSeq; ReadObserved: issue tick; Slot: slot;
         *  DirEntry: sharer count. */
        std::uint64_t aux = 0;
        Version version = 0;
        /** NodeState / Wipe / Slot: the hook's reason (a literal). */
        const char *why = nullptr;
        /** The line (kInvalidAddr: every line, for a failover). */
        Addr line = kInvalidAddr;
        /** Deliver: source; DirEntry / Slot / HomeServe: home;
         *  Failover: the dead home; else the node. */
        std::int8_t node = -1;
        /** Deliver: destination; DirEntry: owner; Failover: new home;
         *  HomeServe: requester. */
        std::int8_t peer = -1;
        /** Deliver: the transaction's requester. */
        std::int8_t requester = -1;
        /** Deliver: invalidation acks. */
        std::int8_t acks = 0;
        Kind kind = Kind::Deliver;
        /** NodeState: CohState; DirEntry: DirEntry::State. */
        std::uint8_t state = 0;
        MsgType type = MsgType::ReadReq;
        /** Deliver: kTxnDone / kMaster; DirEntry: kMasterOut /
         *  kHomeData / kPagedOut. */
        std::uint8_t flags = 0;
    };

    static constexpr std::uint8_t kTxnDone = 1, kMaster = 2,
                                  kMasterOut = 4, kHomeData = 8,
                                  kPagedOut = 16;

    /** A line's holders; aligned so no record straddles a host cache
     *  line. */
    struct alignas(32) LineInfo
    {
        /** Nodes holding a valid copy, an owned copy (Dirty or
         *  SharedMaster) and a Dirty copy. */
        std::uint64_t valid = 0;
        std::uint64_t owned = 0;
        std::uint64_t dirty = 0;
    };

    static NodeId lowestNode(std::uint64_t mask);
    static CohState stateOf(const LineInfo &li, NodeId n);

    /** The line in @p slot's copy versions, indexed by node. */
    Version *
    holderVersions(std::uint32_t slot) const
    {
        const std::uint32_t lpp = lines_.linesPerPage();
        return holderVer_[slot / lpp].get() + (slot % lpp) * nodes_;
    }

    /** The commit ticks of the line in @p slot (see commitTicks_), or
     *  null if its page has seen no commit. */
    Tick *
    commitTicks(std::uint32_t slot) const
    {
        const std::uint32_t lpp = lines_.linesPerPage();
        Tick *page = commitTicks_[slot / lpp].get();
        return page ? page + (slot % lpp) * kCommitDepth : nullptr;
    }

    /** @p line's record and its slot, creating both. */
    LineInfo &info(Addr line, std::uint32_t *slot_out = nullptr);
    /** Append a @p kind event of @p line at @p now; the caller fills
     *  in the returned record's other fields. */
    Event &record(Addr line, Tick now, Kind kind);
    /** Latest committed version of @p line. */
    Version latest(Addr line) const;
    /** Newest version of @p line committed at or before @p t (0 if
     *  none, or if that commit is older than the line keeps). */
    Version committedAtOrBefore(Addr line, Tick t) const;
    static std::string formatEvent(const Event &ev);

    /**
     * Report a violation: panic (with history) in strict mode or when
     * @p always_hard; count + warn in relaxed mode otherwise.
     */
    void violation(Addr line, const std::string &what,
                   bool always_hard = false);

    PageBlocks<LineInfo> lines_;
    /** Per page block, the version of each (line, node) copy. */
    std::vector<std::unique_ptr<Version[]>> holderVer_;
    /** Per page block, the tick its i-th line committed version v at,
     *  at [i * kCommitDepth + v % kCommitDepth]; allocated at the
     *  page's first commit. Only commits and read completions touch
     *  it, so it stays out of LineInfo. */
    std::vector<std::unique_ptr<Tick[]>> commitTicks_;
    /** The newest kRingSize events of every line, the newest at
     *  (recorded_ - 1) % kRingSize; allocated at the first record. */
    std::vector<Event> ring_;
    std::uint64_t recorded_ = 0;
    const PageBlocks<Version> &versions_;
    StatSet &stats_;
    std::size_t nodes_;
    bool enabled_;
    /** Panic on violation (fault-free runs); else count + warn. */
    bool strict_;
    std::uint64_t violations_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_CHECK_ORACLE_HH
