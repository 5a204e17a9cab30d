/**
 * @file
 * Shared home-side coherence engine.
 *
 * All three machines use a DASH-like directory protocol with a blocked
 * home: the home serializes transactions per line, and each requester
 * sends a final TxnDone acknowledgment (the paper's Acknowledgment
 * handler, Table 2) that unblocks the line. Subclasses specialize the
 * home *storage* policy:
 *
 *  - AggDNodeHome: software handlers, Data/Pointer arrays, dirty lines
 *    keep no home placeholder, SharedList reuse, paging out.
 *  - NumaHome: hardware directory overlapped with an always-backing
 *    plain memory.
 *  - ComaHome: directory only — data lives in attraction memories; a
 *    displaced master line is injected into a provider node.
 */

#ifndef PIMDSM_PROTO_HOME_BASE_HH
#define PIMDSM_PROTO_HOME_BASE_HH

#include <cstdint>
#include <utility>

#include "proto/context.hh"
#include "proto/directory.hh"
#include "proto/message.hh"
#include "proto/spec.hh"
#include "proto/stuck.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/function_ref.hh"

namespace pimdsm
{

class HomeBase
{
  public:
    HomeBase(ProtoContext &ctx, NodeId self, spec::Role role);
    virtual ~HomeBase() = default;

    NodeId self() const { return self_; }

    /** This controller's role in the declarative protocol spec. */
    spec::Role role() const { return role_; }

    /** Entry point for every home-bound message delivered to this node. */
    void handleMessage(const Message &msg);

    DirectoryTable &directory() { return dir_; }
    const DirectoryTable &directory() const { return dir_; }

    /** Protocol engine (D-node processor / hardware controller). */
    const Resource &engine() const { return engine_; }
    Resource &engine() { return engine_; }

    /** Count lines by coherence state for Figure 8. */
    void collectCensus(LineCensus &census) const;

    /** Debug invariant check over all entries; panics on violation. */
    void checkInvariants() const;

    // ------------------------------------------------------------------
    // Reconfiguration support (machine must be quiesced).
    // ------------------------------------------------------------------

    /** Take over directory entry @p e for @p line from a retiring
     *  home, which has @p queued requests waiting on the line; panics
     *  unless the line is idle (not busy, nothing queued). */
    void adoptEntry(Addr line, const DirEntry &e, std::size_t queued);

    /** Absorb an owned line flushed from a node that changes role. */
    void functionalWriteBack(Addr line, NodeId from, Version v);

    /** Drop all directory state and storage (node leaves D role). */
    virtual void
    resetForReconfig()
    {
        dir_.clear();
        served_.clear();
    }

    /**
     * Fail-stop switch: a dead home ignores every message (the machine
     * also drops traffic to/from it; this guards handler events that
     * were already scheduled when the node died).
     */
    void setDead(bool dead) { dead_ = dead; }
    bool isDead() const { return dead_; }

    /**
     * A compute node fail-stopped: scrub it out of this directory.
     * Administratively finishes transactions blocked on the dead
     * requester's TxnDone, reclaims ownership it held (its salvaged
     * data arrives separately via functionalWriteBack; anything left
     * falls back to the paged-out backing copy at the latest committed
     * version), drops it from sharer sets, purges its queued requests,
     * and re-serves the unblocked queues. When @p unblocked is given
     * the re-serve is deferred: the lines are appended instead, and the
     * caller drains them with drainQueued() once salvage has landed
     * (re-serving earlier could forward a read at the dead owner and
     * re-busy the line before functionalWriteBack can run).
     */
    void abortNode(NodeId dead, std::vector<Addr> *unblocked = nullptr);

    /** Serve a line's queued requests until it goes busy or empties,
     *  dropping those from dead nodes. */
    void drainQueued(Addr line);

    /**
     * Post-salvage sweep for a fail-stopped compute node: any entry
     * still recording @p dead as owner/master lost its only up-to-date
     * copy (nothing salvageable remained in the dead cache), so fall
     * back to the paged-out backing store at the latest committed
     * version. Returns the number of lines lost.
     */
    std::uint64_t reclaimDeadOwner(NodeId dead);

    /** Append a StuckTxn per busy/queued line (watchdog reports). */
    void collectStuck(std::vector<StuckTxn> &out) const;

  protected:
    // ------------------------------------------------------------------
    // Storage hooks.
    // ------------------------------------------------------------------

    /** Called when a directory entry is first created. */
    virtual void initEntry(Addr line, DirEntry &e) = 0;

    /** Does home storage hold an up-to-date copy? */
    virtual bool
    hasData(Addr, const DirEntry &e) const
    {
        return e.homeHasData;
    }

    /** Latency of reading/writing one line in home storage. */
    virtual Tick dataAccessLatency(DirEntry &e) = 0;

    /**
     * Make home storage hold the line (allocating space as needed).
     * @return extra latency incurred (e.g. reclaim work).
     */
    virtual Tick absorbData(Addr line, DirEntry &e, Version v) = 0;

    /** Drop the home copy because the line went Dirty at a P-node. */
    virtual void releaseData(Addr line, DirEntry &e) = 0;

    /** May this home keep data at all (COMA: no)? */
    virtual bool backsLines() const { return true; }

    /** Hand out mastership to the first reader (AGG/COMA: yes). */
    virtual bool grantsMasterOnRead() const { return true; }

    /** Absorb opportunistic sharing writebacks (OwnerToHome)? */
    virtual bool wantsSharingData(Addr line, const DirEntry &e) const;

    /** Is an opportunistic absorb cheap right now (AGG: FreeList)? */
    virtual bool canAbsorbCheaply() const { return true; }

    /**
     * Re-establish storage bookkeeping after a state change (AGG links
     * or unlinks the Data slot on SharedList: a slot is reclaimable iff
     * homeHasData && masterOut).
     */
    virtual void updateLinkage(Addr line, DirEntry &e);

    /** Charge for paging a line back in from disk; clears pagedOut. */
    virtual Tick pageIn(Addr line, DirEntry &e);

    /** Cold read: no copy exists anywhere. Default: absorb zero-fill
     *  data and serve from home (AGG/NUMA); COMA overrides to grant a
     *  master copy to the requester directly. */
    virtual void serveColdRead(Addr line, DirEntry &e, const Message &req,
                               Tick when);

    /** Displaced Dirty/SharedMaster line arriving at home; @p e is
     *  its (idle) directory entry. */
    virtual void handleWriteBack(const Message &msg, DirEntry &e);

    /** COMA injection responses; others never see these. */
    virtual void handleInjectResponse(const Message &msg);

    /** Computation-in-memory request (AGG D-nodes only). */
    virtual void handleCimReq(const Message &msg);

    // ------------------------------------------------------------------
    // Cost hooks.
    // ------------------------------------------------------------------

    /** Delay from message arrival to the handler noticing it. */
    virtual Tick detectDelay() const { return 0; }

    /** 1.0 for software handlers; 0.7 for NUMA/COMA hardware. */
    virtual double costFactor() const { return 1.0; }

    /**
     * Latency contribution of the protocol handler for @p req. NUMA
     * overrides this to 0 for node-local requests: the on-chip
     * directory access is overlapped with the memory access
     * (Section 3).
     */
    virtual Tick handlerLatency(const Message &req, Tick base) const;

    /** Line slots this home's storage provides (Figure 8 capacity). */
    virtual std::uint64_t storageCapacityLines() const { return 0; }

    /** Apply costFactor to a Table 2 constant. */
    Tick scaled(Tick t) const;

    const HandlerCosts &costs() const { return ctx_.config().handlers; }

    // ------------------------------------------------------------------
    // Engine helpers (available to subclasses).
    // ------------------------------------------------------------------

    /** Request entry: dedup retried transactions, then queue or serve. */
    void acceptRequest(const Message &msg);

    /** Queue behind a busy line or serve immediately (writebacks skip
     *  the dedup machinery but still respect the blocked home). */
    void enqueueOrServe(const Message &msg);

    /** Emit @p msg at absolute tick @p when. */
    void sendAt(Tick when, Message msg);

    /** Get-or-create the entry for @p line. */
    DirEntry &entryFor(Addr line);

    /** Process one request now; @p e is its line's entry, known not
     *  busy. */
    void serveRequest(const Message &msg, DirEntry &e);

    void serveRead(Addr line, DirEntry &e, const Message &req);
    void serveWrite(Addr line, DirEntry &e, const Message &req);

    /**
     * Grant @p req a shared copy of @p line from home, as master when
     * @p master, and unblock the line: the one ReadReply a home sends.
     * The requester joins the sharers under the @p max_ptrs pointer
     * limit (0: unlimited).
     */
    void grantRead(Addr line, DirEntry &e, const Message &req, Tick when,
                   bool master, int max_ptrs);

    /** Forward @p req to @p to (the owner or master) as a @p kind Fwd
     *  carrying version @p v and @p acks pending invalidations. */
    void forward(DirEntry &e, const Message &req, Tick when, FwdKind kind,
                 NodeId to, Version v, int acks);

    /**
     * The write-back handler every home shares: charge the engine,
     * ack and drop a duplicate by wbSeq, attribute the rest (a stale
     * version under faults is late), run the storage-specific @p tail
     * (from owner, from master) on entry @p e and ack. The ack leaves
     * after the absorb latency @p tail returns, or before @p tail runs
     * when @p ack_first.
     */
    void serveWriteBack(const Message &msg, DirEntry &e, bool ack_first,
                        FunctionRef<Tick(bool, bool)> tail);

    /** Is a write-back of @p e from @p from the owner's dirty copy, the
     *  master's copy, or (neither) a late one? */
    static std::pair<bool, bool> attributeWriteBack(const DirEntry &e,
                                                    NodeId from,
                                                    bool master_clean);

    /**
     * Take an attributed write-back into home storage and the entry;
     * returns the absorb latency. A @p salvage (functionalWriteBack)
     * also demotes a Shared line it leaves without sharers or master.
     */
    Tick absorbWriteBack(Addr line, DirEntry &e, NodeId from, Version v,
                         bool from_owner, bool from_master, bool salvage);
    void handleTxnDone(const Message &msg);
    void handleOwnerToHome(const Message &msg);

    /** Unblock @p line and serve the next queued request, if any.
     *  @p from is the TxnDone sender; it must match the transaction
     *  the line is blocked for (kInvalidNode, the default for the
     *  internal completion paths, unblocks unconditionally). */
    void finishTxn(Addr line, NodeId from = kInvalidNode);

    /** Report @p line's directory entry to the coherence oracle after
     *  a state transition (no-op unless check.enabled). */
    void noteDir(Addr line, const DirEntry &e);

    // ------------------------------------------------------------------
    // Fault tolerance (inert unless cfg().faults.enabled()).
    // ------------------------------------------------------------------

    /**
     * Request dedup by <line, requester, txn seq>. Returns true if the
     * request is a duplicate of one already seen (replaying the cached
     * reply when one exists); false if it is fresh and must be served.
     */
    bool dedupRequest(const Message &msg);

    /**
     * Send a home-generated reply, caching it against the request's
     * txn seq so a retried request can be answered idempotently.
     */
    void sendReplyTracked(Tick when, Message r, const Message &req);

    /**
     * Scrub @p node's cached granting reply for @p line (no-op unless
     * faults are on and a reply is cached). Called when an Inval or an
     * exclusive forward supersedes a grant the node may never have
     * received: replaying the stale grant on retry would resurrect a
     * copy the directory no longer tracks, so the scrub forces the
     * retry back through the directory (see dedupRequest).
     */
    void scrubServedReply(Addr line, NodeId node);

    ProtoContext &ctx_;
    NodeId self_;
    spec::Role role_;
    const spec::DispatchTable<HomeBase> *dispatch_;
    Resource engine_;
    DirectoryTable dir_;
    /** Monotonic egress time (see sendAt). */
    Tick egressClock_ = 0;

    /** Last transaction served per <line, requester> (+ cached reply),
     *  for idempotent request handling. Populated only under faults. */
    struct ServedTxn
    {
        std::uint64_t seq = 0;
        bool hasReply = false;
        Message reply;
        /** Highest retry attempt of this transaction the home has seen
         *  (Message::retryAttempt; see dedupRequest). */
        int retrySeen = 0;
        /**
         * Highest WriteBack sequence processed from this node for this
         * line. Writebacks get their own dedup lane: a duplicate can
         * straggle until after the sender re-acquired the line at the
         * same version (e.g. via a COMA re-injection), when neither
         * attribution nor the version guard can tell it from a fresh
         * eviction — only the sequence number can.
         */
        std::uint64_t wbSeq = 0;
    };
    FlatMap<std::pair<Addr, NodeId>, ServedTxn> served_;
    /** Cached cfg().faults.enabled(). */
    bool faultsOn_ = false;
    /** Fail-stop: node died; ignore everything. */
    bool dead_ = false;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_HOME_BASE_HH
