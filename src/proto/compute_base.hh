/**
 * @file
 * Shared compute-side coherence controller.
 *
 * Sits between the processor model and the mesh: an L1 (64 B lines) and
 * L2 (one memory line, 128 B) in front of the node-level coherence
 * layer, a set of MSHRs that coalesce outstanding misses, and the
 * hardware message engine that the paper's P-nodes use to handle
 * incoming invalidations/forwards without involving the processor.
 *
 * Subclasses provide the node-level storage:
 *  - CachedMemCompute (AGG P-nodes, COMA nodes): the tagged local DRAM
 *    organized as a cache.
 *  - NumaCompute: rights live directly in the L2 tags; the local plain
 *    memory only serves lines homed at this node (via the co-located
 *    NumaHome).
 */

#ifndef PIMDSM_PROTO_COMPUTE_BASE_HH
#define PIMDSM_PROTO_COMPUTE_BASE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "proto/context.hh"
#include "proto/message.hh"
#include "proto/spec.hh"
#include "proto/stuck.hh"
#include "sim/flat_map.hh"
#include "sim/function_ref.hh"
#include "sim/inline_callback.hh"
#include "sim/stats.hh"

namespace pimdsm
{

class ComputeBase
{
  public:
    /**
     * Completion: tick the access finished and where it was served.
     * Trivially copyable with a three-word capture budget, so pending
     * accesses, MSHR waiters and completion events carry it as plain
     * bytes; a closure that does not fit fails to compile.
     */
    using CompletionFn = InlineFunction<void(Tick, ReadService), 24>;

    ComputeBase(ProtoContext &ctx, NodeId self, spec::Role role);
    virtual ~ComputeBase() = default;

    NodeId self() const { return self_; }

    /** This controller's role in the declarative protocol spec. */
    spec::Role role() const { return role_; }

    /**
     * Issue a load (@p is_write false) or a store-ownership request.
     * The callback fires exactly once, at the completion tick.
     */
    void access(Addr addr, bool is_write, CompletionFn cb);

    /** Incoming network message (replies, invals, forwards, ...). */
    void handleMessage(const Message &msg);

    /**
     * Offload a scan of @p record_count records to a D-node, expecting
     * @p match_count matching record pointers back (computation in
     * memory, Section 2.4). When @p dnode is kInvalidNode the home of
     * @p chunk_addr is used.
     */
    void sendCim(NodeId dnode, Addr chunk_addr,
                 std::uint64_t record_count, std::uint64_t match_count,
                 std::function<void(Tick)> cb);

    ReadLatencyStats &readStats() { return readStats_; }
    const ReadLatencyStats &readStats() const { return readStats_; }

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }

    std::uint64_t outstanding() const { return mshrs_.size(); }

    /** Watchdog diagnostic: append one entry per stuck MSHR /
     *  writeback, in line-address order. */
    void collectStuck(std::vector<StuckTxn> &out) const;

    /**
     * Fail-stop: salvage every owned line (the OS can still read the
     * dead chip's DRAM over the mesh), wipe all local state including
     * in-flight MSHRs and writebacks, and go inert — subsequent
     * accesses and messages are swallowed. Returns the salvaged lines
     * for the caller to functionally write back to their homes.
     */
    std::vector<std::tuple<Addr, CohState, Version>> wipeForDeath();

    /** True after wipeForDeath. */
    bool isDead() const { return dead_; }

    /** Debug: L1 subset-of-L2 and L2 subset-of-node-storage checks. */
    void checkInclusion() const;

    /**
     * Reconfiguration support: collect every node-level line and wipe
     * all local state (the machine must be quiesced). The caller
     * functionally writes the owned lines back to their homes.
     */
    std::vector<std::tuple<Addr, CohState, Version>> drainForReconfig();

    /** Every valid node-level copy (coherence scans; see check/). */
    virtual void forEachValidLine(
        FunctionRef<void(Addr, CohState, Version)> fn) const = 0;

    /** Coherence state held for @p line (coherence scans, and the
     *  co-located COMA home checking whether its own attraction memory
     *  can serve). */
    CohState peekState(Addr line) const { return nodeState(line); }

    /** No transaction, writeback, or blocked access in flight. */
    bool
    quiescent() const
    {
        return mshrs_.empty() && wbPending_.empty() &&
               blocked_.empty() && wbBlocked_.empty();
    }

    /**
     * Force-retry every outstanding transaction and writeback now,
     * ignoring timeouts (the model-check explorer calls this at its
     * drain horizon instead of simulating timeout waits). With
     * @p force_acks, missing invalidation acks are forgiven exactly as
     * in the sweep's graceful-degradation path.
     * @return number of retransmissions issued.
     */
    int retryStalledTransactions(bool force_acks);

  protected:
    struct PendingAccess
    {
        Addr addr = kInvalidAddr;
        bool isWrite = false;
        CompletionFn cb;
    };

    struct Waiter
    {
        Addr addr = kInvalidAddr;
        CompletionFn cb;
    };

    /**
     * One outstanding miss. Fields are ordered widest first; the work
     * parked on a miss besides its first access (coalesced accesses,
     * re-issued accesses, early forwards) lives in the file's side
     * lists, because most misses have none, so a slot is 120 B.
     */
    struct Mshr
    {
        Addr line = kInvalidAddr;
        Tick issueTick = 0;
        /** Transaction sequence number; retries reuse it so a late
         *  original reply still satisfies the retried transaction. */
        std::uint64_t seq = 0;
        /** Last send / last protocol progress (reply, ack). */
        Tick lastProgress = 0;
        /** Current timeout (grows by backoffFactor per retry). */
        Tick curTimeout = 0;
        /** Bitmask of nodes whose InvalAck was counted (dedup). */
        std::uint64_t ackFrom = 0;
        /** The access that opened the MSHR (virtual address +
         *  callback); later ones wait in MshrFile's side list. */
        Waiter first;
        Version version = 0;
        /**
         * Highest version of an exclusive forward this node served
         * while the transaction was in flight. Serving that forward
         * yielded the line to a later writer, so any grant at or
         * below this version is dead: installing it would resurrect
         * an invalidated copy next to the new owner's. Retries carry
         * it (Message::version) so the home re-serves instead of
         * replaying the dead cached grant.
         */
        Version supersededVer = 0;
        int acksExpected = -1;    ///< unknown until the reply arrives
        int acksReceived = 0;
        int retries = 0;
        int legs = 0;
        /** Request type sent (resent verbatim on timeout). */
        MsgType reqType = MsgType::ReadReq;
        bool isWrite = false;
        bool upgrade = false;     ///< sent UpgradeReq (had Shared copy)
        bool replyArrived = false;
        bool replyHasData = false;
        bool grantsMaster = false;
        bool needsTxnDone = false;
        /** Retry budget exhausted; left for the watchdog to report. */
        bool failed = false;
    };
    static_assert(sizeof(Mshr) == 120,
                  "Mshr is not 120 B; reorder or shrink its fields");

    /** A displaced owned line awaiting WriteBackAck (retried on
     *  timeout when faults are enabled). */
    struct WbPending
    {
        Tick lastSend = 0;
        Tick curTimeout = 0;
        /**
         * Per-eviction sequence number (drawn from the same counter as
         * request txnSeqs) stamped on the WriteBack and its resends so
         * the home can discard duplicates that straggle until after
         * this node re-acquired the line at the same version.
         */
        std::uint64_t seq = 0;
        Version version = 0;
        Narrow<std::uint16_t, int> retries;
        bool masterClean = false;
        bool failed = false;
    };
    static_assert(sizeof(WbPending) == 32,
                  "WbPending is not 32 B; reorder or shrink its fields");

    /**
     * The MSHR file: one slot per load the processor may have
     * outstanding (Table 1: 16), like the hardware's fixed register
     * file. A line is found by a linear scan of the slot lines (16 x
     * 8 B), a new transaction takes the lowest free slot, and a slot's
     * address is stable for the file's lifetime. Slot order is not
     * line order: walks go through forEachMshr.
     *
     * Work parked on an open miss besides its first access sits in
     * three side lists tagged with the miss's line, each in arrival
     * order: accesses coalesced on the miss, accesses to re-issue
     * after it (a write joining a read) and forwards that arrived
     * before its data. The lists keep their capacity, so parking
     * allocates only while they grow to their high-water mark.
     */
    class MshrFile
    {
      public:
        explicit MshrFile(int slots)
            : slots_(slots > 0 ? static_cast<std::size_t>(slots) : 0),
              lines_(slots_.size(), kInvalidAddr)
        {
        }

        Mshr *
        find(Addr line)
        {
            for (std::size_t i = 0; i < lines_.size(); ++i)
                if (lines_[i] == line)
                    return &slots_[i];
            return nullptr;
        }

        const Mshr *
        find(Addr line) const
        {
            return const_cast<MshrFile *>(this)->find(line);
        }

        /** Open a transaction on @p line in the lowest free slot (the
         *  file must not be full and @p line must not be open). */
        Mshr &open(Addr line);

        /** Free @p m's slot (its parked work is taken separately). */
        void close(Mshr &m);

        /** Free every slot and drop all parked work. */
        void clear();

        std::size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        bool full() const { return size_ == slots_.size(); }

        /** Lines of the open transactions, ascending. */
        std::vector<Addr> sortedLines() const;

        /** Park an access coalesced on @p line's miss. */
        void
        addWaiter(Addr line, const Waiter &w)
        {
            waiters_.emplace_back(line, w);
        }

        /** Park an access to re-issue once @p line's miss completes. */
        void
        deferAccess(Addr line, const PendingAccess &acc)
        {
            deferred_.emplace_back(line, acc);
        }

        /** Park a forward to replay once its line installs. */
        void
        deferFwd(const Message &msg)
        {
            fwds_.emplace_back(msg.lineAddr, msg);
        }

        /** Remove @p line's coalesced accesses, calling @p fn on each
         *  in arrival order (@p fn must not park anything). */
        template <typename F>
        void
        takeWaiters(Addr line, F &&fn)
        {
            take(waiters_, line, fn);
        }

        /** Remove @p line's re-issued accesses, as takeWaiters. */
        template <typename F>
        void
        takeDeferred(Addr line, F &&fn)
        {
            take(deferred_, line, fn);
        }

        /** Remove and return @p line's early forwards, oldest first
         *  (replaying them may park new ones). */
        std::vector<Message> takeFwds(Addr line);

      private:
        template <typename T, typename F>
        static void
        take(std::vector<std::pair<Addr, T>> &list, Addr line, F &fn)
        {
            auto keep = list.begin();
            for (auto it = list.begin(); it != list.end(); ++it) {
                if (it->first == line)
                    fn(it->second);
                else
                    *keep++ = *it;
            }
            list.erase(keep, list.end());
        }

        std::vector<Mshr> slots_;
        /** Slot i's line; kInvalidAddr marks a free slot. */
        std::vector<Addr> lines_;
        std::size_t size_ = 0;
        std::vector<std::pair<Addr, Waiter>> waiters_;
        std::vector<std::pair<Addr, PendingAccess>> deferred_;
        std::vector<std::pair<Addr, Message>> fwds_;
    };

    /**
     * Visit every open MSHR / pending writeback in ascending line
     * order, so fault recovery and diagnostics never depend on slot
     * or hash layout. The lines are snapshotted first and each is
     * looked up again before its visit: the visitor may complete,
     * open or resend transactions, and an entry closed by an earlier
     * visit is skipped.
     */
    void forEachMshr(FunctionRef<void(Mshr &)> fn);
    void forEachMshr(FunctionRef<void(const Mshr &)> fn) const;
    void forEachWbPending(FunctionRef<void(Addr, WbPending &)> fn);
    void forEachWbPending(
        FunctionRef<void(Addr, const WbPending &)> fn) const;

    // ------------------------------------------------------------------
    // Node-level storage hooks.
    // ------------------------------------------------------------------

    /** Coherence state this node holds for @p line. */
    virtual CohState nodeState(Addr line) const = 0;

    /** Version of the node's copy (panics if absent). */
    virtual Version nodeVersion(Addr line) const = 0;

    /**
     * L2 missed but the node has rights: fetch from node storage.
     * Returns the completion tick. Never called for NUMA (rights==L2).
     */
    virtual Tick localDataAccess(Addr line, Tick issue) = 0;

    /**
     * Install a line granted by the protocol (may displace a victim,
     * emitting WriteBack messages).
     */
    virtual void installLine(Addr line, CohState st, Version v) = 0;

    /** Upgrade an existing Shared/SharedMaster copy to @p st. */
    virtual void setNodeState(Addr line, CohState st, Version v) = 0;

    /** Drop the line from node storage + caches; returns prior state. */
    virtual CohState invalidateLocal(Addr line) = 0;

    /** Send OwnerToHome sharing writebacks on Fwd-Read (COMA: no). */
    virtual bool sendsSharingWriteback() const { return true; }

    /** Downgrade target on Fwd-Read (NUMA: Shared; AGG/COMA: master). */
    virtual CohState downgradeState() const
    {
        return CohState::SharedMaster;
    }

    /** Victim displaced from the L2 (dirty data must be preserved). */
    virtual void onL2Evict(Addr line, bool dirty, CohState st,
                           Version v) = 0;

    /** Latency to read the line out of node storage for a forward. */
    virtual Tick fwdDataLatency() const = 0;

    /** COMA injection arriving at this node; others panic. */
    virtual void handleInject(const Message &msg);

    /** COMA mastership transfer; others panic. */
    virtual void handleMasterGrant(const Message &msg);

    /** Iterate owned lines (death salvage, reconfiguration drain). */
    virtual void forEachOwnedLine(
        FunctionRef<void(Addr, CohState, Version)> fn) = 0;

    /** Clear all node storage (after the owned lines are taken). */
    virtual void invalidateAllLocal() = 0;

    // ------------------------------------------------------------------
    // Shared machinery.
    // ------------------------------------------------------------------

    Addr memLine(Addr addr) const;
    const MachineConfig &cfg() const { return ctx_.config(); }

    /** Emit @p msg from this node at absolute tick @p when. */
    void sendAt(Tick when, Message msg);

    /** Try to start @p acc; queues it if resources are busy. */
    void startAccess(const PendingAccess &acc);

    /** A miss: create/join an MSHR and send the request. */
    void startMiss(const PendingAccess &acc, Addr line, CohState st);

    /** The request of @p m's transaction (sent first and on retries). */
    Message requestFor(const Mshr &m) const;

    /** Fill the L2 and dispose of its victim. */
    void fillL2(Addr line, CohState st, Version v, bool dirty);

    void handleReply(const Message &msg);
    /** A stale/orphan reply that carries needsTxnDone still owes the
     *  home its unblock (the transaction is dead on this side but the
     *  home may be serving its re-served retry). */
    void ackStaleBlockingReply(const Message &msg);
    /** Send @p line's home the TxnDone of transaction @p seq. */
    void sendTxnDone(Tick when, Addr line, std::uint64_t seq);
    void handleInvalAck(const Message &msg);
    void handleInval(const Message &msg);
    void handleFwd(const Message &msg);
    void handleWriteBackAck(const Message &msg);
    void handleCimReply(const Message &msg);

    void tryComplete(Addr line);
    void finishAccess(Mshr &m);

    /** Emit a WriteBack for an owned displaced line. */
    void emitWriteBack(Addr line, CohState st, Version v);

    /** Send the WriteBack of @p wb (first send and retries). */
    void sendWriteBack(Addr line, const WbPending &wb);

    /** Retry accesses blocked on a full MSHR file or pending WB. */
    void drainBlocked();

    /** Schedule @p cb at @p when with service class @p svc. */
    void complete(Tick when, ReadService svc, CompletionFn cb);

    // ------------------------------------------------------------------
    // Fault tolerance (inert unless cfg().faults.enabled()).
    // ------------------------------------------------------------------

    /** Arm the periodic timeout sweep if not already scheduled. */
    void scheduleFaultSweep();

    /** Scan MSHRs + pending writebacks for expired transactions. */
    void faultSweep();

    /** Resend the original request of a timed-out MSHR. */
    void resendRequest(Mshr &m);

    /** Resend a timed-out WriteBack. */
    void resendWriteBack(Addr line, WbPending &wb);

    // ------------------------------------------------------------------
    // Coherence-oracle hooks (no-ops unless check.enabled).
    // ------------------------------------------------------------------

    /**
     * Report this node's (post-mutation) state of @p line to the
     * oracle. Reads the state back out of node storage so the shadow
     * model agrees with the real arrays by construction.
     */
    void noteState(Addr line, const char *why);

    /** Report that all local state was wiped (death / reconfig). */
    void noteWipe(const char *why);

    ProtoContext &ctx_;
    NodeId self_;
    spec::Role role_;
    const spec::DispatchTable<ComputeBase> *dispatch_;
    Cache l1_;
    Cache l2_;

    MshrFile mshrs_;
    std::deque<PendingAccess> blocked_;
    /** Displaced owned lines awaiting WriteBackAck. */
    FlatMap<Addr, WbPending> wbPending_;
    /** Accesses waiting for a WriteBackAck on their line. */
    FlatMap<Addr, std::vector<PendingAccess>> wbBlocked_;

    /** Fixed cost of detecting a node-level miss (tag check). */
    Tick missDetectLatency_ = 10;
    /** Cost of the hardware message engine handling one message. */
    Tick msgEngineLatency_ = 10;

    ReadLatencyStats readStats_;

    /** Outstanding CIM request callback (one at a time per node). */
    std::deque<std::function<void(Tick)>> cimCallbacks_;

    /** Cached cfg().faults.enabled() (config is fixed per machine). */
    bool faultsOn_ = false;
    bool sweepScheduled_ = false;
    /** Fail-stopped (wipeForDeath): every entry point goes inert. */
    bool dead_ = false;
    /** Per-node transaction sequence counter (0 is "unset"). */
    std::uint64_t nextTxnSeq_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_COMPUTE_BASE_HH
