/**
 * @file
 * Wormhole-routed 2D mesh interconnect (Section 3).
 *
 * Dimension-ordered (XY) routing. A message of B bytes serializes over
 * each directed link for ceil((header+B)/linkWidth) cycles; the head
 * flit pays router+wire latency per hop; network-interface inject/eject
 * latency is paid at both ends. Contention is modeled by treating every
 * directed link as a serially-occupied resource along the path, in path
 * order — the standard link-occupancy approximation of wormhole flow
 * control.
 */

#ifndef PIMDSM_NET_MESH_HH
#define PIMDSM_NET_MESH_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace pimdsm
{

class StatSet;

class Mesh
{
  public:
    /** A delivery held past its send: a message parked against a
     *  partition, or the extra copy of a duplicated one. */
    using DeliverFn = InlineCallback;

    Mesh(EventQueue &eq, const NetParams &params, int num_nodes);

    /** Manhattan hop count between two nodes. */
    int hops(NodeId src, NodeId dst) const;

    /**
     * Send @p payload_bytes from @p src to @p dst; @p deliver runs when
     * the tail arrives. Self-sends pay only the NI latencies.
     *
     * @p deliver is any trivially copyable callable that fits
     * InlineCallback's budget (others fail to compile). On the normal
     * path it is built directly in its event node; only the parked
     * and duplicate paths wrap it in a DeliverFn.
     *
     * When a fault plan is attached (setFaultPlan) and @p cls is not
     * Immune, the message may be dropped (deliver never runs; the drop
     * is charged to the last link on the path), extra-delayed, or
     * delivered twice. Dropped messages still occupy their path links:
     * the tail is lost in flight, not at injection.
     *
     * @return the scheduled arrival tick (of the original copy).
     */
    template <typename F>
        requires std::is_constructible_v<DeliverFn, F>
    Tick
    send(NodeId src, NodeId dst, int payload_bytes, F &&deliver,
         MsgClass cls = MsgClass::Immune)
    {
        if (src < 0 || src >= numNodes_ || dst < 0 || dst >= numNodes_)
            badEndpoints(src, dst, payload_bytes, cls);

        if (deadLinks_ > 0 && src != dst && !routable(src, dst)) {
            // True partition: park the message against the cut. It
            // drains (and only then pays latency and faults) when a
            // heal makes the destination reachable again.
            return park(BlockedMsg{src, dst, payload_bytes,
                                   DeliverFn(deliver), cls});
        }

        FaultDecision fd;
        if (faults_ && faults_->active() && cls != MsgClass::Immune &&
            src != dst)
            fd = faults_->decide(cls);

        if (fd.action == FaultAction::Duplicate) {
            // The extra copy traverses the mesh independently (paying
            // real contention) but is immune to further faults: one
            // fault per message.
            send(src, dst, payload_bytes, DeliverFn(deliver),
                 MsgClass::Immune);
        }

        const Tick arrival = transit(src, dst, payload_bytes, fd.extraDelay);
        if (fd.action != FaultAction::Drop)
            eq_.schedule(arrival, std::forward<F>(deliver));
        return arrival;
    }

    /** Attach the machine's fault plan (nullptr detaches). */
    void setFaultPlan(FaultPlan *plan) { faults_ = plan; }

    /** Mesh slot of node @p n (after placement permutation). */
    int nodeSlot(NodeId n) const { return slotOf(n); }

    /** Attach a StatSet for link/partition fault accounting. */
    void setStats(StatSet *stats) { stats_ = stats; }

    /**
     * Kill or revive the physical channel between router (x, y) and
     * its @p dir neighbor. Both directed links go down together (a
     * link fault severs the whole channel). Killing a link switches
     * routing to a detour table recomputed over the live links;
     * reviving one recomputes the table and drains any messages that
     * were queued against an unroutable partition (they re-enter the
     * network at the heal tick, in FIFO order). Messages already in
     * flight over the channel are unaffected: the wormhole already
     * charged its links and the scheduled delivery stands.
     */
    void setLinkAlive(int x, int y, int dir, bool alive);

    /** True iff the directed link leaving (x, y) toward @p dir is up. */
    bool linkAlive(int x, int y, int dir) const;

    /** Number of dead directed links. */
    int deadLinkCount() const { return deadLinks_; }

    /** True iff any link is dead (detour routing active). */
    bool degraded() const { return deadLinks_ > 0; }

    /** True iff a live route exists from @p src to @p dst. */
    bool routable(NodeId src, NodeId dst) const;

    /** Messages currently queued against an unroutable partition. */
    std::size_t partitionBlocked() const { return blocked_.size(); }

    /** Contention-free end-to-end latency (for calibration/tests). */
    Tick unloadedLatency(NodeId src, NodeId dst, int payload_bytes) const;

    /** Average unloaded latency over all distinct node pairs. */
    Tick averageUnloadedLatency(int payload_bytes) const;

    std::uint64_t messagesSent() const { return messagesSent_; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    Tick totalLatency() const { return totalLatency_; }

    /** Aggregate busy ticks over all links (network load metric). */
    Tick totalLinkBusy() const;

    /** Aggregate ticks messages waited for busy links (contention). */
    Tick totalLinkWait() const;

    const NetParams &params() const { return params_; }

    /**
     * Physical placement: @p slot_to_node[s] is the node id sitting at
     * mesh slot s (row-major). Default is the identity. The machine
     * uses this to interleave D-nodes among P-nodes.
     */
    void setPlacement(const std::vector<int> &slot_to_node);

  private:
    /** Directed link leaving router (x, y) toward @p dir (0=E,1=W,2=N,3=S). */
    Resource &link(int x, int y, int dir);

    /** Flat index of that link in links_ / linkAlive_. */
    std::size_t linkIndex(int x, int y, int dir) const
    {
        return (static_cast<std::size_t>(y) * params_.meshX + x) * 4 +
               dir;
    }

    /** Serialization ticks for a message of @p payload_bytes. */
    Tick serTicks(int payload_bytes) const;

    /** Mesh slot of node @p n (after placement permutation). */
    int
    slotOf(NodeId n) const
    {
        return nodeToSlot_.empty() ? static_cast<int>(n)
                                   : nodeToSlot_[n];
    }

    int nodeX(NodeId n) const { return slotOf(n) % params_.meshX; }
    int nodeY(NodeId n) const { return slotOf(n) / params_.meshX; }

    /**
     * Walk the path from src to dst, invoking @p per_hop for each
     * directed link as (x, y, dir) of the link's source router. With
     * every link alive this is the XY path; in degraded mode it
     * follows the detour table (caller must have checked routable()).
     */
    template <typename PerHop>
    void walkPath(NodeId src, NodeId dst, PerHop &&per_hop) const;

    /**
     * Move a message over its path: reserve each link and account the
     * send.
     * @return the tail's arrival tick, including @p extra_delay.
     */
    Tick transit(NodeId src, NodeId dst, int payload_bytes,
                 Tick extra_delay);

    [[noreturn]] void badEndpoints(NodeId src, NodeId dst,
                                   int payload_bytes, MsgClass cls) const;

    /** A message queued against an unroutable partition. */
    struct BlockedMsg
    {
        NodeId src;
        NodeId dst;
        int payloadBytes;
        DeliverFn deliver;
        MsgClass cls;
    };

    /** Queue @p b against the partition; returns the current tick. */
    Tick park(const BlockedMsg &b);

    /** Recompute the per-destination next-hop detour table (BFS over
     *  live links, deterministic E/W/N/S tie-break). */
    void recomputeRoutes();

    /** Re-send queued messages whose destination became routable. */
    void drainBlocked();

    EventQueue &eq_;
    NetParams params_;
    int numNodes_;
    std::vector<int> nodeToSlot_;
    std::vector<Resource> links_;
    /** Live link-health map (parallel to links_; 1 = up). */
    std::vector<char> linkAlive_;
    /** Next-hop detour table, routeDir_[cur_slot * R + dst_slot] =
     *  direction (or -1 unreachable). Valid only while degraded(). */
    std::vector<std::int8_t> routeDir_;
    std::vector<BlockedMsg> blocked_;
    int deadLinks_ = 0;
    FaultPlan *faults_ = nullptr;
    StatSet *stats_ = nullptr;
    std::uint64_t messagesSent_ = 0;
    std::uint64_t bytesSent_ = 0;
    Tick totalLatency_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_NET_MESH_HH
