/**
 * @file
 * Services the Machine provides to protocol controllers: event queue,
 * message transport, home lookup (first-touch page placement), write
 * serialization (version bumps), the coherence oracle's event sink, and
 * stats. Protocol code never reads a committed version: freshness is
 * the oracle's to check (check/oracle.hh).
 */

#ifndef PIMDSM_PROTO_CONTEXT_HH
#define PIMDSM_PROTO_CONTEXT_HH

#include "proto/message.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pimdsm
{

class CoherenceOracle;

class ProtoContext
{
  public:
    virtual ~ProtoContext() = default;

    virtual EventQueue &eq() = 0;
    virtual const MachineConfig &config() const = 0;

    /**
     * Home node of @p line_addr. On the first touch of the enclosing
     * page, the page is placed: at @p toucher for NUMA/COMA, at a
     * D-node for AGG (first-touch policy, Section 3).
     */
    virtual NodeId homeOf(Addr line_addr, NodeId toucher) = 0;

    /**
     * Deliver @p msg through the mesh (self-sends bypass the network
     * with unit latency). Routing to home/compute controllers is by
     * message type.
     */
    virtual void send(Message msg) = 0;

    /** Commit a new write generation for @p line; returns new version. */
    virtual Version bumpVersion(Addr line) = 0;

    /** Machine-wide named counters. */
    virtual StatSet &stats() = 0;

    /** Bit mask of nodes currently acting as compute nodes (for
     *  limited-pointer broadcast invalidation). */
    virtual std::uint64_t computeNodeMask() const = 0;

    /**
     * The coherence oracle's event sink, or nullptr when checking is
     * off (so hooks cost one branch). See check/oracle.hh.
     */
    virtual CoherenceOracle *checker() { return nullptr; }

    /** True iff node @p n has fail-stopped. Homes drop requests from
     *  dead requesters instead of blocking a line on a TxnDone that
     *  can never arrive. */
    virtual bool nodeDead(NodeId) const { return false; }
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_CONTEXT_HH
