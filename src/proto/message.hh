/**
 * @file
 * Coherence protocol messages exchanged between compute-side and
 * home-side controllers over the mesh.
 */

#ifndef PIMDSM_PROTO_MESSAGE_HH
#define PIMDSM_PROTO_MESSAGE_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace pimdsm
{

enum class MsgType : std::uint8_t
{
    // Compute node -> home.
    ReadReq,      ///< read miss
    ReadExReq,    ///< write miss (needs data + exclusivity)
    UpgradeReq,   ///< write hit on Shared copy (needs exclusivity only)
    WriteBack,    ///< displaced Dirty/SharedMaster line (carries data)
    TxnDone,      ///< requester's completion ack; unblocks the home line

    // Home -> compute node.
    ReadReply,    ///< data, shared (grantsMaster set for first reader)
    ReadExReply,  ///< data + exclusivity; ackCount invalidations pending
    UpgradeReply, ///< exclusivity granted without data; ackCount pending
    Fwd,          ///< forward a Read/ReadEx to the current owner/master
    Inval,        ///< invalidate; ack to msg.requester
    WriteBackAck, ///< home absorbed a displaced line
    Inject,       ///< COMA: take this displaced master line (carries data)
    MasterGrant,  ///< COMA: you are now the master of your Shared copy

    // Peer-to-peer.
    FwdReply,     ///< owner's data to the original requester
    OwnerToHome,  ///< owner's sharing-writeback / downgrade notice to home
    InvalAck,     ///< sharer -> requester
    InjectAck,    ///< provider accepted an injected line (to home)
    InjectNack,   ///< provider refused (its set is full of owned lines)

    // Computation-in-memory (Section 2.4 / Figure 10-b).
    CimReq,       ///< P-node asks a D-node to scan records
    CimReply,     ///< D-node returns matching record pointers
};

/** Number of distinct MsgType values (for exhaustiveness checks). */
constexpr int kNumMsgTypes = static_cast<int>(MsgType::CimReply) + 1;

const char *msgTypeName(MsgType t);

/** True if @p t is processed by the destination's home-side controller. */
bool msgBoundForHome(MsgType t);

/** Fault-injection class of @p t (see sim/fault.hh). */
MsgClass msgClassOf(MsgType t);

/** What a Fwd asks the owner to do. */
enum class FwdKind : std::uint8_t
{
    Read,   ///< downgrade to SharedMaster, send data to requester + home
    ReadEx, ///< invalidate, send data to requester
};

/**
 * One protocol message. Every delivery and every handler event copies
 * it, so it is packed to 40 B, widest fields first: node ids take 16
 * bits and the counts their narrowest sufficient width, each a Narrow
 * field whose assignment panics on a value that does not fit.
 */
struct Message
{
    Addr lineAddr = kInvalidAddr;
    /**
     * Requester-local sequence number of the transaction (or
     * writeback) this message belongs to; requests, their home replies
     * and forwards, FwdReplies and TxnDones carry it. Under faults it
     * dedups retried requests at the home and stale/duplicate replies
     * at the MSHR. Zero on messages outside a transaction.
     */
    std::uint64_t txnSeq = 0;
    /** Functional data version carried by data-bearing messages. */
    Version version = 0;
    /** CIM: records to scan / matches returned. */
    Narrow<std::uint32_t, std::uint64_t> cimCount;
    NodeId16 src;
    NodeId16 dst;
    /** Original requester for forwarded flows and inval acks. */
    NodeId16 requester;
    /** Invalidation acks the requester must collect (replies); on a
     *  CimReq, the matches the D-node returns. */
    Narrow<std::uint16_t, int> ackCount;
    /**
     * Which timeout-driven resend of a request still stalled at the
     * requester this is (1 for the first retry; 0 for the original
     * request). Only a retry newer than every copy of the request the
     * home has seen may be re-served when its dedup record was
     * scrubbed: a mesh *duplicate* — of the original or of a seen
     * retry — must be ignored instead, or the home would serialize a
     * phantom grant nobody is waiting for.
     */
    Narrow<std::uint16_t, int> retryAttempt;
    MsgType type = MsgType::ReadReq;
    /** Fwd subtype. */
    FwdKind fwdKind = FwdKind::Read;
    /** Network hops this transaction has made so far (for Fig 7). */
    Narrow<std::uint8_t, int> legs;
    /** ReadReply: the home handed mastership to the requester. */
    bool grantsMaster = false;
    /**
     * The home stays blocked until the requester's TxnDone. Set only
     * for transactions that involve third parties (forwards or
     * invalidations); simple home-served transactions unblock
     * immediately, relying on the mesh's per-source-destination
     * ordering (XY routing + FIFO links).
     */
    bool needsTxnDone = false;
    /** WriteBack: line was SharedMaster (clean) rather than Dirty. */
    bool masterClean = false;

    /** Payload bytes (data-bearing messages carry one memory line). */
    int payloadBytes(int mem_line_bytes) const;

    std::string toString() const;
};

static_assert(sizeof(Message) == 40,
              "Message is not 40 B; reorder or shrink its fields");
static_assert(std::is_trivially_copyable_v<Message>,
              "Message is copied as plain bytes into event closures");

} // namespace pimdsm

#endif // PIMDSM_PROTO_MESSAGE_HH
