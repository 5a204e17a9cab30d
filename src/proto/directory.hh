/**
 * @file
 * Home directory state: one entry per memory line whose home is this
 * node, plus the blocked-home transaction queue.
 */

#ifndef PIMDSM_PROTO_DIRECTORY_HH
#define PIMDSM_PROTO_DIRECTORY_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "proto/message.hh"
#include "sim/flat_map.hh"
#include "sim/function_ref.hh"
#include "sim/page_blocks.hh"
#include "sim/types.hh"

namespace pimdsm
{

/** Nil value for a D-node Directory entry's Local Pointer. */
constexpr std::uint32_t kNilPtr = 0xffffffffu;

struct DirEntry
{
    /** Stable directory states. */
    enum class State : std::uint8_t
    {
        Uncached, ///< no P-node copy (home may or may not hold data)
        Shared,   ///< >=1 read-only copies in compute nodes
        Dirty,    ///< exactly one modified copy, at owner
    };

    // Fields are ordered widest first and the state and flags share
    // one byte, so the entry is 24 B: eight entries fill three 64 B
    // host cache lines.

    /** Bit per node holding (possibly stale) a shared copy. */
    std::uint64_t sharers = 0;
    /** AGG: index into the D-node Data array (kNilPtr if none). */
    std::uint32_t localPtr = kNilPtr;
    /** Version of the home copy (when homeHasData/pagedOut). */
    Version version = 0;
    /** Dirty owner, or the shared-master holder when masterOut. */
    NodeId16 owner;
    /** Requester of the in-flight transaction (meaningful only while
     *  busy): its TxnDone unblocks the line, so if it fail-stops the
     *  home must administratively finish the transaction. */
    NodeId16 busyFor;
    /** Node a Fwd of the in-flight transaction targets (meaningful
     *  only while busy). The serve may have already rewritten owner
     *  to the new requester, so this is the only record that the
     *  transaction's progress depends on the old owner — if it
     *  fail-stops, the forward is lost and the home must abort. */
    NodeId16 fwdTo;
    State state : 2 = State::Uncached;
    /** A compute node holds mastership of this Shared line. */
    bool masterOut : 1 = false;
    /** Home storage holds an up-to-date copy. */
    bool homeHasData : 1 = false;
    /** AGG: the home copy was paged out to disk. */
    bool pagedOut : 1 = false;
    /** Limited-pointer overflow: sharer set is imprecise and writes
     *  must broadcast invalidations (Section 2.2.2's 3-pointer
     *  limited-vector scheme). */
    bool ptrOverflow : 1 = false;
    /** A transaction is in flight; new requests queue. */
    bool busy : 1 = false;

    bool
    isSharer(NodeId n) const
    {
        return (sharers >> n) & 1;
    }

    void addSharer(NodeId n) { sharers |= 1ull << n; }

    /**
     * Add a sharer under a limited-pointer budget: once more than
     * @p max_ptrs distinct sharers exist, the entry overflows and
     * stops tracking precisely. @p max_ptrs <= 0 means full map.
     */
    void
    addSharerLimited(NodeId n, int max_ptrs)
    {
        if (max_ptrs > 0 && !isSharer(n) &&
            sharerCount() >= max_ptrs) {
            ptrOverflow = true;
            return;
        }
        addSharer(n);
    }
    void dropSharer(NodeId n) { sharers &= ~(1ull << n); }

    int sharerCount() const { return __builtin_popcountll(sharers); }
};

static_assert(sizeof(DirEntry) == 24,
              "DirEntry is not 24 B; reorder or shrink its fields");
static_assert(std::is_trivially_copyable_v<DirEntry>,
              "DirEntry must stay plain data (queues live in the table)");

/**
 * All directory entries homed at one node, stored like the paper's
 * Directory array: one dense block of entries per touched page (see
 * sim/page_blocks.hh). A line's entry is created lazily when the first
 * request for it arrives (the OS maps the page and reserves Directory
 * array entries at that point); a per-slot presence bit tells created
 * entries from the rest of the page's block. Entry addresses stay
 * valid until clear().
 *
 * Requests that arrive while a line is busy wait in a per-line FIFO
 * held here, not in the entry, so entries stay plain 24 B records.
 */
class DirectoryTable
{
  public:
    /** Geometry: memory line and page bytes (powers of two). */
    DirectoryTable(std::uint64_t line_bytes, std::uint64_t page_bytes)
        : entries_(line_bytes, page_bytes)
    {
    }

    /** Entry for @p line, created Uncached on first use. */
    DirEntry &entry(Addr line);

    /** Entry if it exists, else nullptr. */
    const DirEntry *find(Addr line) const;
    DirEntry *find(Addr line);

    /** Entries created (present lines). */
    std::size_t size() const { return size_; }

    /** Requests blocked on busy @p line, oldest first (drained from
     *  the front; blocked queues are short). */
    std::vector<Message> &queue(Addr line) { return queues_[line]; }

    /** Number of requests queued on @p line. */
    std::size_t queued(Addr line) const;

    /**
     * Visit every entry in ascending line-address order. The canonical
     * order makes every walk that derives machine state from the
     * directory (census, reconfiguration adoption, invariant scans)
     * independent of hash-table layout history.
     */
    void forEach(FunctionRef<void(Addr, const DirEntry &)> fn) const;
    void forEach(FunctionRef<void(Addr, DirEntry &)> fn);

    /** Drop every entry and queue (reconfiguration: pages unmapped). */
    void clear();

  private:
    bool
    present(std::uint32_t slot) const
    {
        return slot != PageBlocks<DirEntry>::kNoSlot &&
               ((present_[slot >> 6] >> (slot & 63)) & 1);
    }

    std::vector<Addr> sortedLines() const;

    PageBlocks<DirEntry> entries_;
    /** Bit per slot of entries_: the line's entry was created. */
    std::vector<std::uint64_t> present_;
    std::size_t size_ = 0;
    FlatMap<Addr, std::vector<Message>> queues_;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_DIRECTORY_HH
