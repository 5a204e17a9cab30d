/**
 * @file
 * AGG D-node: an off-the-shelf PIM chip running the coherence protocol
 * in software (Section 2.2.2).
 *
 * The D-node's memory is managed fully associatively through three
 * software structures:
 *  - the Directory array (modeled by DirectoryTable + localPtr),
 *  - the Data array (line storage slots),
 *  - the Pointer array (DirPtr/Prev/Next), whose entries are linked
 *    into FreeList (empty slots) or SharedList (slots whose line's
 *    mastership is out at a P-node, hence reclaimable).
 *
 * Space policy per the paper: dirty lines keep no home placeholder;
 * mastership is handed to the first reader so the home copy can be
 * reclaimed from SharedList (FIFO) under pressure; when the
 * reclaimable pool runs low, the OS pages lines out to disk instead of
 * injecting them into other nodes.
 */

#ifndef PIMDSM_PROTO_AGG_DNODE_HH
#define PIMDSM_PROTO_AGG_DNODE_HH

#include <cstdint>
#include <vector>

#include "proto/home_base.hh"
#include "sim/function_ref.hh"
#include "sim/stamp_clock.hh"

namespace pimdsm
{

/**
 * The Data + Pointer arrays: fixed slots, an intrusive FreeList and
 * SharedList (both FIFO), exactly as in Figure 3 of the paper.
 */
class DNodeStore
{
  public:
    explicit DNodeStore(std::uint64_t data_entries);

    std::uint64_t dataEntries() const { return entries_.size(); }
    std::uint64_t freeLen() const { return freeLen_; }
    std::uint64_t sharedLen() const { return sharedLen_; }
    std::uint64_t usedSlots() const
    {
        return dataEntries() - freeLen_;
    }

    /**
     * Allocate a slot for @p line: FreeList head first; if exhausted,
     * reuse the SharedList head, reporting the line whose home copy is
     * dropped through @p dropped.
     * @return slot index, or kNilPtr if nothing is reclaimable.
     */
    std::uint32_t allocate(Addr line, bool &reused_shared, Addr &dropped);

    /** Return @p slot to the FreeList tail. */
    void free(std::uint32_t slot);

    /** Link @p slot at the SharedList tail (mastership handed out). */
    void linkShared(std::uint32_t slot);

    /** Unlink @p slot from the SharedList (mastership returned). */
    void unlinkShared(std::uint32_t slot);

    bool inShared(std::uint32_t slot) const;
    bool inFree(std::uint32_t slot) const;

    /** Line stored in @p slot (kInvalidAddr when free). */
    Addr slotLine(std::uint32_t slot) const;

    /** Mark @p slot recently used (page-out victims are LRU). */
    void touch(std::uint32_t slot);

    /** LRU stamp of @p slot: higher is more recent. */
    std::uint32_t lastTouch(std::uint32_t slot) const;

    /** Move the touch clock forward (tests: force a stamp wrap soon). */
    void
    advanceTouchClockForTest(std::uint32_t to)
    {
        touchClock_.advanceForTest(to);
    }

    /**
     * Visit occupied slots that are on neither list: home-master lines
     * ("D-Node Only"), the page-out candidates.
     */
    void forEachHomeMaster(
        FunctionRef<void(std::uint32_t, Addr)> fn) const;

    /** Structural invariants (list integrity); panics on violation. */
    void checkIntegrity() const;

  private:
    enum class Link : std::uint8_t { Free, Shared, None };

    /** 24 B: the line, both list links, a 32-bit LRU stamp. */
    struct Entry
    {
        Addr line = kInvalidAddr;
        std::uint32_t prev = kNilPtr;
        std::uint32_t next = kNilPtr;
        std::uint32_t lastTouch = 0;
        Link link = Link::Free;
    };
    static_assert(sizeof(Entry) == 24,
                  "DNodeStore::Entry is not 24 B; reorder its fields");

    /** Next touch stamp; renumbers every slot's stamp at the limit. */
    std::uint32_t nextStamp();

    StampClock touchClock_;

    void pushTail(std::uint32_t &head, std::uint32_t &tail,
                  std::uint32_t slot);
    void unlink(std::uint32_t &head, std::uint32_t &tail,
                std::uint32_t slot);

    std::vector<Entry> entries_;
    std::uint32_t freeHead_ = kNilPtr;
    std::uint32_t freeTail_ = kNilPtr;
    std::uint32_t sharedHead_ = kNilPtr;
    std::uint32_t sharedTail_ = kNilPtr;
    std::uint64_t freeLen_ = 0;
    std::uint64_t sharedLen_ = 0;
};

class AggDNodeHome : public HomeBase
{
  public:
    /** @param mem_bytes DRAM available to this D-node. */
    AggDNodeHome(ProtoContext &ctx, NodeId self, std::uint64_t mem_bytes);

    DNodeStore &store() { return store_; }
    const DNodeStore &store() const { return store_; }

    /**
     * Bytes of DRAM consumed by Directory + Pointer array entries per
     * Data entry (paper Section 2.2.2: 8 B directory entries, 1.5x as
     * many as Data entries, plus 12 B of pointers).
     */
    static std::uint64_t metadataBytesPerLine(double directory_factor);

    std::uint64_t storageCapacityLines() const override
    {
        return store_.dataEntries();
    }

    void
    resetForReconfig() override
    {
        HomeBase::resetForReconfig();
        store_ = DNodeStore(store_.dataEntries());
    }

  protected:
    bool
    grantsMasterOnRead() const override
    {
        return ctx_.config().aggGrantsMastership;
    }

    double
    costFactor() const override
    {
        return ctx_.config().handlers.softwareFactor;
    }

    void initEntry(Addr line, DirEntry &e) override;
    Tick dataAccessLatency(DirEntry &e) override;
    Tick absorbData(Addr line, DirEntry &e, Version v) override;
    void releaseData(Addr line, DirEntry &e) override;
    void updateLinkage(Addr line, DirEntry &e) override;
    bool canAbsorbCheaply() const override;
    Tick pageIn(Addr line, DirEntry &e) override;
    Tick detectDelay() const override;
    void handleCimReq(const Message &msg) override;

  private:
    /** Page lines out when the reclaimable pool falls too low. */
    Tick maybePageOut();
    Tick pageOutEpisode();

    DNodeStore store_;
    std::uint64_t onChipLines_;
    /** LeakSlot mutation fires at most once: a single leaked slot is
     *  enough for the conservation scan and keeps the run bounded. */
    bool leakedOnce_ = false;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_AGG_DNODE_HH
