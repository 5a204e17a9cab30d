/**
 * @file
 * Dense per-page slot arrays for per-line simulator state.
 *
 * The paper's D-node keeps its Directory as a direct-mapped array with
 * one entry per home line, reserved when the OS maps the page.
 * PageBlocks<T> stores per-line state the same way: a small page-keyed
 * FlatMap finds a page's block, and the block holds one
 * default-constructed T per line of the page. Each slot also has a
 * dense number (block * linesPerPage + line index within the page), so
 * a caller can keep per-slot side bits in a flat bitset.
 *
 * Blocks are carved from chunks that double in pages (1, 2, 4, ... up
 * to kMaxChunkPages): a table of n pages makes O(log n) allocations
 * and leaves at most one partly used chunk. A slot's address never
 * changes until clear(), unlike a FlatMap keyed by line, whose inserts
 * may rehash and move every entry.
 */

#ifndef PIMDSM_SIM_PAGE_BLOCKS_HH
#define PIMDSM_SIM_PAGE_BLOCKS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace pimdsm
{

template <typename T>
class PageBlocks
{
  public:
    /** Slot number of a line whose page has no block. */
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    /** Largest chunk, in pages. */
    static constexpr std::uint32_t kMaxChunkPages = 8;

    /** @p line_bytes and @p page_bytes are powers of two with
     *  line_bytes <= page_bytes (MachineConfig::validate checks). */
    PageBlocks(std::uint64_t line_bytes, std::uint64_t page_bytes)
        : lineShift_(std::countr_zero(line_bytes)),
          pageShift_(std::countr_zero(page_bytes)),
          perPageShift_(pageShift_ - lineShift_)
    {
    }

    std::uint64_t lineBytes() const { return 1ull << lineShift_; }
    std::uint32_t linesPerPage() const { return 1u << perPageShift_; }

    /** Slots carved so far (pages with a block * linesPerPage). */
    std::uint32_t
    slotCount() const
    {
        return static_cast<std::uint32_t>(blocks_.size())
               << perPageShift_;
    }

    /** Slot number of @p line, or kNoSlot if its page has no block. */
    std::uint32_t
    slotOf(Addr line) const
    {
        auto it = pages_.find(line >> pageShift_);
        return it == pages_.end() ? kNoSlot : it->second | lineIndex(line);
    }

    /** Slot number of @p line, creating its page's block. */
    std::uint32_t
    insert(Addr line)
    {
        auto [it, fresh] = pages_.emplace(line >> pageShift_, slotCount());
        if (fresh)
            blocks_.push_back(carve());
        return it->second | lineIndex(line);
    }

    T &
    operator[](std::uint32_t slot)
    {
        return blocks_[slot >> perPageShift_]
                      [slot & (linesPerPage() - 1)];
    }

    const T &
    operator[](std::uint32_t slot) const
    {
        return blocks_[slot >> perPageShift_]
                      [slot & (linesPerPage() - 1)];
    }

    /** Slot of @p line if its page has a block, else nullptr. */
    const T *
    find(Addr line) const
    {
        const std::uint32_t s = slotOf(line);
        return s == kNoSlot ? nullptr : &(*this)[s];
    }

    /** Slot of @p line, creating its page's block. */
    T &slot(Addr line) { return (*this)[insert(line)]; }

    /** Visit every page with a block as fn(page address, first slot
     *  number), in page-index order (not sorted). */
    template <typename Fn>
    void
    forEachPage(Fn fn) const
    {
        for (const auto &[page, first] : pages_)
            fn(page << pageShift_, first);
    }

    /** Drop every block and free the chunks. */
    void
    clear()
    {
        pages_.clear();
        blocks_.clear();
        chunks_.clear();
        chunkPages_ = 0;
        chunkFree_ = 0;
    }

  private:
    /** Index of @p line within its page. */
    std::uint32_t
    lineIndex(Addr line) const
    {
        return static_cast<std::uint32_t>(line >> lineShift_) &
               (linesPerPage() - 1);
    }

    /** Next free block, opening a chunk twice the last one's size
     *  (capped) when the last is full. */
    T *
    carve()
    {
        if (chunkFree_ == 0) {
            chunkPages_ = chunkPages_ == 0
                              ? 1
                              : std::min(2 * chunkPages_, kMaxChunkPages);
            chunks_.push_back(std::make_unique<T[]>(
                static_cast<std::size_t>(chunkPages_) << perPageShift_));
            chunkFree_ = chunkPages_;
        }
        T *block = chunks_.back().get() +
                   (static_cast<std::size_t>(chunkPages_ - chunkFree_)
                    << perPageShift_);
        --chunkFree_;
        return block;
    }

    int lineShift_;
    int pageShift_;
    int perPageShift_; ///< log2(linesPerPage())
    /** Page number (address >> pageShift_) -> its first slot number. */
    FlatMap<Addr, std::uint32_t> pages_;
    /** Block number -> its linesPerPage() slots. */
    std::vector<T *> blocks_;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::uint32_t chunkPages_ = 0; ///< pages in the last chunk
    std::uint32_t chunkFree_ = 0;  ///< of which not yet carved
};

} // namespace pimdsm

#endif // PIMDSM_SIM_PAGE_BLOCKS_HH
