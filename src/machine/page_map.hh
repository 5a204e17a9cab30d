/**
 * @file
 * Page-to-home mapping with first-touch placement (Section 3).
 */

#ifndef PIMDSM_MACHINE_PAGE_MAP_HH
#define PIMDSM_MACHINE_PAGE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace pimdsm
{

class PageMap
{
  public:
    explicit PageMap(std::uint64_t page_bytes);

    std::uint64_t pageBytes() const { return pageBytes_; }

    Addr pageOf(Addr addr) const { return blockAlign(addr, pageBytes_); }

    /** Home of @p addr's page, or kInvalidNode if unmapped. */
    NodeId homeOf(Addr addr) const;

    /** Map @p addr's page at @p home (first touch). */
    void assign(Addr addr, NodeId home);

    /** Move one page to a new home (reconfiguration). */
    void remap(Addr page, NodeId new_home);

    /** Pages currently homed at @p node, in ascending page order
     *  (deterministic regardless of hash-table iteration order). */
    std::vector<Addr> pagesHomedAt(NodeId node) const;

    void clear() { pages_.clear(); }

  private:
    std::uint64_t pageBytes_;
    FlatMap<Addr, NodeId> pages_;
};

} // namespace pimdsm

#endif // PIMDSM_MACHINE_PAGE_MAP_HH
