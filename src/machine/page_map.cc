#include "machine/page_map.hh"

#include <algorithm>

#include "sim/log.hh"

namespace pimdsm
{

PageMap::PageMap(std::uint64_t page_bytes) : pageBytes_(page_bytes)
{
    if (!isPow2(page_bytes))
        fatal("page size must be a power of two");
}

NodeId
PageMap::homeOf(Addr addr) const
{
    auto it = pages_.find(pageOf(addr));
    return it == pages_.end() ? kInvalidNode : it->second;
}

void
PageMap::assign(Addr addr, NodeId home)
{
    auto [it, inserted] = pages_.emplace(pageOf(addr), home);
    if (!inserted && it->second != home)
        panic("page assigned to two different homes");
}

void
PageMap::remap(Addr page, NodeId new_home)
{
    auto it = pages_.find(pageOf(page));
    if (it == pages_.end())
        panic("remap of an unmapped page");
    it->second = new_home;
}

std::vector<Addr>
PageMap::pagesHomedAt(NodeId node) const
{
    std::vector<Addr> result;
    for (const auto &[page, home] : pages_) {
        if (home == node)
            result.push_back(page);
    }
    // Callers (failover, reconfiguration) mutate state page by page;
    // sorting makes that order independent of the hash table's
    // iteration order.
    std::sort(result.begin(), result.end());
    return result;
}

} // namespace pimdsm
