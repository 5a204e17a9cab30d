#include "mem/cache.hh"

namespace pimdsm
{

Cache::Cache(std::string name, const CacheParams &params)
    : name_(std::move(name)), params_(params),
      array_(params.sizeBytes, params.assoc, params.lineBytes)
{
}

bool
Cache::probe(Addr addr) const
{
    return array_.find(addr) != nullptr;
}

bool
Cache::access(Addr addr, bool is_write)
{
    CacheLine *line = array_.find(addr);
    if (!line) {
        ++misses_;
        return false;
    }
    ++hits_;
    array_.touch(*line);
    if (is_write)
        line->dirty = true;
    return true;
}

Cache::Fill
Cache::fill(Addr addr, bool dirty, CohState state, Version version)
{
    Fill result;
    CacheLine *line = array_.find(addr);
    if (!line) {
        line = array_.victim(addr);
        if (line->valid()) {
            result.evictedLine = line->lineAddr();
            result.evictedDirty = line->dirty;
            result.evictedState = line->state;
            result.evictedVersion = line->version;
        }
        line->reset();
        line->setLineAddr(array_.align(addr));
        line->state = state;
        line->version = version;
    } else {
        // Upgrades may strengthen the state of a resident line.
        line->state = state;
        line->version = version;
    }
    if (dirty)
        line->dirty = true;
    array_.touch(*line);
    return result;
}

bool
Cache::invalidateLine(Addr addr)
{
    CacheLine *line = array_.find(addr);
    if (!line)
        return false;
    const bool was_dirty = line->dirty;
    line->reset();
    return was_dirty;
}

void
Cache::cleanBlock(Addr block_addr, int span_bytes)
{
    for (int off = 0; off < span_bytes; off += params_.lineBytes) {
        if (CacheLine *line = array_.find(block_addr + off))
            line->dirty = false;
    }
}

bool
Cache::invalidateBlock(Addr block_addr, int span_bytes)
{
    bool any_dirty = false;
    for (int off = 0; off < span_bytes; off += params_.lineBytes)
        any_dirty |= invalidateLine(block_addr + off);
    return any_dirty;
}

} // namespace pimdsm
