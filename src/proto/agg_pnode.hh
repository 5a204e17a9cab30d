/**
 * @file
 * Compute-side controller whose node-level storage is the tagged local
 * DRAM organized as a cache: AGG P-nodes (Section 2.1.1) and COMA
 * nodes' attraction memories.
 *
 * The two differ only in replacement policy (COMA protects master
 * lines), sharing-writeback behaviour, and COMA's injection handling.
 */

#ifndef PIMDSM_PROTO_AGG_PNODE_HH
#define PIMDSM_PROTO_AGG_PNODE_HH

#include "mem/tagged_memory.hh"
#include "proto/compute_base.hh"

namespace pimdsm
{

class CachedMemCompute : public ComputeBase
{
  public:
    /**
     * @param mem_bytes local DRAM capacity (on-chip + off-chip)
     * @param coma_mode COMA replacement/injection semantics
     */
    CachedMemCompute(ProtoContext &ctx, NodeId self,
                     std::uint64_t mem_bytes, bool coma_mode);

    /** Coherence state held for @p line (used by the co-located COMA
     *  home to check whether its own attraction memory can serve). */
    CohState peekState(Addr line) const { return nodeState(line); }

    void forEachValidLine(
        FunctionRef<void(Addr, CohState, Version)> fn) const override;

  protected:
    CohState nodeState(Addr line) const override;
    Version nodeVersion(Addr line) const override;
    Tick localDataAccess(Addr line, Tick issue) override;
    void installLine(Addr line, CohState st, Version v) override;
    void setNodeState(Addr line, CohState st, Version v) override;
    CohState invalidateLocal(Addr line) override;
    void onL2Evict(Addr line, bool dirty, CohState st,
                   Version v) override;
    Tick fwdDataLatency() const override;
    bool sendsSharingWriteback() const override { return !comaMode_; }
    void handleInject(const Message &msg) override;
    void handleMasterGrant(const Message &msg) override;
    void forEachOwnedLine(
        FunctionRef<void(Addr, CohState, Version)> fn) override;
    void invalidateAllLocal() override;

  private:
    /** Displace @p way (writing back owned lines) and leave it invalid. */
    void evictWay(CacheLine &way);

    TaggedMemory mem_;
    bool comaMode_;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_AGG_PNODE_HH
