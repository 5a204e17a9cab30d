/**
 * @file
 * The simulated multiprocessor: nodes (compute and/or home controllers),
 * the mesh, the page map, committed line versions and the coherence
 * oracle. Implements ProtoContext for the protocol controllers.
 */

#ifndef PIMDSM_MACHINE_MACHINE_HH
#define PIMDSM_MACHINE_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "check/oracle.hh"
#include "machine/page_map.hh"
#include "net/mesh.hh"
#include "sim/fault.hh"
#include "sim/page_blocks.hh"
#include "proto/agg_dnode.hh"
#include "proto/agg_pnode.hh"
#include "proto/coma_node.hh"
#include "proto/compute_base.hh"
#include "proto/context.hh"
#include "proto/home_base.hh"
#include "proto/numa_node.hh"

namespace pimdsm
{

/** What a node is currently doing (AGG machines can reconfigure). */
enum class NodeRole
{
    Compute,    ///< P-node
    Directory,  ///< D-node
    Both,       ///< NUMA/COMA node: compute + home on one chip
};

class Machine : public ProtoContext
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine() override = default;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // --- ProtoContext ---
    EventQueue &eq() override { return eq_; }
    const MachineConfig &config() const override { return cfg_; }
    NodeId homeOf(Addr line_addr, NodeId toucher) override;
    void send(Message msg) override;
    Version bumpVersion(Addr line) override;
    StatSet &stats() override { return stats_; }
    std::uint64_t computeNodeMask() const override;
    CoherenceOracle *
    checker() override
    {
        return oracle_.enabled() ? &oracle_ : nullptr;
    }
    bool nodeDead(NodeId n) const override { return isDead(n); }

    /** Queue that drives node @p n: every node runs on the machine's
     *  one event queue. */
    EventQueue &eqFor(NodeId) { return eq_; }

    // --- topology ---
    int totalNodes() const { return static_cast<int>(roles_.size()); }
    NodeRole role(NodeId n) const { return roles_[n]; }
    void setRole(NodeId n, NodeRole r) { roles_[n] = r; }
    bool isCompute(NodeId n) const
    {
        return roles_[n] != NodeRole::Directory;
    }
    bool isDirectory(NodeId n) const
    {
        return roles_[n] != NodeRole::Compute;
    }

    /** Node ids currently acting as compute nodes, in id order. */
    std::vector<NodeId> computeNodes() const;
    /** Node ids currently acting as directory nodes, in id order. */
    std::vector<NodeId> directoryNodes() const;

    ComputeBase *compute(NodeId n) { return computes_[n].get(); }
    HomeBase *home(NodeId n) { return homes_[n].get(); }
    const ComputeBase *compute(NodeId n) const
    {
        return computes_[n].get();
    }
    const HomeBase *home(NodeId n) const { return homes_[n].get(); }

    Mesh &mesh() { return mesh_; }
    const Mesh &mesh() const { return mesh_; }
    PageMap &pageMap() { return pageMap_; }

    CoherenceOracle &oracle() { return oracle_; }
    const CoherenceOracle &oracle() const { return oracle_; }

    /** Latest committed version of @p line (0 if never written). */
    Version latestVersion(Addr line) const;

    /** Test hook: set @p line's latest committed version to @p v (the
     *  version-limit test starts a line next to kVersionLimit). */
    void setLatestVersionForTest(Addr line, Version v)
    {
        versions_.slot(line) = v;
    }

    // --- model-check harness hooks (check/model_check_run.hh) ---
    /**
     * Intercept every outgoing message after the dead-source filter
     * but before mesh scheduling. Return true to take custody (the
     * interceptor later re-injects via deliverDirect), false to let
     * the message take the normal mesh path.
     */
    using SendInterceptor = std::function<bool(const Message &)>;
    void setSendInterceptor(SendInterceptor fn)
    {
        interceptor_ = std::move(fn);
    }

    /**
     * Deliver @p msg to its destination controller immediately (the
     * tail of the normal mesh path; also the model-check harness's
     * delivery primitive, bypassing mesh timing entirely).
     */
    void deliverDirect(const Message &msg);

    // --- fail-stop node deaths ---
    bool isDead(NodeId n) const { return dead_[n] != 0; }
    /** Fail-stop @p n: all traffic from/to it is dropped from now on
     *  and its home controller ignores already-scheduled handlers. */
    void markDead(NodeId n);
    /** Revive @p n (reboot as a fresh node; state was already reset). */
    void
    clearDead(NodeId n)
    {
        dead_[n] = 0;
        if (homes_[n])
            homes_[n]->setDead(false);
    }

    // --- analysis ---
    /** Figure 8 census over active directory nodes. */
    LineCensus collectCensus() const;

    /** Figure 7 aggregation over active compute nodes. */
    ReadLatencyStats aggregateReadStats() const;

    /** Directory + inclusion + global (cross-node) invariants on every
     *  node; safe at any instant, including mid-transaction (tests). */
    void checkInvariants() const;

    /** Full directory vs. node-state agreement plus value coherence;
     *  only valid once the machine is quiescent (see check/scan.hh). */
    void checkCoherenceQuiescent() const;

    /** Dump transient protocol state (deadlock diagnostics). */
    void dumpState(std::ostream &os) const;

    /** Watchdog diagnostic: every stuck transaction by node and line
     *  (compute MSHRs/writebacks + busy home lines). */
    std::string stuckDiagnostic() const;

    /** Structured form of stuckDiagnostic (see proto/stuck.hh). */
    std::vector<StuckTxn> collectStuck() const;

    std::uint64_t messagesSent() const { return mesh_.messagesSent(); }

  private:
    void buildAgg();
    void buildNumaOrComa();

    MachineConfig cfg_;
    EventQueue eq_;
    Mesh mesh_;
    PageMap pageMap_;
    std::vector<NodeRole> roles_;
    std::vector<std::unique_ptr<ComputeBase>> computes_;
    std::vector<std::unique_ptr<HomeBase>> homes_;
    /** Latest committed version per line, the reference the coherence
     *  oracle checks against; a line never written reads 0. */
    PageBlocks<Version> versions_;
    StatSet stats_;
    std::uint64_t nextDNode_ = 0;
    FaultPlan faults_;
    /** Fail-stopped nodes (vector<char>: avoid vector<bool>). */
    std::vector<char> dead_;
    CoherenceOracle oracle_;
    SendInterceptor interceptor_;
};

} // namespace pimdsm

#endif // PIMDSM_MACHINE_MACHINE_HH
