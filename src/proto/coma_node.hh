/**
 * @file
 * Flat COMA home: a directory with no backing memory. Data lives only
 * in attraction memories; every line has a master (last) copy that may
 * not be dropped. A displaced master line is injected into a provider
 * node using Joe and Hennessy's method (Section 3); if no provider
 * accepts, the line overflows to disk.
 */

#ifndef PIMDSM_PROTO_COMA_NODE_HH
#define PIMDSM_PROTO_COMA_NODE_HH

#include <vector>

#include "proto/agg_pnode.hh"
#include "proto/home_base.hh"
#include "sim/random.hh"

namespace pimdsm
{

class ComaHome : public HomeBase
{
  public:
    /** @param num_nodes compute nodes available as injection providers. */
    ComaHome(ProtoContext &ctx, NodeId self, int num_nodes);

    /** Co-located attraction memory; lets the home serve 2-hop reads
     *  when its own node caches the line. */
    void setLocalCompute(const CachedMemCompute *am) { am_ = am; }

  protected:
    void initEntry(Addr line, DirEntry &e) override;
    bool hasData(Addr line, const DirEntry &e) const override;
    Tick dataAccessLatency(DirEntry &e) override;
    Tick absorbData(Addr line, DirEntry &e, Version v) override;
    void releaseData(Addr line, DirEntry &e) override;
    bool backsLines() const override { return false; }
    void serveColdRead(Addr line, DirEntry &e, const Message &req,
                       Tick when) override;
    void handleWriteBack(const Message &msg, DirEntry &e) override;
    void handleInjectResponse(const Message &msg) override;
    double costFactor() const override;
    Tick handlerLatency(const Message &req, Tick base) const override;

  private:
    struct PendingInject
    {
        Version version = 0;
        bool masterClean = false;
        /** Grant mode: remaining sharer candidates for MasterGrant. */
        std::vector<NodeId> grantCandidates;
        bool grantMode = false;
        /** Providers already tried in injection mode. */
        int providerTries = 0;
        NodeId lastTried = kInvalidNode;
        NodeId evictor = kInvalidNode;
    };

    /** Advance the pending injection for @p line one step. */
    void stepInjection(Addr line, PendingInject &pi);

    NodeId pickProvider(const PendingInject &pi);

    const CachedMemCompute *am_ = nullptr;
    int numNodes_;
    int maxProviderTries_;
    Rng rng_;
    FlatMap<Addr, PendingInject> pendingInjects_;
};

} // namespace pimdsm

#endif // PIMDSM_PROTO_COMA_NODE_HH
