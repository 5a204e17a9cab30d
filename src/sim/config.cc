#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>

#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/** Reject a scheduled link that is malformed or not on the mesh. */
void
checkLink(const LinkRef &l, const NetParams &net, bool cut)
{
    const std::string what = cut ? "partition link" : "link death";
    if (l.dir < 0 || l.dir > 3)
        fatal(what + " direction must be in [0, 3]");
    if (l.x < 0 || l.y < 0)
        fatal(what + " coordinates must be non-negative");
    const std::string where =
        std::string(cut ? "partition cut link" : "link death") +
        " at (" + std::to_string(l.x) + "," + std::to_string(l.y) + ")";
    if (l.x >= net.meshX || l.y >= net.meshY)
        fatal(where + " is outside the " + std::to_string(net.meshX) +
              "x" + std::to_string(net.meshY) + " mesh");
    // A directed link must not point off the mesh edge.
    const bool off_edge = (l.dir == 0 && l.x == net.meshX - 1) ||
                          (l.dir == 1 && l.x == 0) ||
                          (l.dir == 2 && l.y == net.meshY - 1) ||
                          (l.dir == 3 && l.y == 0);
    if (off_edge)
        fatal(where + " points off the mesh edge");
}

/**
 * Every check on the fault schedule, in one pass: each entry names a
 * node or on-mesh link this machine has, a partition heals after it
 * forms, and at least one P-node outlives the schedule (or no thread
 * survives to finish the workload).
 */
void
validateSchedule(const MachineConfig &cfg)
{
    const bool agg = cfg.arch == ArchKind::Agg;
    std::vector<NodeId> dead_pnodes;
    for (const ScheduledFault &f : cfg.faults.schedule) {
        switch (f.domain) {
          case FaultDomain::Rates:
            fatal("fault rates are not a scheduled fault");
          case FaultDomain::DNodeDeath:
            if (f.node == kInvalidNode)
                fatal("scheduled death names no node");
            if (!agg)
                fatal("scheduled node deaths require an AGG machine");
            if (f.node < cfg.numPNodes || f.node >= cfg.totalNodes())
                fatal("scheduled death must name a D-node");
            break;
          case FaultDomain::PNodeDeath:
            if (f.node == kInvalidNode)
                fatal("scheduled P-node death names no node");
            if (!agg)
                fatal("scheduled P-node deaths require an AGG machine");
            if (f.node < 0 || f.node >= cfg.numPNodes)
                fatal("scheduled P-node death must name a P-node");
            if (std::find(dead_pnodes.begin(), dead_pnodes.end(),
                          f.node) == dead_pnodes.end())
                dead_pnodes.push_back(f.node);
            break;
          case FaultDomain::LinkDeath:
            if (f.links.size() != 1)
                fatal("link death must carry exactly one link");
            checkLink(f.links.front(), cfg.net, false);
            break;
          case FaultDomain::Partition:
            if (f.links.empty())
                fatal("partition cuts no link");
            if (f.healTick == 0) {
                // Messages blocked on the cut queue until the heal;
                // with a finite retryLimit every blocked transaction
                // would be abandoned and the run would wedge by
                // construction.
                fatal("partition never heals: blocked transactions "
                      "would exhaust the finite retry limit and wedge");
            }
            if (f.healTick <= f.tick)
                fatal("partition must heal after it forms");
            for (const LinkRef &l : f.links)
                checkLink(l, cfg.net, true);
            break;
        }
    }
    if (static_cast<int>(dead_pnodes.size()) >= cfg.numPNodes)
        fatal("P-node death schedule kills every compute node");
}

} // namespace

const char *
archName(ArchKind k)
{
    switch (k) {
      case ArchKind::Numa:
        return "NUMA";
      case ArchKind::Coma:
        return "COMA";
      case ArchKind::Agg:
        return "AGG";
      default:
        return "?";
    }
}

std::string
archKey(ArchKind k)
{
    std::string s = archName(k);
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void
MachineConfig::validate() const
{
    if (numPNodes <= 0)
        fatal("machine needs at least one P-node");
    if (arch == ArchKind::Agg && numDNodes <= 0)
        fatal("AGG machine needs at least one D-node");
    if (arch != ArchKind::Agg && numDNodes != 0)
        fatal("only AGG machines have D-nodes");
    if (numThreads != numPNodes)
        fatal("one application thread per P-node is required");
    if (!isPow2(l1.lineBytes) || !isPow2(l2.lineBytes) ||
        !isPow2(mem.lineBytes))
        fatal("line sizes must be powers of two");
    if (l1.lineBytes > l2.lineBytes || l2.lineBytes > mem.lineBytes)
        fatal("line sizes must be L1 <= L2 <= memory line");
    if (mem.lineBytes % l2.lineBytes != 0)
        fatal("memory line must be a multiple of the L2 line");
    if (pageBytes % mem.lineBytes != 0)
        fatal("page size must be a multiple of the memory line");
    if (l1.sizeBytes < static_cast<std::uint64_t>(l1.lineBytes) ||
        l2.sizeBytes < static_cast<std::uint64_t>(l2.lineBytes))
        fatal("cache smaller than one line");
    if (pNodeMemBytes < pageBytes)
        fatal("P-node memory smaller than one page");
    if (arch == ArchKind::Agg && dNodeMemBytes < pageBytes)
        fatal("D-node memory smaller than one page");
    if (mem.assoc <= 0 || l1.assoc <= 0 || l2.assoc <= 0)
        fatal("associativity must be positive");
    if (net.linkBytesPerTick <= 0)
        fatal("network link bandwidth must be positive");
    if (static_cast<long long>(net.meshX) * net.meshY < totalNodes())
        fatal("mesh too small for node count");
    if (proc.issueWidth <= 0)
        fatal("issue width must be positive");
    if (proc.maxOutstandingLoads > proc.maxOutstanding)
        fatal("load limit exceeds total outstanding limit");
    faults.validate();
    validateSchedule(*this);
}

void
fitMesh(NetParams &net, int nodes)
{
    int x = 1;
    while (x * x < nodes)
        ++x;
    net.meshX = x;
    net.meshY = (nodes + x - 1) / x;
}

MachineConfig
makeBaseConfig(ArchKind arch)
{
    MachineConfig cfg;
    cfg.arch = arch;
    cfg.numThreads = 32;
    cfg.numPNodes = 32;
    cfg.numDNodes = arch == ArchKind::Agg ? 32 : 0;

    cfg.l1 = CacheParams{8 * 1024, 1, 64, 3};
    cfg.l2 = CacheParams{32 * 1024, 1, 64, 6};

    // NUMA and COMA get double-width links so bisection bandwidth
    // matches a 1/1 AGG machine with twice the node count (Section 3).
    cfg.net.linkBytesPerTick = arch == ArchKind::Agg ? 2 : 4;
    fitMesh(cfg.net, cfg.totalNodes());

    return cfg;
}

void
applyMemoryPressure(MachineConfig &cfg, std::uint64_t footprint,
                    double pressure)
{
    if (pressure <= 0.0 || pressure > 1.0)
        fatal("memory pressure must be in (0, 1]");
    if (footprint == 0)
        fatal("cannot size a machine for an empty footprint");

    const auto total = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(footprint) / pressure));

    auto roundup_pages = [&](std::uint64_t bytes) {
        std::uint64_t pages = ceilDiv(bytes, cfg.pageBytes);
        return (pages ? pages : 1) * cfg.pageBytes;
    };

    if (cfg.arch == ArchKind::Agg) {
        // Equal-DRAM comparison (Figure 5): half of the machine DRAM in
        // P-node caches, half backing storage in D-nodes, regardless of
        // the P:D ratio (fewer D-nodes => fatter D-nodes).
        cfg.pNodeMemBytes = roundup_pages(total / 2 / cfg.numPNodes);
        cfg.dNodeMemBytes = roundup_pages(total / 2 / cfg.numDNodes);
    } else {
        cfg.pNodeMemBytes = roundup_pages(total / cfg.numPNodes);
        cfg.dNodeMemBytes = 0;
    }
}

} // namespace pimdsm
