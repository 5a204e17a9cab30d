/**
 * @file
 * Machine configuration: all architectural parameters from the paper's
 * Table 1 (latencies, buffering, network) and Table 2 (software protocol
 * handler costs), plus machine-shape knobs (P/D node counts, memory
 * pressure, cache sizes per Table 3).
 */

#ifndef PIMDSM_SIM_CONFIG_HH
#define PIMDSM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace pimdsm
{

/** The three machine organizations compared in the paper. */
enum class ArchKind
{
    Numa, ///< CC-NUMA: plain home memory, on-chip hardware directory.
    Coma, ///< Flat COMA: attraction memories, master state, injection.
    Agg,  ///< The paper's proposal: P-nodes + software-handler D-nodes.
};

const char *archName(ArchKind k);
/** archName in lower case ("agg"), as command lines and repro files
 *  spell it. */
std::string archKey(ArchKind k);

/** Parameters of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 8 * 1024;
    int assoc = 1;          ///< direct-mapped L1/L2 per Table 1
    int lineBytes = 64;
    Tick latency = 3;       ///< round trip, CPU cycles
};

/** Local DRAM (tagged memory-as-cache, or plain home memory). */
struct MemParams
{
    Tick onChipLatency = 37;  ///< round trip, Table 1
    Tick offChipLatency = 57; ///< round trip, Table 1
    int assoc = 4;            ///< P-node/COMA memory associativity
    int lineBytes = 128;      ///< memory line (coherence grain)
    /** Peak transfer bandwidth, bytes per CPU cycle (Table 1: 32 B/clk). */
    int bandwidthBytesPerTick = 32;
    /**
     * Fraction of a node's local DRAM that is on chip. The paper sizes
     * the on-chip portion per application for a 5% local miss rate; we
     * expose it as a fraction since the split "has only a modest impact
     * on execution time" (Section 3).
     */
    double onChipFraction = 0.5;
    /**
     * Ablation: replace lines in the tagged local memory with strict
     * LRU instead of the default pseudo-random policy (LRU has zero
     * retention on cyclic sweeps larger than the capacity).
     */
    bool lruLocalMemory = false;
};

/** Wormhole-routed 2D mesh (Section 3). */
struct NetParams
{
    /** Payload bytes per link per cycle: 2 for AGG, 4 for NUMA/COMA. */
    int linkBytesPerTick = 2;
    // Per-hop and interface costs are calibrated so that unloaded
    // remote round trips land near Table 1's 298 (2-hop) and 383
    // (3-hop) cycles; see tests/test_calibration.cc.
    Tick routerLatency = 6;  ///< per-hop switch traversal
    Tick wireLatency = 2;    ///< per-hop wire
    Tick niLatency = 20;     ///< network interface inject/eject, each side
    int meshX = 8;
    int meshY = 8;
    /** Header size prepended to every message. */
    int headerBytes = 16;
};

/** Software protocol handler costs (Table 2), in CPU cycles. */
struct HandlerCosts
{
    Tick readLatency = 50;
    Tick readOccupancy = 80;
    Tick readExLatency = 50;
    Tick readExOccupancy = 80;
    Tick perInvalOccupancy = 10;
    Tick ackLatency = 40;
    Tick ackOccupancy = 40;
    Tick writeBackLatency = 40;
    Tick writeBackOccupancy = 140;
    /**
     * NUMA/COMA run the protocol in custom hardware; the paper assumes
     * their latency and occupancy are 70% of AGG's software handlers.
     */
    double hardwareFactor = 0.7;
    /**
     * Ablation multiplier on the AGG software handler costs (1.0 =
     * Table 2 as measured; larger models slower protocol code).
     */
    double softwareFactor = 1.0;
    /** Delay before a polling D-node notices an arrived message. */
    Tick pollDelay = 15;
    /**
     * Compute-side hardware message engine: fixed cost to process one
     * incoming protocol message at a P-node/COMA/NUMA node.
     */
    Tick msgEngineLatency = 10;
};

/** Processor core model (Table 1). */
struct ProcParams
{
    int issueWidth = 4;          ///< instructions per cycle
    int maxOutstanding = 32;     ///< total outstanding memory accesses
    int maxOutstandingLoads = 16;
    int writeBufferEntries = 32;
};

/** D-node software storage management (Section 2.2.2). */
struct DnodeParams
{
    /** Directory entries per Data entry (paper evaluates 1.5). */
    double directoryFactor = 1.5;
    /**
     * When the free+shared reclaimable pool falls below this fraction of
     * the Data array, the OS pages out to disk.
     */
    double pageOutThreshold = 0.04;
    /** Fraction of Data entries freed per page-out episode. */
    double pageOutFraction = 0.08;
    /**
     * Synchronous OS cost of a page-out episode (cycles of D-node
     * occupancy). The disk write itself proceeds asynchronously
     * (write-behind), so only the selection/unmap work blocks the
     * protocol processor.
     */
    Tick pageOutBaseCost = 3000;
    /** Extra occupancy per line collected during page-out. */
    Tick pageOutPerLineCost = 20;
    /** Round trip to disk for a paged-out (or COMA-overflowed) line. */
    Tick diskLatency = 12000;
    /** D-node occupancy per record scanned for CIM offload (Sec. 2.4). */
    Tick cimPerRecordCost = 6;
};

/** Dynamic reconfiguration overhead model (Section 4.2). */
struct ReconfigCosts
{
    Tick baseCost = 100000;        ///< setup/sync/decision, per episode
    Tick perLineCost = 20;         ///< collect + migrate one data line
    /** Move one 8-byte Directory entry (no data attached). */
    Tick perDirEntryCost = 2;
    Tick perTenPagesCost = 1000;   ///< page mapping update per 10 pages
    Tick tlbUpdateCost = 1000;     ///< per P-node TLB shootdown
};

/**
 * Deliberate protocol mutations for oracle self-tests. Each one breaks
 * a coherence invariant in a targeted way; the mutation tests assert
 * that the CoherenceOracle catches every one of them. Never enable
 * outside tests.
 */
enum class ProtoMutation : std::uint8_t
{
    None,        ///< correct protocol
    SkipInval,   ///< acknowledge an invalidation without invalidating
    DoubleOwner, ///< home forgets the dirty owner and grants a second
    LeakSlot,    ///< D-node release forgets to return a Data slot
};

/** Coherence-checking knobs (src/check/; see DESIGN.md invariants). */
struct CheckConfig
{
    /**
     * Maintain the machine-wide shadow model and check coherence
     * invariants on every protocol event. Off by default so benches
     * pay nothing; tests and the model checker turn it on.
     */
    bool enabled = false;
    /** Test-only protocol mutation (oracle self-test; keep None). */
    ProtoMutation mutation = ProtoMutation::None;
};

/** Complete description of one simulated machine. */
struct MachineConfig
{
    ArchKind arch = ArchKind::Agg;

    int numThreads = 32;
    /** Compute nodes. NUMA/COMA: every node is a compute node. */
    int numPNodes = 32;
    /** Directory nodes (AGG only; 0 for NUMA/COMA). */
    int numDNodes = 32;

    /**
     * Per-P-node local DRAM bytes (tagged as a cache in AGG/COMA;
     * plain home memory in NUMA).
     */
    std::uint64_t pNodeMemBytes = 1ull << 22;
    /** Per-D-node DRAM bytes available to the Data array (AGG only). */
    std::uint64_t dNodeMemBytes = 1ull << 22;

    CacheParams l1;
    CacheParams l2;
    MemParams mem;
    NetParams net;
    HandlerCosts handlers;
    ProcParams proc;
    DnodeParams dnode;
    ReconfigCosts reconfig;

    std::uint64_t pageBytes = 4096;

    /**
     * Ablation: disable the COMA-inspired shared-master state
     * (Section 2.2.2). The home then keeps every shared line's only
     * reclaim path through paging, and SharedList is never used.
     */
    bool aggGrantsMastership = true;

    /**
     * Directory sharer representation: 0 = full bit-vector map;
     * otherwise a limited-pointer scheme with this many pointers
     * (the paper assumes a 3-pointer limited vector). On pointer
     * overflow the entry degrades to broadcast invalidation.
     */
    int directoryPointers = 0;

    /**
     * Build every AGG node with both a compute and a directory
     * controller so roles can change at run time (Section 2.3).
     */
    bool reconfigurable = false;

    /** Deterministic seed for any stochastic machine behaviour. */
    std::uint64_t seed = 1;

    /** Fault-injection plan (inert by default; see sim/fault.hh). */
    FaultConfig faults;

    /** Coherence-oracle knobs (inert by default; see src/check/). */
    CheckConfig check;

    /** Nodes in the machine (P + D). */
    int totalNodes() const { return numPNodes + numDNodes; }

    /** Machine-wide DRAM bytes (P memories + D memories). */
    std::uint64_t
    totalDramBytes() const
    {
        return static_cast<std::uint64_t>(numPNodes) * pNodeMemBytes +
               static_cast<std::uint64_t>(numDNodes) * dNodeMemBytes;
    }

    /** Throw FatalError if the configuration is not simulable. */
    void validate() const;
};

/**
 * Build a baseline configuration for @p arch per the paper's Section 3:
 * L2 defaults, Table 1 latencies, NUMA/COMA get 2x link bandwidth and
 * on-chip (hardware, 0.7x cost) directories.
 */
MachineConfig makeBaseConfig(ArchKind arch);

/** Resize @p net's mesh to the smallest near-square fitting @p nodes. */
void fitMesh(NetParams &net, int nodes);

/**
 * Size the machine memories so that footprint/totalDram == @p pressure,
 * splitting DRAM between P- and D-nodes for AGG (D-node memory gets the
 * same total as P-node memory when ratios are per Figure 5's equal-DRAM
 * comparison).
 *
 * @param cfg        configuration to adjust (numPNodes/numDNodes set).
 * @param footprint  application footprint in bytes.
 * @param pressure   desired footprint/DRAM ratio, e.g. 0.25 or 0.75.
 */
void applyMemoryPressure(MachineConfig &cfg, std::uint64_t footprint,
                         double pressure);

} // namespace pimdsm

#endif // PIMDSM_SIM_CONFIG_HH
