/**
 * @file
 * Deterministic fault injection (lossy mesh, link/partition faults,
 * node death).
 *
 * A FaultPlan is a seeded schedule of network misbehaviour — per
 * message-class drop / delay / duplicate probabilities plus directed
 * "drop exactly the Nth message of this class" events — and of
 * scheduled structural faults: D-node and P-node fail-stop deaths,
 * single-link fail-stop deaths, and timed network partitions (a cut
 * set of links that heals at a later tick). The mesh consults the
 * plan on every send and a live link-health map on every path walk;
 * the protocol layers recover through MSHR timeouts with exponential
 * backoff, home-side request dedup, detour routing, partition queues
 * that drain on heal, and directory failover (see DESIGN.md, "Fault
 * model & degradation").
 *
 * Only message classes the protocol can recover from are droppable
 * (requests, replies, writebacks); configured drops on other classes
 * are demoted to delays so a plan can never wedge the machine through
 * an unrecoverable loss.
 */

#ifndef PIMDSM_SIM_FAULT_HH
#define PIMDSM_SIM_FAULT_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace pimdsm
{

class StatSet;

/** Coarse message classification for fault targeting. */
enum class MsgClass : std::uint8_t
{
    Request,   ///< ReadReq / ReadExReq / UpgradeReq (retried on timeout)
    Reply,     ///< ReadReply / ReadExReply / UpgradeReply (re-served)
    WriteBack, ///< WriteBack / WriteBackAck / OwnerToHome (retried)
    Ack,       ///< TxnDone / InvalAck (duplicable, not droppable)
    Peer,      ///< Fwd / FwdReply / Inval / COMA injection traffic
    Cim,       ///< CimReq / CimReply
    Immune,    ///< never faulted (raw mesh sends, fault-free callers)
};

/** Classes eligible for fault injection (Immune excluded). */
constexpr int kNumFaultClasses = 6;

const char *msgClassName(MsgClass c);

/** Per-class fault probabilities (all in [0, 1]). */
struct ClassFaultRates
{
    double drop = 0.0;
    double delay = 0.0;
    double duplicate = 0.0;
    /** Directed scalpel: drop exactly the Nth mesh message of this
     *  class (1-based; 0 = disabled). Independent of @c drop. */
    std::uint64_t dropNth = 0;
};

/** A directed mesh link, named by its source router and direction
 *  (0=E, 1=W, 2=N, 3=S — matches Mesh::linkIndex). A fault on a link
 *  kills both directions of the physical channel. */
struct LinkRef
{
    int x = 0;
    int y = 0;
    int dir = 0;

    bool operator==(const LinkRef &o) const
    {
        return x == o.x && y == o.y && dir == o.dir;
    }
};

/**
 * The structural fault domains a schedule can draw from. Used by the
 * chaos fuzzer's generator and by diagnostics; keep faultDomainName()
 * and the tools/chaos generator exhaustive over this enum
 * (tools/lint.sh checks both).
 */
enum class FaultDomain : std::uint8_t
{
    Rates,      ///< per-class drop/delay/dup probabilities + dropNth
    DNodeDeath, ///< directory-node fail-stop
    PNodeDeath, ///< compute-node fail-stop
    LinkDeath,  ///< permanent single-link fail-stop
    Partition,  ///< timed cut set that heals later
};

constexpr int kNumFaultDomains = 5;

const char *faultDomainName(FaultDomain d);

/**
 * One timed structural fault. A D-node or P-node death names its
 * @c node; a link death carries its one link in @c links; a partition
 * carries its cut in @c links and heals at @c healTick (healTick == 0
 * means it never heals, which MachineConfig::validate() rejects
 * because the finite retryLimit would abandon every blocked
 * transaction). FaultDomain::Rates is never scheduled: rates live in
 * FaultConfig::rates.
 */
struct ScheduledFault
{
    FaultDomain domain = FaultDomain::DNodeDeath;
    Tick tick = 0;
    NodeId node = kInvalidNode;
    /** The `{}` lets a designated initializer leave it out under
     *  -Wmissing-field-initializers. */
    std::vector<LinkRef> links{};
    Tick healTick = 0;
};

/** Fault-injection knobs, carried inside MachineConfig. */
struct FaultConfig
{
    ClassFaultRates rates[kNumFaultClasses];
    /** Extra latency added to a delayed message. */
    Tick delayTicks = 500;
    /** Seed of the injection RNG (independent of MachineConfig::seed
     *  so fault placement is stable across machine-level knobs). */
    std::uint64_t seed = 0x5eedu;
    /** Initial per-transaction timeout before the first retry. */
    Tick timeoutTicks = 20000;
    /** Timeout multiplier applied after each retry. */
    double backoffFactor = 2.0;
    /** Retries before a transaction is abandoned (then the watchdog
     *  reports it when the machine stalls). */
    int retryLimit = 8;
    /** Period of the compute-side timeout sweep. */
    Tick sweepInterval = 2000;
    /** Timed structural faults, fired by the experiment runner in
     *  tick order (entries that share a tick fire in list order) and
     *  checked against the machine by MachineConfig::validate(). */
    std::vector<ScheduledFault> schedule;

    /**
     * Arm the recovery machinery (txn sequence numbers, home-side
     * dedup, timeout sweeps) without configuring any mesh-level fault.
     * The model-check explorer uses this: it injects its own drops and
     * duplicates at the Machine::send interception point, bypassing the
     * FaultPlan, but still needs the tolerant protocol paths live.
     */
    bool armRecovery = false;

    /** True if any fault mechanism is configured; the retry/dedup
     *  machinery is armed only when this holds, so fault-free runs
     *  are bit-identical to the pre-fault simulator. */
    bool enabled() const;

    /** Convenience: drop requests, replies and writebacks at @p p. */
    void setUniformDropRate(double p);

    /** Throw FatalError on nonsensical rates or recovery knobs (the
     *  schedule is checked by MachineConfig::validate()). */
    void validate() const;
};

/** What the mesh should do with one message. */
enum class FaultAction : std::uint8_t
{
    Deliver,
    Drop,
    Delay,
    Duplicate,
};

const char *faultActionName(FaultAction a);

struct FaultDecision
{
    FaultAction action = FaultAction::Deliver;
    Tick extraDelay = 0;
};

/** True if the protocol can recover from losing this class. */
bool msgClassDroppable(MsgClass c);

/** True if duplicate delivery of this class is dedup'd downstream. */
bool msgClassDupSafe(MsgClass c);

/**
 * Runtime fault oracle: owns the seeded RNG and the per-class message
 * counters, and surfaces every decision through StatSet counters
 * ("fault.net.*"). One per Machine.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    void init(const FaultConfig &cfg, StatSet *stats);

    bool active() const { return active_; }
    const FaultConfig &config() const { return cfg_; }

    /** Decide the fate of the next mesh message of class @p cls. */
    FaultDecision decide(MsgClass cls);

  private:
    FaultConfig cfg_;
    StatSet *stats_ = nullptr;
    Rng rng_{1};
    std::uint64_t seen_[kNumFaultClasses] = {};
    bool active_ = false;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_FAULT_HH
