/**
 * @file
 * Spec-level exhaustive model checker.
 *
 * Explores an *abstract* operational model of the coherence protocols
 * — per-line node states, in-flight messages in per-node-pair FIFO
 * order, and directory/owner metadata, with no caches, timing, or
 * mesh — and
 * checks every reachable state against the declarative ProtocolSpec
 * (src/proto/spec.cc): a handler step whose row is Impossible (or
 * missing), whose emitted messages are not in the row's send list, or
 * whose resulting stable state is not in the row's next-state list is
 * a violation, as are SWMR, version-monotonicity, lost-owner,
 * directory-integrity, and stuck-state (deadlock) failures.
 *
 * The search is graph exploration, not stateless tree re-execution:
 * states are canonicalized under compute-node permutations (symmetry
 * reduction), fingerprinted to 64 bits, and deduplicated through a
 * FlatMap-backed visited set. Partial-order reduction exploits the
 * model's per-line independence: only the lowest-numbered line with
 * enabled transitions is expanded at each state (an ample set; see
 * docs/model-checking.md for the commutation argument). Fault
 * injection (drop/dup, per the fault taxonomy's message classes, and
 * for AGG one failover of the line's home D-node) is folded into the
 * transition relation under a per-line budget, and a stalled node may
 * force a retry whenever its line has drained.
 *
 * A conformance-sampling mode replays a random sample of explored
 * terminal traces through the real Machine on the model-check harness
 * (ModelCheckRun, check/model_check_run.hh: send interception + direct
 * delivery + the full terminal check), tying the abstract model back
 * to the implementation.
 */

#ifndef PIMDSM_CHECK_SPEC_EXPLORER_HH
#define PIMDSM_CHECK_SPEC_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/message.hh"
#include "sim/config.hh"

namespace pimdsm
{

/**
 * Spec-level mutations for the checker's self-tests: each one must be
 * caught with a counterexample trace (ProtoMutation's cousins, but
 * applied to the abstract model / spec copy instead of the simulator).
 */
enum class SpecMutation : std::uint8_t
{
    None,
    /** Home omits the invalidation to one sharer on a write (and does
     *  not count it in ackCount): classic lost-invalidation bug. */
    DropInvalSend,
    /** Home treats a Dirty line as Uncached when a second writer
     *  arrives, granting exclusivity twice (mirror of
     *  ProtoMutation::DoubleOwner). */
    DoubleOwner,
    /** Swap a next-state entry in the spec copy itself (write install
     *  lands in Shared instead of Dirty), so the *conformance checks*
     *  — not the safety invariants — must catch the model/spec
     *  disagreement. */
    SwapNextState,
};

struct SpecExplorerConfig
{
    ArchKind arch = ArchKind::Agg;
    /** Compute nodes (COMA/NUMA: homes are co-located, line l's home
     *  on node l % nodes). At most 4. */
    int nodes = 3;
    /** Independent cache lines. At most 2. */
    int lines = 2;
    /** Per-node, per-line spontaneous-event budgets. */
    int reads = 1;
    int writes = 1;
    int evicts = 1;
    /** Fault events per line (0 = fault-free): drops and dups of
     *  in-flight messages and, for AGG, at most one failover of the
     *  line's home D-node (failOverDNode). */
    int faults = 1;
    SpecMutation mutation = SpecMutation::None;
    /** Breadth-first search: shortest counterexamples (mutation
     *  self-tests); default depth-first: least memory. */
    bool bfs = false;
    /** Hard cap on distinct states; exceeding it sets truncated. */
    std::uint64_t maxStates = 1ull << 25;
    /** Reservoir-sample this many terminal traces (conformance). */
    int sampleTraces = 0;
};

/** One event of a sampled or counterexample trace. */
struct SpecTraceStep
{
    enum class Kind : std::uint8_t
    {
        Read,
        Write,
        Evict,
        Deliver,
        Drop,
        Dup,
        Retry,
        Failover, ///< the line's AGG home D-node fails over
    };
    /** Message endpoints that are not compute nodes. */
    static constexpr int kHome = -1;       ///< the line's home
    static constexpr int kFailedHome = -2; ///< its home before failover

    Kind kind = Kind::Read;
    int line = 0;
    /** Issuing/evicting/retrying compute node (-1 for the others). */
    int node = -1;
    /** Deliver/Drop/Dup: the message type acted on and its endpoints
     *  (compute node ids, kHome or kFailedHome). */
    MsgType msg = MsgType::ReadReq;
    int src = kHome;
    int dst = kHome;
    /** Human-readable rendering ("deliver ReadReply home->n1 ..."). */
    std::string text;
};

using SpecTrace = std::vector<SpecTraceStep>;

struct SpecExplorerResult
{
    std::uint64_t states = 0;      ///< distinct canonical states
    std::uint64_t transitions = 0; ///< edges executed
    std::uint64_t revisits = 0;    ///< edges into already-seen states
    std::uint64_t porPruned = 0;   ///< enabled transitions deferred by POR
    std::uint64_t faultTransitions = 0; ///< drop/dup/failover edges
    std::uint64_t failovers = 0;   ///< home failover edges (AGG)
    std::uint64_t terminals = 0;   ///< quiescent budget-exhausted states
    std::uint64_t rowChecks = 0;   ///< spec-row contract checks performed
    std::uint64_t maxDepth = 0;    ///< deepest path explored
    bool truncated = false;        ///< hit maxStates
    bool violation = false;
    std::string violationText;
    /** Minimal (BFS) or first-found (DFS) counterexample. */
    SpecTrace counterexample;
    /** Reservoir-sampled terminal traces (sampleTraces > 0). */
    std::vector<SpecTrace> sampled;
};

class SpecExplorer
{
  public:
    /** Validates the config (throws FatalError on nonsense). */
    explicit SpecExplorer(SpecExplorerConfig cfg);

    /** Explore to fixpoint (or maxStates); never throws on a safety
     *  violation — it is reported in the result. */
    SpecExplorerResult run();

  private:
    SpecExplorerConfig cfg_;
};

/** Conformance-sampling summary (all traces must replay cleanly; any
 *  oracle/invariant/quiescence failure panics like the explorer). */
struct SpecConformanceResult
{
    int replayed = 0;               ///< traces driven to quiescence
    std::uint64_t guidedSteps = 0;  ///< trace events matched to queues
    std::uint64_t missedSteps = 0;  ///< trace events with no live match
    std::uint64_t deliveries = 0;   ///< messages delivered in total
};

/**
 * Replay @p traces through a real Machine of @p cfg's organization:
 * each COMA/NUMA line is homed on node line % nodes, as in the model;
 * an AGG machine gets lines + 1 D-nodes, line i homed on D-node i + 1,
 * so the lowest D-node is the spare every failover remaps onto.
 * Scripted accesses and failovers are issued in trace order, and each
 * delivery, drop or dup takes the head of the exact (src, dst) queue
 * the step names when that head matches its type and line. Every run
 * is drained with ModelCheckRun's default tail and must pass its
 * terminal checks (machine invariants, quiescent coherence scan,
 * sequential version reference, zero oracle violations); any failure
 * panics. Traces with evictions are rejected (the real machine's
 * evictions are capacity-driven and cannot be scripted) — sample from
 * an evicts == 0 exploration.
 */
SpecConformanceResult
replaySpecTraces(const SpecExplorerConfig &cfg,
                 const std::vector<SpecTrace> &traces);

} // namespace pimdsm

#endif // PIMDSM_CHECK_SPEC_EXPLORER_HH
