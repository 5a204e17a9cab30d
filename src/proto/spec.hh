/**
 * @file
 * Declarative protocol specification.
 *
 * Every coherence controller (AGG P-node, AGG D-node home, COMA
 * attraction memory + home, NUMA node + home) registers its transitions
 * here as data: (role, stable line state, incoming MsgType) maps to the
 * messages the handler may send, the possible next states, and the
 * Table-2 cost key that prices the handler — or to an explicit
 * Impossible/Ignored marker with a reason. handleMessage dispatch is
 * routed through this table (see compute_base.cc / home_base.cc), so
 * the spec and the code cannot silently diverge, and the message
 * metadata used for routing and fault targeting (msgBoundForHome,
 * msgClassOf) is *derived* from the spec instead of hand-maintained.
 *
 * The static analyzer `pimdsm-protocheck` (tools/protocheck, checks in
 * proto/spec_check.*) proves whole-protocol properties over this table
 * at build time: full (state x MsgType) coverage, virtual-network
 * deadlock-freedom (the DASH channel-dependency argument), cost-model
 * resolution against the configured Table-2 constants, and reachability
 * of every state and transition from the initial state.
 */

#ifndef PIMDSM_PROTO_SPEC_HH
#define PIMDSM_PROTO_SPEC_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "proto/message.hh"
#include "sim/config.hh"

namespace pimdsm
{
namespace spec
{

/** The six controller roles across the three machine organizations. */
enum class Role : std::uint8_t
{
    AggCompute,  ///< AGG P-node (CachedMemCompute, !coma_mode)
    ComaCompute, ///< COMA attraction memory (CachedMemCompute, coma)
    NumaCompute, ///< CC-NUMA node (NumaCompute)
    AggHome,     ///< AGG D-node software-handler home (AggDNodeHome)
    ComaHome,    ///< flat-COMA directory-only home (ComaHome)
    NumaHome,    ///< CC-NUMA hardware directory home (NumaHome)
};

constexpr int kNumRoles = 6;

const char *roleName(Role r);

/** True for the compute-side roles. */
constexpr bool
roleIsCompute(Role r)
{
    return r == Role::AggCompute || r == Role::ComaCompute ||
           r == Role::NumaCompute;
}

/**
 * Stable line states, unifying the compute-side CohState space and the
 * home-side DirEntry::State space (prefixed Home*). Each role uses the
 * subset reported by statesOf().
 */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    SharedMaster,
    Dirty,
    HomeUncached,
    HomeShared,
    HomeDirty,
};

constexpr int kNumLineStates = 7;

const char *lineStateName(LineState s);

/**
 * Virtual network a message class travels on. The deadlock-freedom
 * discipline (spec_check.cc) requires that a handler processing a
 * message on one network sends only on strictly later networks, so the
 * channel-dependency graph is acyclic and the protocol cannot deadlock
 * the mesh. Declared exemptions (sink messages, replacement-triggered
 * sends, statically bounded retry chains) are verified separately.
 */
enum class Vn : std::uint8_t
{
    Request,    ///< transaction openers: requests, writebacks
    Forward,    ///< home-generated third-party work: Fwd/Inval/Inject
    Response,   ///< data/ack replies; must always sink
    Completion, ///< TxnDone: unblocks the home line, terminal
};

constexpr int kNumVns = 4;

const char *vnName(Vn v);

/**
 * Key into the configured handler cost model (Table 2 of the paper plus
 * the compute-side message engine). Every Handled transition carries
 * one; protocheck verifies each key resolves to a configured
 * latency/occupancy pair so the spec and the cost model cannot drift.
 */
enum class CostKey : std::uint8_t
{
    None,      ///< no handler runs (Ignored/Impossible entries only)
    Read,      ///< HandlerCosts::readLatency / readOccupancy
    ReadEx,    ///< readExLatency / readExOccupancy (+ perInvalOccupancy)
    WriteBack, ///< writeBackLatency / writeBackOccupancy
    Ack,       ///< ackLatency / ackOccupancy
    MsgEngine, ///< compute-side hardware message engine
    CimScan,   ///< DnodeParams::cimPerRecordCost per record scanned
};

const char *costKeyName(CostKey k);

/**
 * Resolve @p key against the configured cost model.
 * @return false (outputs untouched) for None or an unknown key.
 */
bool resolveCostKey(CostKey key, const MachineConfig &cfg, Tick &latency,
                    Tick &occupancy);

/** One message a handler may emit while processing a transition. */
struct SendSpec
{
    MsgType type = MsgType::ReadReq;
    /** Role of the receiving controller. */
    Role to = Role::AggHome;
    /**
     * Replacement-triggered send (victim writeback during a line
     * install). Exempt from the virtual-network discipline: evictions
     * are spontaneous events draining through their own buffer
     * (wbPending), not part of the message-handling dependency chain.
     */
    bool evict = false;
    /**
     * Part of a statically bounded retry chain (COMA injection provider
     * search, capped at maxProviderTries before disk overflow). Exempt
     * from the discipline because the chain terminates by construction.
     */
    bool boundedRetry = false;
};

/** How a (role, state, message) pair is treated. */
enum class Outcome : std::uint8_t
{
    Handled,    ///< a handler runs; sends/next/cost describe it
    Ignored,    ///< legally received and dropped (reason in note)
    Impossible, ///< receipt is a protocol error; controller panics
};

const char *outcomeName(Outcome o);

/** One row of the transition table. */
struct Transition
{
    Role role = Role::AggCompute;
    LineState state = LineState::Invalid;
    MsgType msg = MsgType::ReadReq;
    Outcome outcome = Outcome::Handled;
    CostKey cost = CostKey::None;
    std::vector<SendSpec> sends;
    /** Possible stable states after the handler (empty: unchanged). */
    std::vector<LineState> next;
    /** Reason (Impossible/Ignored) or behaviour summary (Handled). */
    std::string note;

    // Builder-style helpers so spec.cc reads declaratively.
    Transition &send(MsgType t, Role to);
    Transition &sendEvict(MsgType t, Role to);
    Transition &sendBounded(MsgType t, Role to);
    Transition &to(LineState s);
    Transition &withCost(CostKey k);
    Transition &why(const char *text);
};

/** Per-MsgType declaration: class, network, and documentation. */
struct MessageDecl
{
    MsgType type = MsgType::ReadReq;
    /** Fault-injection class (derivation target of msgClassOf). */
    MsgClass cls = MsgClass::Immune;
    /** Virtual network for the deadlock-freedom discipline. */
    Vn vn = Vn::Request;
    /**
     * Terminal sink: every Handled transition for this type must have
     * an empty send list and its handler never blocks on protocol
     * state, so edges into it create no channel dependency (verified
     * by protocheck).
     */
    bool sink = false;
    std::string doc;
    bool declared = false;
};

/**
 * The full declarative protocol: message declarations plus the
 * transition table for all six roles. `instance()` is the immutable
 * singleton the simulator dispatches through; `build()` returns a
 * fresh mutable copy for protocheck's mutation tests.
 */
class ProtocolSpec
{
  public:
    /** The built-in spec (built once, then immutable). */
    static const ProtocolSpec &instance();

    /** A fresh copy of the built-in spec (tests mutate it freely). */
    static ProtocolSpec build();

    // --------------------------------------------------------------
    // Registration (spec.cc and test mutations).
    // --------------------------------------------------------------

    void declareMsg(MsgType t, MsgClass cls, Vn vn, const char *doc,
                    bool sink = false);

    /** Append a transition row (defaults to Handled). */
    Transition &on(Role r, LineState s, MsgType t);

    /** Register an Ignored row. */
    Transition &ignore(Role r, LineState s, MsgType t, const char *why);

    /** Register an Impossible row. */
    Transition &impossible(Role r, LineState s, MsgType t,
                           const char *why);

    /** Register Impossible for every state of @p r. */
    void impossibleAll(Role r, MsgType t, const char *why);

    /** Drop the row for (r, s, t); returns true if one existed. */
    bool remove(Role r, LineState s, MsgType t);

    // --------------------------------------------------------------
    // Lookup.
    // --------------------------------------------------------------

    const std::vector<Transition> &transitions() const
    {
        return transitions_;
    }
    std::vector<Transition> &transitions() { return transitions_; }

    const MessageDecl &decl(MsgType t) const;
    MessageDecl &decl(MsgType t);

    /** Row for (r, s, t), or nullptr. */
    const Transition *find(Role r, LineState s, MsgType t) const;
    Transition *find(Role r, LineState s, MsgType t);

    /** True if some state of @p r has a Handled or Ignored row for
     *  @p t — i.e. the controller is prepared to receive it. */
    bool roleAccepts(Role r, MsgType t) const;

    /** First Impossible note for (r, t), for panic messages. */
    std::string impossibleReason(Role r, MsgType t) const;

    // --------------------------------------------------------------
    // Derived message metadata (replaces the hand-written switches
    // that used to live in message.cc).
    // --------------------------------------------------------------

    /** True if some home role accepts @p t. */
    bool boundForHome(MsgType t) const;

    /** Declared fault class of @p t. */
    MsgClass classOf(MsgType t) const;

    // --------------------------------------------------------------
    // Role structure.
    // --------------------------------------------------------------

    /** Stable states of @p r (NUMA nodes never hold mastership). */
    static const std::vector<LineState> &statesOf(Role r);

    /** Initial state (Invalid / HomeUncached). */
    static LineState initialStateOf(Role r);

    /** The two roles forming one machine organization. */
    static const std::vector<Role> &rolesOfArch(ArchKind arch);

  private:
    std::vector<Transition> transitions_;
    std::vector<MessageDecl> decls_;
};

// ------------------------------------------------------------------
// Spec-driven dispatch: every controller routes handleMessage through
// a table built from its role's rows, so a message the spec declares
// Impossible for the role panics with the spec's reason, and a spec
// row without a bound handler fails when the controller is built.
// ------------------------------------------------------------------

/** A controller's handler for each MsgType (null: not accepted). */
template <typename Ctl>
using DispatchTable =
    std::array<void (Ctl::*)(const Message &), kNumMsgTypes>;

/** Panic: the spec accepts @p t at @p r but no handler is bound. */
[[noreturn]] void unboundHandler(Role r, MsgType t);

/** Panic: @p msg reached role @p r, which cannot receive it. */
[[noreturn]] void cannotReceive(Role r, const Message &msg);

/**
 * Role @p r's table: the handler @p bindings names for each MsgType the
 * spec accepts at @p r, null for the rest. Built once per controller
 * type and role (each type passes the same @p bindings every time).
 */
template <typename Ctl>
const DispatchTable<Ctl> &
dispatchTable(Role r,
              std::initializer_list<
                  std::pair<MsgType, void (Ctl::*)(const Message &)>>
                  bindings)
{
    static std::array<std::once_flag, kNumRoles> built;
    static std::array<DispatchTable<Ctl>, kNumRoles> tables{};
    const auto role = static_cast<std::size_t>(r);
    std::call_once(built[role], [&] {
        DispatchTable<Ctl> &table = tables[role];
        for (const auto &[t, fn] : bindings)
            table[static_cast<int>(t)] = fn;
        const ProtocolSpec &p = ProtocolSpec::instance();
        for (int i = 0; i < kNumMsgTypes; ++i) {
            const auto t = static_cast<MsgType>(i);
            if (!p.roleAccepts(r, t))
                table[i] = nullptr;
            else if (!table[i])
                unboundHandler(r, t);
        }
    });
    return tables[role];
}

/** Run @p msg's handler from @p table on @p ctl, which plays @p r. */
template <typename Ctl>
void
dispatch(Ctl &ctl, const DispatchTable<Ctl> &table, Role r,
         const Message &msg)
{
    const auto h = table[static_cast<int>(msg.type)];
    if (!h)
        cannotReceive(r, msg);
    (ctl.*h)(msg);
}

} // namespace spec
} // namespace pimdsm

#endif // PIMDSM_PROTO_SPEC_HH
