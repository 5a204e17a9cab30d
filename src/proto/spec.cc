/**
 * @file
 * The declarative protocol table itself: message declarations plus
 * every (role, state, message) transition for the three machine
 * organizations. The simulator's dispatch (compute_base.cc,
 * home_base.cc) and the derived message metadata (message.cc) read
 * this table; pimdsm-protocheck statically analyzes it.
 *
 * The rows mirror the handler code exactly, including the race cases
 * (upgrade-after-displacement, stale sharer bits, forwards served out
 * of the writeback buffer). A row's `sends` lists every message the
 * handler *may* emit, its `next` every stable state it may leave the
 * line in; Impossible rows document why a pairing cannot occur in a
 * fault-free run and back the controllers' panic paths.
 */

#include "proto/spec.hh"

#include <utility>

#include "sim/log.hh"

namespace pimdsm
{
namespace spec
{

const char *
roleName(Role r)
{
    switch (r) {
      case Role::AggCompute:
        return "AggCompute";
      case Role::ComaCompute:
        return "ComaCompute";
      case Role::NumaCompute:
        return "NumaCompute";
      case Role::AggHome:
        return "AggHome";
      case Role::ComaHome:
        return "ComaHome";
      case Role::NumaHome:
        return "NumaHome";
    }
    return "?";
}

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid:
        return "Invalid";
      case LineState::Shared:
        return "Shared";
      case LineState::SharedMaster:
        return "SharedMaster";
      case LineState::Dirty:
        return "Dirty";
      case LineState::HomeUncached:
        return "HomeUncached";
      case LineState::HomeShared:
        return "HomeShared";
      case LineState::HomeDirty:
        return "HomeDirty";
    }
    return "?";
}

const char *
vnName(Vn v)
{
    switch (v) {
      case Vn::Request:
        return "Request";
      case Vn::Forward:
        return "Forward";
      case Vn::Response:
        return "Response";
      case Vn::Completion:
        return "Completion";
    }
    return "?";
}

const char *
costKeyName(CostKey k)
{
    switch (k) {
      case CostKey::None:
        return "None";
      case CostKey::Read:
        return "Read";
      case CostKey::ReadEx:
        return "ReadEx";
      case CostKey::WriteBack:
        return "WriteBack";
      case CostKey::Ack:
        return "Ack";
      case CostKey::MsgEngine:
        return "MsgEngine";
      case CostKey::CimScan:
        return "CimScan";
    }
    return "?";
}

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Handled:
        return "Handled";
      case Outcome::Ignored:
        return "Ignored";
      case Outcome::Impossible:
        return "Impossible";
    }
    return "?";
}

bool
resolveCostKey(CostKey key, const MachineConfig &cfg, Tick &latency,
               Tick &occupancy)
{
    const HandlerCosts &c = cfg.handlers;
    switch (key) {
      case CostKey::Read:
        latency = c.readLatency;
        occupancy = c.readOccupancy;
        return true;
      case CostKey::ReadEx:
        latency = c.readExLatency;
        occupancy = c.readExOccupancy;
        return true;
      case CostKey::WriteBack:
        latency = c.writeBackLatency;
        occupancy = c.writeBackOccupancy;
        return true;
      case CostKey::Ack:
        latency = c.ackLatency;
        occupancy = c.ackOccupancy;
        return true;
      case CostKey::MsgEngine:
        latency = c.msgEngineLatency;
        occupancy = c.msgEngineLatency;
        return true;
      case CostKey::CimScan:
        latency = cfg.dnode.cimPerRecordCost;
        occupancy = cfg.dnode.cimPerRecordCost;
        return true;
      case CostKey::None:
        return false;
    }
    return false;
}

// ----------------------------------------------------------------------
// Transition builders.
// ----------------------------------------------------------------------

Transition &
Transition::send(MsgType t, Role target)
{
    SendSpec s;
    s.type = t;
    s.to = target;
    sends.push_back(s);
    return *this;
}

Transition &
Transition::sendEvict(MsgType t, Role target)
{
    SendSpec s;
    s.type = t;
    s.to = target;
    s.evict = true;
    sends.push_back(s);
    return *this;
}

Transition &
Transition::sendBounded(MsgType t, Role target)
{
    SendSpec s;
    s.type = t;
    s.to = target;
    s.boundedRetry = true;
    sends.push_back(s);
    return *this;
}

Transition &
Transition::to(LineState s)
{
    next.push_back(s);
    return *this;
}

Transition &
Transition::withCost(CostKey k)
{
    cost = k;
    return *this;
}

Transition &
Transition::why(const char *text)
{
    note = text;
    return *this;
}

// ----------------------------------------------------------------------
// ProtocolSpec plumbing.
// ----------------------------------------------------------------------

void
ProtocolSpec::declareMsg(MsgType t, MsgClass cls, Vn vn, const char *doc,
                         bool sink)
{
    if (decls_.size() < static_cast<std::size_t>(kNumMsgTypes))
        decls_.resize(kNumMsgTypes);
    MessageDecl &d = decls_[static_cast<int>(t)];
    if (d.declared)
        panic(std::string("duplicate message declaration: ") +
              msgTypeName(t));
    d.type = t;
    d.cls = cls;
    d.vn = vn;
    d.sink = sink;
    d.doc = doc;
    d.declared = true;
}

Transition &
ProtocolSpec::on(Role r, LineState s, MsgType t)
{
    Transition tr;
    tr.role = r;
    tr.state = s;
    tr.msg = t;
    tr.outcome = Outcome::Handled;
    transitions_.push_back(std::move(tr));
    return transitions_.back();
}

Transition &
ProtocolSpec::ignore(Role r, LineState s, MsgType t, const char *reason)
{
    Transition &tr = on(r, s, t);
    tr.outcome = Outcome::Ignored;
    tr.note = reason;
    return tr;
}

Transition &
ProtocolSpec::impossible(Role r, LineState s, MsgType t,
                         const char *reason)
{
    Transition &tr = on(r, s, t);
    tr.outcome = Outcome::Impossible;
    tr.note = reason;
    return tr;
}

void
ProtocolSpec::impossibleAll(Role r, MsgType t, const char *reason)
{
    for (LineState s : statesOf(r))
        impossible(r, s, t, reason);
}

bool
ProtocolSpec::remove(Role r, LineState s, MsgType t)
{
    for (auto it = transitions_.begin(); it != transitions_.end(); ++it) {
        if (it->role == r && it->state == s && it->msg == t) {
            transitions_.erase(it);
            return true;
        }
    }
    return false;
}

const MessageDecl &
ProtocolSpec::decl(MsgType t) const
{
    const auto i = static_cast<std::size_t>(t);
    if (i >= decls_.size())
        panic(std::string("undeclared message type: ") + msgTypeName(t));
    return decls_[i];
}

MessageDecl &
ProtocolSpec::decl(MsgType t)
{
    if (decls_.size() < static_cast<std::size_t>(kNumMsgTypes))
        decls_.resize(kNumMsgTypes);
    return decls_[static_cast<int>(t)];
}

const Transition *
ProtocolSpec::find(Role r, LineState s, MsgType t) const
{
    for (const Transition &tr : transitions_) {
        if (tr.role == r && tr.state == s && tr.msg == t)
            return &tr;
    }
    return nullptr;
}

Transition *
ProtocolSpec::find(Role r, LineState s, MsgType t)
{
    return const_cast<Transition *>(
        static_cast<const ProtocolSpec *>(this)->find(r, s, t));
}

bool
ProtocolSpec::roleAccepts(Role r, MsgType t) const
{
    for (const Transition &tr : transitions_) {
        if (tr.role == r && tr.msg == t &&
            tr.outcome != Outcome::Impossible)
            return true;
    }
    return false;
}

std::string
ProtocolSpec::impossibleReason(Role r, MsgType t) const
{
    for (const Transition &tr : transitions_) {
        if (tr.role == r && tr.msg == t &&
            tr.outcome == Outcome::Impossible && !tr.note.empty())
            return tr.note;
    }
    return "no spec entry";
}

bool
ProtocolSpec::boundForHome(MsgType t) const
{
    return roleAccepts(Role::AggHome, t) ||
           roleAccepts(Role::ComaHome, t) ||
           roleAccepts(Role::NumaHome, t);
}

MsgClass
ProtocolSpec::classOf(MsgType t) const
{
    const MessageDecl &d = decl(t);
    if (!d.declared)
        panic(std::string("classOf on undeclared message: ") +
              msgTypeName(t));
    return d.cls;
}

const std::vector<LineState> &
ProtocolSpec::statesOf(Role r)
{
    static const std::vector<LineState> compute = {
        LineState::Invalid, LineState::Shared, LineState::SharedMaster,
        LineState::Dirty};
    // CC-NUMA nodes never hold mastership: the home always backs the
    // line, and a forwarded read downgrades the owner to plain Shared.
    static const std::vector<LineState> numaCompute = {
        LineState::Invalid, LineState::Shared, LineState::Dirty};
    static const std::vector<LineState> home = {
        LineState::HomeUncached, LineState::HomeShared,
        LineState::HomeDirty};
    if (r == Role::NumaCompute)
        return numaCompute;
    return roleIsCompute(r) ? compute : home;
}

LineState
ProtocolSpec::initialStateOf(Role r)
{
    return roleIsCompute(r) ? LineState::Invalid
                            : LineState::HomeUncached;
}

const std::vector<Role> &
ProtocolSpec::rolesOfArch(ArchKind arch)
{
    static const std::vector<Role> agg = {Role::AggCompute,
                                          Role::AggHome};
    static const std::vector<Role> coma = {Role::ComaCompute,
                                           Role::ComaHome};
    static const std::vector<Role> numa = {Role::NumaCompute,
                                           Role::NumaHome};
    switch (arch) {
      case ArchKind::Agg:
        return agg;
      case ArchKind::Coma:
        return coma;
      case ArchKind::Numa:
        return numa;
    }
    return agg;
}

// ----------------------------------------------------------------------
// Message declarations.
// ----------------------------------------------------------------------

namespace
{

void
registerMessages(ProtocolSpec &p)
{
    using MT = MsgType;
    using MC = MsgClass;

    p.declareMsg(MT::ReadReq, MC::Request, Vn::Request,
                 "read miss; requester -> home");
    p.declareMsg(MT::ReadExReq, MC::Request, Vn::Request,
                 "write miss (data + exclusivity); requester -> home");
    p.declareMsg(MT::UpgradeReq, MC::Request, Vn::Request,
                 "write hit on a Shared copy; requester -> home");
    p.declareMsg(MT::WriteBack, MC::WriteBack, Vn::Request,
                 "displaced Dirty/SharedMaster line (carries data)");
    p.declareMsg(MT::TxnDone, MC::Ack, Vn::Completion,
                 "requester's completion ack; unblocks the home line",
                 /*sink=*/true);
    p.declareMsg(MT::ReadReply, MC::Reply, Vn::Response,
                 "data, shared (grantsMaster for the first reader)");
    p.declareMsg(MT::ReadExReply, MC::Reply, Vn::Response,
                 "data + exclusivity; ackCount invalidations pending");
    p.declareMsg(MT::UpgradeReply, MC::Reply, Vn::Response,
                 "exclusivity without data; ackCount pending");
    p.declareMsg(MT::Fwd, MC::Peer, Vn::Forward,
                 "home forwards a Read/ReadEx to the owner/master");
    p.declareMsg(MT::Inval, MC::Peer, Vn::Forward,
                 "invalidate; ack goes to msg.requester");
    p.declareMsg(MT::WriteBackAck, MC::WriteBack, Vn::Response,
                 "home settled a displaced line");
    p.declareMsg(MT::Inject, MC::Peer, Vn::Forward,
                 "COMA: take this displaced master line (carries data)");
    p.declareMsg(MT::MasterGrant, MC::Peer, Vn::Forward,
                 "COMA: promote your Shared copy to master");
    p.declareMsg(MT::FwdReply, MC::Peer, Vn::Response,
                 "owner's data to the original requester");
    // Peer, not WriteBack: it rides the forward flow with no
    // retransmitter (no ack, no pending record), and for a masterless
    // home (NUMA) it is the only path the latest data takes back — a
    // drop would strand every future read miss on the line.
    p.declareMsg(MT::OwnerToHome, MC::Peer, Vn::Request,
                 "owner's sharing writeback to the home",
                 /*sink=*/true);
    p.declareMsg(MT::InvalAck, MC::Ack, Vn::Response,
                 "sharer's invalidation ack to the requester");
    p.declareMsg(MT::InjectAck, MC::Peer, Vn::Response,
                 "provider accepted an injected line (to home)");
    p.declareMsg(MT::InjectNack, MC::Peer, Vn::Response,
                 "provider refused an injection (to home)");
    p.declareMsg(MT::CimReq, MC::Cim, Vn::Request,
                 "P-node asks a D-node to scan records (Section 2.4)");
    p.declareMsg(MT::CimReply, MC::Cim, Vn::Response,
                 "D-node returns matching record pointers");
}

// ----------------------------------------------------------------------
// Compute-side transitions (shared by the three organizations).
// ----------------------------------------------------------------------

void
buildComputeRole(ProtocolSpec &p, Role c, Role h)
{
    using MT = MsgType;
    using LS = LineState;

    const bool coma = c == Role::ComaCompute;
    const bool numa = c == Role::NumaCompute;
    // NUMA nodes never hold mastership; AGG/COMA first readers do.
    const bool masters = !numa;
    // COMA keeps no home copy, so owners skip the sharing writeback.
    const bool sharingWb = !coma;
    const LS downgrade = numa ? LS::Shared : LS::SharedMaster;

    // --- ReadReply -----------------------------------------------------
    {
        Transition &t =
            p.on(c, LS::Invalid, MT::ReadReply)
                .withCost(CostKey::MsgEngine)
                .to(LS::Shared)
                .send(MT::TxnDone, h)
                .sendEvict(MT::WriteBack, h)
                .why("install the granted line; TxnDone only when the "
                     "home stayed blocked (forwarded/invalidating txn)");
        if (masters)
            t.to(LS::SharedMaster);
    }
    for (LS s : {LS::Shared, LS::SharedMaster, LS::Dirty}) {
        if (s == LS::SharedMaster && !masters)
            continue;
        p.impossible(c, s, MT::ReadReply,
                     "read misses are only issued from Invalid and the "
                     "MSHR blocks a second transaction on the line");
    }

    // --- ReadExReply ---------------------------------------------------
    for (LS s : {LS::Invalid, LS::Shared, LS::SharedMaster}) {
        if (s == LS::SharedMaster && !masters)
            continue;
        p.on(c, s, MT::ReadExReply)
            .withCost(CostKey::MsgEngine)
            .to(LS::Dirty)
            .send(MT::TxnDone, h)
            .sendEvict(MT::WriteBack, h)
            .why(s == LS::Invalid
                     ? "write-miss data grant; install Dirty"
                     : "upgrade answered with data (home saw us as a "
                       "non-sharer or routed via the master)");
    }
    p.impossible(c, LS::Dirty, MT::ReadExReply,
                 "the owner never has a write outstanding on its line");

    // --- UpgradeReply --------------------------------------------------
    for (LS s : {LS::Invalid, LS::Shared, LS::SharedMaster}) {
        if (s == LS::SharedMaster && !masters)
            continue;
        p.on(c, s, MT::UpgradeReply)
            .withCost(CostKey::MsgEngine)
            .to(LS::Dirty)
            .send(MT::TxnDone, h)
            .sendEvict(MT::WriteBack, h)
            .why(s == LS::Invalid
                     ? "our Shared copy was displaced while the upgrade "
                       "was in flight; reconstitute the line locally"
                     : "dataless exclusivity grant");
    }
    p.impossible(c, LS::Dirty, MT::UpgradeReply,
                 "the owner never has a write outstanding on its line");

    // --- FwdReply ------------------------------------------------------
    p.on(c, LS::Invalid, MT::FwdReply)
        .withCost(CostKey::MsgEngine)
        .to(LS::Shared)
        .to(LS::Dirty)
        .send(MT::TxnDone, h)
        .sendEvict(MT::WriteBack, h)
        .why("owner-supplied data for our outstanding miss");
    p.on(c, LS::Shared, MT::FwdReply)
        .withCost(CostKey::MsgEngine)
        .to(LS::Dirty)
        .send(MT::TxnDone, h)
        .sendEvict(MT::WriteBack, h)
        .why("our upgrade was routed via the master copy");
    if (masters)
        p.impossible(c, LS::SharedMaster, MT::FwdReply,
                     "the master cannot be the forward target of its "
                     "own request");
    p.impossible(c, LS::Dirty, MT::FwdReply,
                 "the owner never has a miss outstanding on its line");

    // --- InvalAck ------------------------------------------------------
    p.on(c, LS::Invalid, MT::InvalAck)
        .withCost(CostKey::MsgEngine)
        .to(LS::Invalid)
        .to(LS::Dirty)
        .send(MT::TxnDone, h)
        .sendEvict(MT::WriteBack, h)
        .why("ack for our outstanding write miss; the last one "
             "completes the transaction");
    p.on(c, LS::Shared, MT::InvalAck)
        .withCost(CostKey::MsgEngine)
        .to(LS::Shared)
        .to(LS::Dirty)
        .send(MT::TxnDone, h)
        .sendEvict(MT::WriteBack, h)
        .why("ack for our outstanding upgrade");
    if (masters)
        p.on(c, LS::SharedMaster, MT::InvalAck)
            .withCost(CostKey::MsgEngine)
            .to(LS::SharedMaster)
            .to(LS::Dirty)
            .send(MT::TxnDone, h)
            .sendEvict(MT::WriteBack, h)
            .why("ack for our outstanding upgrade");
    p.impossible(c, LS::Dirty, MT::InvalAck,
                 "completion installs Dirty only after the final ack");

    // --- Inval ---------------------------------------------------------
    for (LS s : {LS::Invalid, LS::Shared, LS::SharedMaster}) {
        if (s == LS::SharedMaster && !masters)
            continue;
        p.on(c, s, MT::Inval)
            .withCost(CostKey::MsgEngine)
            .to(LS::Invalid)
            .send(MT::InvalAck, c)
            .why(s == LS::Invalid
                     ? "stale sharer bit: the copy was already "
                       "displaced; ack anyway"
                     : "drop the copy and ack the writing requester");
    }
    p.impossible(c, LS::Dirty, MT::Inval,
                 "the home forwards to a dirty owner, never "
                 "invalidates it");

    // --- Fwd -----------------------------------------------------------
    {
        Transition &t = p.on(c, LS::Dirty, MT::Fwd)
                            .withCost(CostKey::MsgEngine)
                            .to(downgrade)
                            .to(LS::Invalid)
                            .send(MT::FwdReply, c)
                            .why("serve the forwarded read (downgrade) "
                                 "or write (invalidate) from our copy");
        if (sharingWb)
            t.send(MT::OwnerToHome, h);
    }
    if (masters) {
        Transition &t =
            p.on(c, LS::SharedMaster, MT::Fwd)
                .withCost(CostKey::MsgEngine)
                .to(LS::SharedMaster)
                .to(LS::Invalid)
                .send(MT::FwdReply, c)
                .why("the master serves forwarded reads and writes "
                     "after the home dropped its copy");
        if (sharingWb)
            t.send(MT::OwnerToHome, h);
    }
    {
        Transition &t =
            p.on(c, LS::Invalid, MT::Fwd)
                .withCost(CostKey::MsgEngine)
                .to(LS::Invalid)
                .send(MT::FwdReply, c)
                .why("our copy is in the writeback buffer (displaced "
                     "but unacknowledged); serve from there");
        if (sharingWb)
            t.send(MT::OwnerToHome, h);
    }
    p.impossible(c, LS::Shared, MT::Fwd,
                 "the home never forwards to a plain sharer");

    // --- WriteBackAck --------------------------------------------------
    p.on(c, LS::Invalid, MT::WriteBackAck)
        .withCost(CostKey::MsgEngine)
        .to(LS::Invalid)
        .why("displaced line settled at home; blocked accesses on the "
             "line re-issue as fresh processor requests");
    for (LS s : {LS::Shared, LS::SharedMaster, LS::Dirty}) {
        if (s == LS::SharedMaster && !masters)
            continue;
        p.impossible(c, s, MT::WriteBackAck,
                     "the line cannot be re-acquired while its "
                     "writeback is pending");
    }

    // --- Inject / MasterGrant (COMA only) ------------------------------
    if (coma) {
        p.on(c, LS::Invalid, MT::Inject)
            .withCost(CostKey::MsgEngine)
            .to(LS::SharedMaster)
            .to(LS::Dirty)
            .to(LS::Invalid)
            .send(MT::InjectAck, h)
            .send(MT::InjectNack, h)
            .why("accept the displaced line into a free/shared way, or "
                 "refuse when the set is full of owned lines");
        p.on(c, LS::Shared, MT::Inject)
            .withCost(CostKey::MsgEngine)
            .to(LS::Shared)
            .to(LS::SharedMaster)
            .to(LS::Dirty)
            .send(MT::InjectAck, h)
            .send(MT::InjectNack, h)
            .why("our Shared copy upgrades to the injected "
                 "master/dirty line, or we refuse on a conflict");
        p.impossible(c, LS::SharedMaster, MT::Inject,
                     "the home never injects at the line's own master");
        p.impossible(c, LS::Dirty, MT::Inject,
                     "the home never injects at the line's own owner");

        p.on(c, LS::Shared, MT::MasterGrant)
            .withCost(CostKey::MsgEngine)
            .to(LS::SharedMaster)
            .send(MT::InjectAck, h)
            .why("promote our Shared copy to master");
        p.on(c, LS::Invalid, MT::MasterGrant)
            .withCost(CostKey::MsgEngine)
            .to(LS::Invalid)
            .send(MT::InjectNack, h)
            .why("our copy was silently dropped; the home must pick "
                 "another candidate");
        p.impossible(c, LS::SharedMaster, MT::MasterGrant,
                     "the master is never granted mastership again");
        p.impossible(c, LS::Dirty, MT::MasterGrant,
                     "grant candidates come from the sharer set");
    } else {
        p.impossibleAll(c, MT::Inject,
                        "only COMA homes inject displaced lines");
        p.impossibleAll(c, MT::MasterGrant,
                        "only COMA homes transfer mastership");
    }

    // --- CimReply ------------------------------------------------------
    if (c == Role::AggCompute) {
        for (LS s : p.statesOf(c)) {
            p.on(c, s, MT::CimReply)
                .withCost(CostKey::MsgEngine)
                .why("line-state independent: completes the oldest "
                     "outstanding CIM offload");
        }
    } else {
        p.impossibleAll(c, MT::CimReply,
                        "computation in memory is an AGG D-node "
                        "service");
    }

    // --- Home-bound types never reach a compute controller -------------
    const char *routed = "home-bound message; the mesh routes it to "
                         "the node's home controller";
    for (MT t : {MT::ReadReq, MT::ReadExReq, MT::UpgradeReq,
                 MT::WriteBack, MT::TxnDone, MT::OwnerToHome,
                 MT::InjectAck, MT::InjectNack, MT::CimReq})
        p.impossibleAll(c, t, routed);
}

// ----------------------------------------------------------------------
// Home-side transitions.
// ----------------------------------------------------------------------

/** Rows shared by all three homes: requests, TxnDone. */
void
buildHomeRequests(ProtocolSpec &p, Role home, Role c, bool masters)
{
    using MT = MsgType;
    using LS = LineState;

    // --- ReadReq -------------------------------------------------------
    p.on(home, LS::HomeUncached, MT::ReadReq)
        .withCost(CostKey::Read)
        .to(LS::HomeShared)
        .send(MT::ReadReply, c)
        .why(masters ? "cold read: grant a master copy to the requester"
                     : "cold read: zero-fill home storage and reply");
    {
        Transition &t = p.on(home, LS::HomeShared, MT::ReadReq)
                            .withCost(CostKey::Read)
                            .to(LS::HomeShared)
                            .send(MT::ReadReply, c)
                            .why("serve from the home copy, or forward "
                                 "to the master when the home dropped "
                                 "its copy");
        if (masters)
            t.send(MT::Fwd, c);
    }
    p.on(home, LS::HomeDirty, MT::ReadReq)
        .withCost(CostKey::Read)
        .to(LS::HomeShared)
        .send(MT::Fwd, c)
        .send(MT::ReadReply, c)
        .why("3-hop: the owner supplies the data (ReadReply only for "
             "the idempotent re-grant of a lost reply under faults)");

    // --- ReadExReq -----------------------------------------------------
    p.on(home, LS::HomeUncached, MT::ReadExReq)
        .withCost(CostKey::ReadEx)
        .to(LS::HomeDirty)
        .send(MT::ReadExReply, c)
        .why("cold write: grant a zero-filled line");
    {
        Transition &t = p.on(home, LS::HomeShared, MT::ReadExReq)
                            .withCost(CostKey::ReadEx)
                            .to(LS::HomeDirty)
                            .send(MT::Inval, c)
                            .send(MT::ReadExReply, c)
                            .why("invalidate every sharer and grant "
                                 "ownership (via the master's data "
                                 "when the home has none)");
        if (masters)
            t.send(MT::Fwd, c);
    }
    p.on(home, LS::HomeDirty, MT::ReadExReq)
        .withCost(CostKey::ReadEx)
        .to(LS::HomeDirty)
        .send(MT::Fwd, c)
        .send(MT::ReadExReply, c)
        .why("ownership transfer via the current owner (ReadExReply "
             "only for the idempotent re-grant under faults)");

    // --- UpgradeReq ----------------------------------------------------
    p.on(home, LS::HomeUncached, MT::UpgradeReq)
        .withCost(CostKey::ReadEx)
        .to(LS::HomeDirty)
        .send(MT::ReadExReply, c)
        .why("the requester's Shared copy raced away; serve as a full "
             "write miss");
    {
        Transition &t = p.on(home, LS::HomeShared, MT::UpgradeReq)
                            .withCost(CostKey::ReadEx)
                            .to(LS::HomeDirty)
                            .send(MT::Inval, c)
                            .send(MT::UpgradeReply, c)
                            .send(MT::ReadExReply, c)
                            .why("dataless grant to a recorded sharer; "
                                 "data grant otherwise");
        if (masters)
            t.send(MT::Fwd, c);
    }
    p.on(home, LS::HomeDirty, MT::UpgradeReq)
        .withCost(CostKey::ReadEx)
        .to(LS::HomeDirty)
        .send(MT::Fwd, c)
        .send(MT::ReadExReply, c)
        .why("a write stole the line before this upgrade serialized; "
             "route via the new owner");

    // --- TxnDone -------------------------------------------------------
    for (LS s : p.statesOf(home)) {
        p.on(home, s, MT::TxnDone)
            .withCost(CostKey::Ack)
            .why("unblock the line; queued requests drain through "
                 "their own rows");
    }

    // --- Compute-bound types never reach a home controller -------------
    const char *routed = "compute-bound message; the mesh routes it to "
                         "the node's compute controller";
    for (MT t : {MT::ReadReply, MT::ReadExReply, MT::UpgradeReply,
                 MT::Fwd, MT::Inval, MT::WriteBackAck, MT::Inject,
                 MT::MasterGrant, MT::FwdReply, MT::InvalAck,
                 MT::CimReply})
        p.impossibleAll(home, t, routed);
}

void
buildAggHome(ProtocolSpec &p)
{
    using MT = MsgType;
    using LS = LineState;
    const Role home = Role::AggHome;
    const Role c = Role::AggCompute;

    buildHomeRequests(p, home, c, /*masters=*/true);

    // --- WriteBack -----------------------------------------------------
    p.on(home, LS::HomeDirty, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .to(LS::HomeDirty)
        .send(MT::WriteBackAck, c)
        .why("absorb the owner's data; a clean-master eviction that "
             "crossed its own upgrade is stale and leaves the new "
             "owner in place");
    p.on(home, LS::HomeShared, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeShared)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .why("a displaced master copy restores the home copy; a stale "
             "sharer writeback just drops the sharer bit");
    p.on(home, LS::HomeUncached, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .why("late writeback: the transaction that took the line away "
             "already serialized; the data is superseded");

    // --- OwnerToHome ---------------------------------------------------
    p.on(home, LS::HomeShared, MT::OwnerToHome)
        .withCost(CostKey::Ack)
        .why("absorb the sharing writeback when the FreeList makes it "
             "cheap and the shared epoch is still current");
    for (LS s : {LS::HomeUncached, LS::HomeDirty}) {
        p.on(home, s, MT::OwnerToHome)
            .withCost(CostKey::Ack)
            .why("stale sharing writeback from a previous shared "
                 "epoch; dropped");
    }

    // --- CimReq --------------------------------------------------------
    for (LS s : p.statesOf(home)) {
        p.on(home, s, MT::CimReq)
            .withCost(CostKey::CimScan)
            .send(MT::CimReply, c)
            .why("scan local records and return matching pointers "
                 "(line-state independent)");
    }

    p.impossibleAll(home, MT::InjectAck,
                    "AGG homes absorb displaced lines; they never "
                    "inject");
    p.impossibleAll(home, MT::InjectNack,
                    "AGG homes absorb displaced lines; they never "
                    "inject");
}

void
buildComaHome(ProtocolSpec &p)
{
    using MT = MsgType;
    using LS = LineState;
    const Role home = Role::ComaHome;
    const Role c = Role::ComaCompute;

    buildHomeRequests(p, home, c, /*masters=*/true);

    // --- WriteBack: start an injection for the last copy ---------------
    p.on(home, LS::HomeDirty, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .to(LS::HomeDirty)
        .send(MT::WriteBackAck, c)
        .sendBounded(MT::Inject, c)
        .why("the directory keeps no data: ack the evictor, then "
             "inject the displaced line into a provider node");
    p.on(home, LS::HomeShared, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeShared)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .sendBounded(MT::MasterGrant, c)
        .sendBounded(MT::Inject, c)
        .why("a displaced master tries granting mastership to a "
             "remaining sharer before injecting");
    p.on(home, LS::HomeUncached, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .why("late writeback; the data is superseded");

    // --- Injection responses -------------------------------------------
    p.on(home, LS::HomeUncached, MT::InjectAck)
        .withCost(CostKey::Ack)
        .to(LS::HomeShared)
        .to(LS::HomeDirty)
        .why("provider took the line as master (clean) or owner "
             "(dirty); record it and unblock");
    p.on(home, LS::HomeShared, MT::InjectAck)
        .withCost(CostKey::Ack)
        .to(LS::HomeShared)
        .why("a sharer accepted the master grant");
    p.impossible(home, LS::HomeDirty, MT::InjectAck,
                 "injection only runs while the displaced line has no "
                 "owner");

    p.on(home, LS::HomeUncached, MT::InjectNack)
        .withCost(CostKey::Ack)
        .to(LS::HomeUncached)
        .sendBounded(MT::Inject, c)
        .why("provider refused; try the next one, then overflow to "
             "disk after maxProviderTries");
    p.on(home, LS::HomeShared, MT::InjectNack)
        .withCost(CostKey::Ack)
        .to(LS::HomeShared)
        .to(LS::HomeUncached)
        .sendBounded(MT::MasterGrant, c)
        .sendBounded(MT::Inject, c)
        .why("grant candidate silently dropped its copy; try the next "
             "candidate or fall back to injection");
    p.impossible(home, LS::HomeDirty, MT::InjectNack,
                 "injection only runs while the displaced line has no "
                 "owner");

    p.impossibleAll(home, MT::OwnerToHome,
                    "COMA owners never send sharing writebacks: the "
                    "home keeps no data");
    p.impossibleAll(home, MT::CimReq,
                    "computation in memory is an AGG D-node service");
}

void
buildNumaHome(ProtocolSpec &p)
{
    using MT = MsgType;
    using LS = LineState;
    const Role home = Role::NumaHome;
    const Role c = Role::NumaCompute;

    buildHomeRequests(p, home, c, /*masters=*/false);

    // --- WriteBack -----------------------------------------------------
    p.on(home, LS::HomeDirty, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .to(LS::HomeDirty)
        .send(MT::WriteBackAck, c)
        .why("absorb the owner's data into the always-backing home "
             "memory");
    p.on(home, LS::HomeShared, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeShared)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .why("stale sharer writeback; drop the sharer bit");
    p.on(home, LS::HomeUncached, MT::WriteBack)
        .withCost(CostKey::WriteBack)
        .to(LS::HomeUncached)
        .send(MT::WriteBackAck, c)
        .why("late writeback; the data is superseded");

    // --- OwnerToHome ---------------------------------------------------
    p.on(home, LS::HomeShared, MT::OwnerToHome)
        .withCost(CostKey::Ack)
        .why("downgraded owner restores the home memory copy");
    for (LS s : {LS::HomeUncached, LS::HomeDirty}) {
        p.on(home, s, MT::OwnerToHome)
            .withCost(CostKey::Ack)
            .why("stale sharing writeback from a previous shared "
                 "epoch; dropped");
    }

    p.impossibleAll(home, MT::InjectAck,
                    "NUMA homes always back lines; they never inject");
    p.impossibleAll(home, MT::InjectNack,
                    "NUMA homes always back lines; they never inject");
    p.impossibleAll(home, MT::CimReq,
                    "computation in memory is an AGG D-node service");
}

} // namespace

ProtocolSpec
ProtocolSpec::build()
{
    ProtocolSpec p;
    registerMessages(p);
    buildComputeRole(p, Role::AggCompute, Role::AggHome);
    buildComputeRole(p, Role::ComaCompute, Role::ComaHome);
    buildComputeRole(p, Role::NumaCompute, Role::NumaHome);
    buildAggHome(p);
    buildComaHome(p);
    buildNumaHome(p);
    return p;
}

const ProtocolSpec &
ProtocolSpec::instance()
{
    static const ProtocolSpec p = build();
    return p;
}

void
unboundHandler(Role r, MsgType t)
{
    panic(std::string("protocol spec accepts ") + msgTypeName(t) +
          " at " + roleName(r) + " but no " +
          (roleIsCompute(r) ? "compute" : "home") +
          " handler is bound to it");
}

void
cannotReceive(Role r, const Message &msg)
{
    panic(std::string(roleName(r)) + " cannot receive " + msg.toString() +
          ": " + ProtocolSpec::instance().impossibleReason(r, msg.type));
}

} // namespace spec
} // namespace pimdsm
