#include "sim/fault.hh"

#include <string>

#include "sim/log.hh"
#include "sim/stats.hh"

namespace pimdsm
{

const char *
msgClassName(MsgClass c)
{
    switch (c) {
      case MsgClass::Request:
        return "request";
      case MsgClass::Reply:
        return "reply";
      case MsgClass::WriteBack:
        return "writeback";
      case MsgClass::Ack:
        return "ack";
      case MsgClass::Peer:
        return "peer";
      case MsgClass::Cim:
        return "cim";
      case MsgClass::Immune:
        return "immune";
    }
    return "?";
}

const char *
faultDomainName(FaultDomain d)
{
    switch (d) {
      case FaultDomain::Rates:
        return "rates";
      case FaultDomain::DNodeDeath:
        return "dnode_death";
      case FaultDomain::PNodeDeath:
        return "pnode_death";
      case FaultDomain::LinkDeath:
        return "link_death";
      case FaultDomain::Partition:
        return "partition";
    }
    return "?";
}

const char *
faultActionName(FaultAction a)
{
    switch (a) {
      case FaultAction::Deliver:
        return "deliver";
      case FaultAction::Drop:
        return "drop";
      case FaultAction::Delay:
        return "delay";
      case FaultAction::Duplicate:
        return "duplicate";
    }
    return "?";
}

bool
msgClassDroppable(MsgClass c)
{
    // A lost request or reply is re-driven by the requester's timeout;
    // a lost writeback (or its ack) is re-driven by the WB retry path.
    // Everything else — forwards, invalidations, TxnDone — is part of
    // a home-blocked flow with no retransmitter, so losing it would
    // wedge the line with no recovery story.
    return c == MsgClass::Request || c == MsgClass::Reply ||
           c == MsgClass::WriteBack;
}

bool
msgClassDupSafe(MsgClass c)
{
    // Requests are dedup'd at the home by <line, requester, txn seq>;
    // replies and WB acks are dedup'd at the MSHR; duplicate TxnDone /
    // InvalAck are absorbed by the spurious-message guards. Peer and
    // CIM flows keep exactly-once bookkeeping (injection walks, CIM
    // callback queues), so duplicates there are demoted.
    return c == MsgClass::Request || c == MsgClass::Reply ||
           c == MsgClass::WriteBack || c == MsgClass::Ack;
}

bool
FaultConfig::enabled() const
{
    for (const auto &r : rates) {
        if (r.drop > 0.0 || r.delay > 0.0 || r.duplicate > 0.0 ||
            r.dropNth > 0)
            return true;
    }
    return armRecovery || !schedule.empty();
}

void
FaultConfig::setUniformDropRate(double p)
{
    rates[static_cast<int>(MsgClass::Request)].drop = p;
    rates[static_cast<int>(MsgClass::Reply)].drop = p;
    rates[static_cast<int>(MsgClass::WriteBack)].drop = p;
}

void
FaultConfig::validate() const
{
    for (const auto &r : rates) {
        if (r.drop < 0.0 || r.drop > 1.0 || r.delay < 0.0 ||
            r.delay > 1.0 || r.duplicate < 0.0 || r.duplicate > 1.0)
            fatal("fault probabilities must be in [0, 1]");
    }
    if (backoffFactor < 1.0)
        fatal("fault backoff factor must be >= 1");
    if (retryLimit < 0)
        fatal("fault retry limit must be >= 0");
    if (sweepInterval <= 0)
        fatal("fault sweep interval must be positive");
    if (timeoutTicks <= 0)
        fatal("fault timeout must be positive");
}

void
FaultPlan::init(const FaultConfig &cfg, StatSet *stats)
{
    cfg.validate();
    cfg_ = cfg;
    stats_ = stats;
    rng_ = Rng(cfg.seed);
    for (auto &s : seen_)
        s = 0;
    active_ = cfg.enabled();
}

FaultDecision
FaultPlan::decide(MsgClass cls)
{
    FaultDecision d;
    if (!active_ || cls == MsgClass::Immune)
        return d;

    const int ci = static_cast<int>(cls);
    const ClassFaultRates &r = cfg_.rates[ci];
    const std::uint64_t nth = ++seen_[ci];

    bool drop = r.dropNth != 0 && nth == r.dropNth;
    // One RNG draw per knob in a fixed order keeps the stream stable
    // when individual rates change.
    drop = rng_.chance(r.drop) || drop;
    const bool dup = rng_.chance(r.duplicate);
    const bool delay = rng_.chance(r.delay);

    if (drop) {
        if (msgClassDroppable(cls)) {
            d.action = FaultAction::Drop;
            stats_->add("fault.net.drop");
            stats_->add(std::string("fault.net.drop.") +
                        msgClassName(cls));
        } else {
            // Unrecoverable class: demote to a delay.
            d.action = FaultAction::Delay;
            d.extraDelay = cfg_.delayTicks;
            stats_->add("fault.net.drop_demoted");
        }
        return d;
    }
    if (dup) {
        if (msgClassDupSafe(cls)) {
            d.action = FaultAction::Duplicate;
            stats_->add("fault.net.dup");
        } else {
            stats_->add("fault.net.dup_demoted");
        }
        return d;
    }
    if (delay) {
        d.action = FaultAction::Delay;
        d.extraDelay = cfg_.delayTicks;
        stats_->add("fault.net.delay");
    }
    return d;
}

} // namespace pimdsm
