/**
 * @file
 * The traced run: the same simulation runWorkload performs, composed
 * from the layers' public calls with a span around each call, followed
 * by standalone replays of the recorded cache-access and mesh-send
 * streams. Spans live in memory and are written once, at the end, as
 * Chrome trace-event JSON (chrome://tracing and Perfetto open it
 * offline).
 *
 * Only fault-free, non-reconfiguring runs on the serial kernel are
 * composed here, which is what every benchmark workload is; the loop
 * below mirrors that path of runWorkload call for call, so the traced
 * RunResult must hash to the untraced digest.
 */

#include "bench.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "core/processor.hh"
#include "core/sync.hh"
#include "machine/machine.hh"
#include "mem/cache.hh"
#include "net/mesh.hh"
#include "sim/log.hh"

namespace perfbench
{

namespace
{

struct Span
{
    std::string layer;
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::map<std::string, double> args;

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

/** In-memory span recorder for the benchmark's thread of control. */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    int
    begin(const std::string &layer, const std::string &name)
    {
        Span s;
        s.layer = layer;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.startNs = now();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close @p idx and any span still open inside it. */
    double
    end(int idx)
    {
        const std::int64_t t = now();
        while (!open_.empty() && open_.back() >= idx) {
            span(open_.back()).endNs = t;
            open_.pop_back();
        }
        return span(idx).seconds();
    }

    /**
     * A child of the closed span @p parent standing for many short
     * calls that were timed but not recorded one by one. It starts
     * with the parent and lasts their total time, so self times stay
     * additive.
     */
    void
    aggregate(int parent, const std::string &layer, const std::string &name,
              std::int64_t ns, std::map<std::string, double> args)
    {
        const Span &p = span(parent);
        Span s;
        s.layer = layer;
        s.name = name;
        s.parent = parent;
        s.startNs = p.startNs;
        s.endNs = p.startNs + std::min(ns, p.endNs - p.startNs);
        s.args = std::move(args);
        s.args["aggregated"] = 1;
        spans_.push_back(std::move(s));
    }

    Span &span(int idx) { return spans_[static_cast<std::size_t>(idx)]; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** A span closed at scope exit unless close() ran first. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &layer, const std::string &name)
        : t_(t), idx_(t.begin(layer, name))
    {
    }

    ~ScopedSpan()
    {
        if (open_)
            t_.end(idx_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close now; returns the span's seconds. */
    double
    close()
    {
        open_ = false;
        return t_.end(idx_);
    }

    int index() const { return idx_; }
    std::map<std::string, double> &args() { return t_.span(idx_).args; }

  private:
    Tracer &t_;
    int idx_;
    bool open_ = true;
};

/** Cap on recorded loads/stores per thread (bounds replay memory). */
constexpr std::size_t kAccessCapPerThread = 1 << 16;
/** Cap on recorded mesh sends. */
constexpr std::size_t kSendCap = 1 << 21;

/** What the wrapped streams of one application thread saw. */
struct StreamCounts
{
    std::int64_t genNs = 0;
    std::uint64_t ops = 0;
    /** Recorded accesses: address << 1 | is-store. */
    std::vector<std::uint64_t> accesses;
};

/** OpStream wrapper: times next() and records loads and stores. */
class TimedStream final : public OpStream
{
  public:
    TimedStream(std::unique_ptr<OpStream> inner, StreamCounts &counts)
        : inner_(std::move(inner)), counts_(counts)
    {
    }

    bool
    next(Op &op) override
    {
        const auto t0 = Clock::now();
        const bool ok = inner_->next(op);
        counts_.genNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count();
        if (!ok)
            return false;
        ++counts_.ops;
        if ((op.kind == Op::Kind::Load || op.kind == Op::Kind::Store) &&
            counts_.accesses.size() < kAccessCapPerThread) {
            counts_.accesses.push_back(
                op.addr << 1 | (op.kind == Op::Kind::Store ? 1u : 0u));
        }
        return true;
    }

  private:
    std::unique_ptr<OpStream> inner_;
    StreamCounts &counts_;
};

struct SendRecord
{
    Tick tick;
    NodeId src;
    NodeId dst;
    int payload;
    MsgClass cls;
};

constexpr std::size_t kNumMsgClasses =
    static_cast<std::size_t>(MsgClass::Immune) + 1;

/** Every send counted by class; cross-node ones kept for the replay. */
struct SendLog
{
    std::array<std::uint64_t, kNumMsgClasses> byClass{};
    std::vector<SendRecord> sends;
};

std::string
fmtUs(std::int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return buf;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::map<std::string, double> &self_by_layer,
                 const std::map<std::string, std::string> &provenance)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace file " + path);
    os << std::setprecision(17);
    os << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
    bool first = true;
    for (const auto &[k, v] : provenance) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << jsonString(v);
        first = false;
    }
    os << "},\n\"layerSelfSeconds\": {";
    first = true;
    for (const auto &[k, v] : self_by_layer) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << v;
        first = false;
    }
    os << "},\n\"traceEvents\": [\n"
       << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 1, \"args\": {\"name\": \"pimdsm perfbench\"}}";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << ",\n{\"name\": " << jsonString(s.name)
           << ", \"cat\": " << jsonString(s.layer)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << fmtUs(s.startNs) << ", \"dur\": " << fmtUs(s.endNs - s.startNs)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent;
        for (const auto &[k, v] : s.args)
            os << ", " << jsonString(k) << ": " << v;
        os << "}}";
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("short write to trace file " + path);
}

/** Replay the recorded loads/stores into standalone L1/L2 caches. */
double
replayCaches(Tracer &tr, const MachineConfig &cfg,
             const std::vector<StreamCounts> &threads)
{
    ScopedSpan sp(tr, "mem", "replay accesses into L1/L2 Cache");
    std::uint64_t accesses = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    for (const auto &t : threads) {
        Cache l1("replay.l1", cfg.l1);
        Cache l2("replay.l2", cfg.l2);
        for (const std::uint64_t rec : t.accesses) {
            const Addr a = rec >> 1;
            const bool write = (rec & 1) != 0;
            ++accesses;
            if (l1.access(a, write)) {
                ++l1_hits;
                continue;
            }
            if (l2.access(a, write))
                ++l2_hits;
            else
                l2.fill(a, write);
            l1.fill(a, write);
        }
    }
    sp.args()["accesses"] = static_cast<double>(accesses);
    sp.args()["l1_hits"] = static_cast<double>(l1_hits);
    sp.args()["l2_hits"] = static_cast<double>(l2_hits);
    const double secs = sp.close();
    return accesses ? secs * 1e9 / static_cast<double>(accesses) : 0.0;
}

/** Replay the recorded cross-node sends into a standalone mesh laid out
 *  like the machine's. */
double
replaySends(Tracer &tr, const MachineConfig &cfg, const Mesh &placed,
            std::vector<SendRecord> sends)
{
    ScopedSpan sp(tr, "net", "replay sends into Mesh + EventQueue");
    std::stable_sort(sends.begin(), sends.end(),
                     [](const SendRecord &a, const SendRecord &b) {
                         return a.tick < b.tick;
                     });
    EventQueue eq;
    Mesh mesh(eq, cfg.net, cfg.totalNodes());
    std::vector<int> slot_to_node(
        static_cast<std::size_t>(cfg.net.meshX * cfg.net.meshY), -1);
    for (NodeId n = 0; n < cfg.totalNodes(); ++n)
        slot_to_node[static_cast<std::size_t>(placed.nodeSlot(n))] = n;
    mesh.setPlacement(slot_to_node);
    std::uint64_t delivered = 0;
    for (const SendRecord &s : sends) {
        if (s.tick > eq.curTick())
            eq.runUntil(s.tick);
        mesh.send(s.src, s.dst, s.payload, [&delivered] { ++delivered; },
                  s.cls);
    }
    eq.run();
    if (delivered != sends.size())
        throw std::runtime_error("mesh replay lost messages");
    sp.args()["sends"] = static_cast<double>(sends.size());
    sp.args()["link_wait_cyc"] = static_cast<double>(mesh.totalLinkWait());
    const double secs = sp.close();
    return sends.empty() ? 0.0
                         : secs * 1e9 / static_cast<double>(sends.size());
}

double
counter(const RunResult &r, const std::string &name)
{
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : it->second;
}

} // namespace

TracedResult
tracedRun(const BenchWorkload &bw, std::uint64_t seed,
          const std::string &trace_path,
          const std::map<std::string, std::string> &provenance)
{
    Tracer tr;
    TracedResult out;
    auto &metrics = out.metrics;
    RunResult &result = out.result;
    ScopedSpan root(tr, "bench", "traced run " + bw.name);

    std::unique_ptr<PermutedWorkload> wl;
    MachineConfig cfg;
    {
        ScopedSpan sp(tr, "workload", "makeWorkload + buildConfig");
        wl = makeBenchWorkload(bw, seed);
        cfg = makeBenchConfig(bw, *wl, seed, /*oracle=*/false);
    }
    const RunOptions opts = makeRunOptions(/*oracle=*/false);

    std::vector<StreamCounts> counts(kThreads);
    SendLog sendLog;
    std::unique_ptr<Machine> mp;

    // ---- the part runWorkload also does --------------------------------
    ScopedSpan run_span(tr, "bench", "runWorkload equivalent");
    {
        ScopedSpan sp(tr, "machine", "Machine::Machine");
        mp = std::make_unique<Machine>(cfg);
    }
    Machine &m = *mp;
    m.setSendInterceptor([&m, &sendLog](const Message &msg) {
        const MsgClass cls = msgClassOf(msg.type);
        ++sendLog.byClass[static_cast<std::size_t>(cls)];
        if (msg.src != msg.dst && sendLog.sends.size() < kSendCap) {
            sendLog.sends.push_back(
                SendRecord{m.eq().curTick(), msg.src, msg.dst,
                           msg.payloadBytes(m.config().mem.lineBytes), cls});
        }
        return false; // count only; the message takes the normal path
    });

    SyncManager sync(static_cast<int>(m.computeNodes().size()));

    for (int phase = 0; phase < wl->numPhases(); ++phase) {
        const auto compute_ids = m.computeNodes();
        const int threads = static_cast<int>(compute_ids.size());
        if (threads > kThreads)
            throw std::runtime_error("more processors than stream slots");
        sync.setNumThreads(threads);

        std::vector<std::unique_ptr<OpStream>> streams;
        {
            ScopedSpan sp(tr, "workload",
                          "makeStream x" + std::to_string(threads));
            for (int t = 0; t < threads; ++t) {
                streams.push_back(std::make_unique<TimedStream>(
                    wl->makeStream(phase, t, threads),
                    counts[static_cast<std::size_t>(t)]));
            }
        }

        std::vector<std::unique_ptr<Processor>> procs;
        int done = 0;
        {
            ScopedSpan sp(tr, "core",
                          "Processor::run x" + std::to_string(threads));
            for (int t = 0; t < threads; ++t) {
                const NodeId n = compute_ids[static_cast<std::size_t>(t)];
                procs.push_back(std::make_unique<Processor>(
                    m.eqFor(n), *m.compute(n), sync, t, cfg.proc));
            }
            for (int t = 0; t < threads; ++t) {
                procs[static_cast<std::size_t>(t)]->run(
                    std::move(streams[static_cast<std::size_t>(t)]),
                    [&done] { ++done; });
            }
        }

        PhaseResult pr;
        pr.name = wl->phaseName(phase);
        pr.startTick = m.eq().curTick();

        std::int64_t gen_ns = 0;
        std::uint64_t ops = 0;
        for (const auto &c : counts) {
            gen_ns -= c.genNs;
            ops -= c.ops;
        }
        int loop_idx = -1;
        {
            ScopedSpan sp(tr, "sim", "phase " + pr.name + ": eq().runOne() loop");
            loop_idx = sp.index();
            const std::uint64_t exec_before = m.eq().executed();
            std::uint64_t events = 0;
            while (done < threads) {
                if (!m.eq().runOne())
                    throw PanicError("watchdog: phase '" + pr.name +
                                     "' stalled with work outstanding:\n" +
                                     m.stuckDiagnostic());
                if (++events > opts.maxEventsPerPhase)
                    throw PanicError("phase '" + pr.name +
                                     "' exceeded event budget");
            }
            // Drain trailing protocol activity (acks, writebacks).
            while (m.eq().runOne()) {
            }
            sp.args()["events"] =
                static_cast<double>(m.eq().executed() - exec_before);
        }
        for (const auto &c : counts) {
            gen_ns += c.genNs;
            ops += c.ops;
        }
        tr.aggregate(loop_idx, "workload", "OpStream::next", gen_ns,
                     {{"calls", static_cast<double>(ops)}});

        pr.endTick = m.eq().curTick();
        for (auto &p : procs) {
            pr.time += p->time();
            result.instructions += p->instructions();
        }
        result.time += pr.time;
        result.phases.push_back(pr);
    }

    double collect_s = 0.0;
    {
        ScopedSpan sp(tr, "report",
                      "aggregateReadStats + collectCensus + stats().all()");
        result.totalTicks = m.eq().curTick();
        result.reads = m.aggregateReadStats();
        result.census = m.collectCensus();
        result.messages = m.messagesSent();
        result.counters = m.stats().all();
        collect_s = sp.close();
    }
    // runWorkload's contention and kernel summary counters.
    result.counters["net.link_wait_ticks"] =
        static_cast<double>(m.mesh().totalLinkWait());
    double engine_busy = 0;
    double engine_wait = 0;
    for (NodeId n = 0; n < m.totalNodes(); ++n) {
        if (m.home(n)) {
            engine_busy += static_cast<double>(m.home(n)->engine().busyTicks());
            engine_wait += static_cast<double>(m.home(n)->engine().waitTicks());
        }
    }
    result.counters["home.engine_wait_ticks"] = engine_wait;
    result.counters["sim.events_executed"] =
        static_cast<double>(m.eq().executed());
    const auto dnodes = m.directoryNodes();
    if (!dnodes.empty() && result.totalTicks > 0) {
        double sum = 0;
        for (NodeId d : dnodes) {
            sum += static_cast<double>(m.home(d)->engine().busyTicks()) /
                   static_cast<double>(result.totalTicks);
        }
        result.dNodeUtilization = sum / static_cast<double>(dnodes.size());
    }
    out.runWallS = run_span.close();

    // ---- checks runWorkload does not make ------------------------------
    double invariants_s = 0.0;
    double quiescent_s = 0.0;
    {
        ScopedSpan sp(tr, "check", "end-of-run scans");
        {
            ScopedSpan inv(tr, "check", "checkInvariants");
            m.checkInvariants();
            invariants_s = inv.close();
        }
        ScopedSpan q(tr, "check", "checkCoherenceQuiescent");
        m.checkCoherenceQuiescent();
        quiescent_s = q.close();
    }

    // ---- standalone replays --------------------------------------------
    metrics["mem.replay_ns_per_access"] = {replayCaches(tr, cfg, counts),
                                           "ns"};
    metrics["net.replay_ns_per_send"] = {
        replaySends(tr, cfg, m.mesh(), std::move(sendLog.sends)), "ns"};

    // ---- per-layer metrics ---------------------------------------------
    auto count = [&metrics](const std::string &name, double v) {
        metrics[name] = {v, "count"};
    };
    auto cycles = [&metrics](const std::string &name, double v) {
        metrics[name] = {v, "cycles"};
    };
    auto ratio = [&metrics](const std::string &name, double num,
                            double den) {
        metrics[name] = {den > 0 ? num / den : 0.0, "ratio"};
    };

    const double events = counter(result, "sim.events_executed");
    count("sim.events", events);

    std::int64_t gen_total = 0;
    std::uint64_t ops_total = 0;
    for (const auto &c : counts) {
        gen_total += c.genNs;
        ops_total += c.ops;
    }
    count("workload.ops", static_cast<double>(ops_total));
    metrics["workload.gen_s"] = {static_cast<double>(gen_total) * 1e-9, "s"};

    count("core.instructions", static_cast<double>(result.instructions));
    cycles("core.busy_cyc", static_cast<double>(result.time.busy));
    cycles("core.sync_cyc", static_cast<double>(result.time.sync));
    cycles("core.mem_stall_cyc", static_cast<double>(result.time.memoryStall));

    static const std::array<const char *, ReadLatencyStats::kNum> kBuckets =
        {"flc", "slc", "local", "hop2", "hop3"};
    for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
        const std::string b = kBuckets[static_cast<std::size_t>(i)];
        count("mem.reads." + b, static_cast<double>(result.reads.count[i]));
        cycles("mem.read_cyc." + b,
               static_cast<double>(result.reads.totalLatency[i]));
    }
    ratio("mem.local_frac",
          static_cast<double>(result.reads.count[0] + result.reads.count[1] +
                              result.reads.count[2]),
          static_cast<double>(result.reads.totalAllCount()));

    const Mesh &mesh = m.mesh();
    count("net.msgs", static_cast<double>(mesh.messagesSent()));
    metrics["net.bytes"] = {static_cast<double>(mesh.bytesSent()), "bytes"};
    cycles("net.link_busy_cyc", static_cast<double>(mesh.totalLinkBusy()));
    cycles("net.link_wait_cyc", static_cast<double>(mesh.totalLinkWait()));
    metrics["net.msg_lat_mean_cyc"] = {
        mesh.messagesSent() ? static_cast<double>(mesh.totalLatency()) /
                                  static_cast<double>(mesh.messagesSent())
                            : 0.0,
        "cycles"};

    // Cim traffic needs a CIM workload and Immune is never a protocol
    // message's class, so neither is reported.
    for (const MsgClass c : {MsgClass::Request, MsgClass::Reply,
                             MsgClass::WriteBack, MsgClass::Ack,
                             MsgClass::Peer}) {
        count(std::string("proto.sends.") + msgClassName(c),
              static_cast<double>(
                  sendLog.byClass[static_cast<std::size_t>(c)]));
    }
    cycles("proto.engine_busy_cyc", engine_busy);
    cycles("proto.engine_wait_cyc", engine_wait);
    metrics["proto.dnode_util"] = {result.dNodeUtilization, "ratio"};
    for (const char *name : {"dnode.page_out_episode", "dnode.page_in",
                             "dnode.sharedlist_reuse",
                             "home.blocked_requests"}) {
        count(name, counter(result, name));
    }

    metrics["check.invariants_s"] = {invariants_s, "s"};
    metrics["check.quiescent_s"] = {quiescent_s, "s"};
    metrics["report.collect_s"] = {collect_s, "s"};

    {
        ScopedSpan sp(tr, "machine", "Machine::~Machine");
        mp.reset();
    }
    root.close();

    // ---- self time per layer -------------------------------------------
    const std::vector<Span> &spans = tr.spans();
    // proto has no span of its own: its handlers run inside the sim
    // loop's events, so their time is part of sim's self time.
    std::map<std::string, double> self_by_layer;
    for (const char *layer : {"bench", "sim", "workload", "core", "mem",
                              "net", "machine", "check", "report"}) {
        self_by_layer[layer] = 0.0;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double self = spans[i].seconds();
        for (const Span &c : spans) {
            if (c.parent == static_cast<int>(i))
                self -= c.seconds();
        }
        self_by_layer[spans[i].layer] += self;
    }
    for (const auto &[layer, s] : self_by_layer)
        metrics[layer + ".self_s"] = {s, "s"};
    metrics["sim.host_ns_per_event"] = {
        events > 0 ? self_by_layer["sim"] * 1e9 / events : 0.0, "ns"};

    writeChromeTrace(trace_path, spans, self_by_layer, provenance);
    return out;
}

} // namespace perfbench
