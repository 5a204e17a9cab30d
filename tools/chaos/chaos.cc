/**
 * @file
 * pimdsm-chaos: randomized fault-schedule fuzzer, delta-debugging
 * shrinker, and repro replayer.
 *
 * `fuzz` generates seeded random fault schedules over every
 * FaultDomain (per-class rates, D-node and P-node deaths, link deaths,
 * timed partitions), runs an oracle-armed workload under each, and
 * classifies the outcome:
 *
 *   completed        ran to the end, no fault actually perturbed it
 *   recovered        ran to the end through retries/failovers/heals
 *   oracle_violation the coherence oracle flagged the run
 *   wedge            the watchdog found the machine stalled
 *   panic            any other protocol/simulator invariant broke
 *
 * Anything that is not completed/recovered (or that mismatches the
 * expected outcome) is delta-debugged down to a minimal fault-event
 * list and written as a versioned repro file that `replay` re-runs —
 * the committed repros under tests/chaos_repros/ run under ctest.
 * See docs/chaos-repro-format.md for the file format.
 *
 * The whole pipeline is deterministic: same seed, same schedule, same
 * outcome, byte-identical repro.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "machine/builder.hh"
#include "proto/stuck.hh"
#include "report/experiment.hh"
#include "report/json.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

using namespace pimdsm;

namespace
{

// --------------------------------------------------------------- model

/** One schedule entry: a per-class rates setting when fault.domain is
 *  Rates (the last entry per class wins), else a timed fault. */
struct ChaosEvent
{
    ScheduledFault fault;
    int cls = 0;
    ClassFaultRates rates;
};

struct Schedule
{
    ArchKind arch = ArchKind::Agg;
    std::string app = "fft";
    int threads = 4;
    int scale = 1;
    std::uint64_t seed = 1;
    ProtoMutation mutation = ProtoMutation::None;
    std::vector<ChaosEvent> events;
};

enum class Outcome
{
    Completed,
    Recovered,
    OracleViolation,
    Wedge,
    Panic,
    Invalid, ///< config rejected: a generator bug, never acceptable
};

/** Names by enumerator value, as repros and the CLI spell them. */
constexpr const char *kOutcomeNames[] = {
    "completed", "recovered", "oracle_violation", "wedge", "panic",
    "invalid"};
constexpr const char *kMutationNames[] = {"none", "skip_inval",
                                          "double_owner", "leak_slot"};
constexpr int kNumOutcomes = static_cast<int>(std::size(kOutcomeNames));
constexpr int kNumMutations = static_cast<int>(std::size(kMutationNames));
constexpr int kNumArchs = 3;

const char *
outcomeName(Outcome o)
{
    return kOutcomeNames[static_cast<int>(o)];
}

const char *
mutationName(ProtoMutation m)
{
    return kMutationNames[static_cast<int>(m)];
}

/** The index of the first of @p count enumerators whose @p name is
 *  @p v, or -1. */
template <typename E, typename NameFn>
int
byName(const std::string &v, int count, NameFn name)
{
    for (int i = 0; i < count; ++i) {
        if (v == name(static_cast<E>(i)))
            return i;
    }
    return -1;
}

struct RunReport
{
    Outcome outcome = Outcome::Completed;
    std::string detail;
};

// ----------------------------------------------------------- execution

void
applyEvents(FaultConfig &fc, const std::vector<ChaosEvent> &events)
{
    for (const ChaosEvent &ev : events) {
        if (ev.fault.domain == FaultDomain::Rates)
            fc.rates[ev.cls] = ev.rates;
        else
            fc.schedule.push_back(ev.fault);
    }
}

std::string
firstLine(const std::string &s)
{
    return s.substr(0, s.find('\n'));
}

RunReport
runSchedule(const Schedule &sc)
{
    RunReport rep;
    try {
        auto wl = makeWorkload(sc.app, sc.scale);
        BuildSpec spec;
        spec.arch = sc.arch;
        spec.threads = sc.threads;
        spec.pressure = 0.25;
        spec.dRatio = 2; // >= 2 D-nodes so one can die
        MachineConfig cfg = buildConfig(*wl, spec);
        cfg.seed = sc.seed;
        cfg.check.mutation = sc.mutation;
        applyEvents(cfg.faults, sc.events);

        RunOptions opts;
        opts.checkInvariants = true;
        warnResetForTest();
        const RunResult r = runWorkload(cfg, *wl, opts);
        warnResetForTest();

        if (r.counter("check.violations") > 0) {
            rep.outcome = Outcome::OracleViolation;
            std::ostringstream os;
            os << r.counter("check.violations")
               << " oracle violation(s) counted in degraded mode";
            rep.detail = os.str();
            return rep;
        }
        const bool perturbed =
            r.counter("fault.retries") > 0 ||
            r.counter("fault.net.drop") > 0 ||
            r.counter("fault.net.link_deaths") > 0 ||
            r.counter("fault.net.partition_blocked") > 0 ||
            r.counter("fault.failovers") > 0 ||
            r.counter("fault.pnode_failovers") > 0;
        rep.outcome =
            perturbed ? Outcome::Recovered : Outcome::Completed;
        return rep;
    } catch (const WatchdogError &e) {
        rep.outcome = Outcome::Wedge;
        rep.detail = firstLine(e.what());
        return rep;
    } catch (const PanicError &e) {
        // A strict-mode oracle panic is the same defect class as a
        // counted violation (the mode only depends on whether any
        // fault event survived shrinking).
        const std::string what = e.what();
        rep.outcome = what.find("coherence violation") != std::string::npos
                          ? Outcome::OracleViolation
                          : Outcome::Panic;
        rep.detail = firstLine(what);
        return rep;
    } catch (const FatalError &e) {
        rep.outcome = Outcome::Invalid;
        rep.detail = firstLine(e.what());
        return rep;
    }
}

// ----------------------------------------------------------- generator

/** Mesh geometry of the machine a schedule builds (for valid links). */
struct Geometry
{
    int meshX = 0;
    int meshY = 0;
    int pnodes = 0;
    int total = 0;
};

Geometry
geometryOf(const Schedule &sc)
{
    auto wl = makeWorkload(sc.app, sc.scale);
    BuildSpec spec;
    spec.arch = sc.arch;
    spec.threads = sc.threads;
    spec.pressure = 0.25;
    spec.dRatio = 2;
    const MachineConfig cfg = buildConfig(*wl, spec);
    return Geometry{cfg.net.meshX, cfg.net.meshY, cfg.numPNodes,
                    cfg.totalNodes()};
}

/** A random on-mesh link (never pointing off the edge). */
LinkRef
randomLink(Rng &rng, const Geometry &g)
{
    while (true) {
        const int x = static_cast<int>(rng.nextBounded(g.meshX));
        const int y = static_cast<int>(rng.nextBounded(g.meshY));
        const int dir = static_cast<int>(rng.nextBounded(4));
        if ((dir == 0 && x == g.meshX - 1) || (dir == 1 && x == 0) ||
            (dir == 2 && y == g.meshY - 1) || (dir == 3 && y == 0))
            continue;
        return LinkRef{x, y, dir};
    }
}

/** True if the mesh stays connected after killing @p dead channels
 *  (both directions die with a channel, so an undirected BFS). */
bool
meshStaysConnected(const Geometry &g, const std::vector<LinkRef> &dead)
{
    auto channelDead = [&](int x, int y, int dir) {
        static const int dx[4] = {1, -1, 0, 0};
        static const int dy[4] = {0, 0, 1, -1};
        static const int opp[4] = {1, 0, 3, 2};
        for (const LinkRef &l : dead) {
            if (l.x == x && l.y == y && l.dir == dir)
                return true;
            if (l.x == x + dx[dir] && l.y == y + dy[dir] &&
                l.dir == opp[dir])
                return true;
        }
        return false;
    };
    std::vector<char> seen(
        static_cast<std::size_t>(g.meshX) * g.meshY, 0);
    std::vector<std::pair<int, int>> frontier{{0, 0}};
    seen[0] = 1;
    std::size_t reached = 1;
    static const int dx[4] = {1, -1, 0, 0};
    static const int dy[4] = {0, 0, 1, -1};
    while (!frontier.empty()) {
        const auto [x, y] = frontier.back();
        frontier.pop_back();
        for (int dir = 0; dir < 4; ++dir) {
            const int nx = x + dx[dir], ny = y + dy[dir];
            if (nx < 0 || nx >= g.meshX || ny < 0 || ny >= g.meshY)
                continue;
            if (seen[static_cast<std::size_t>(ny) * g.meshX + nx])
                continue;
            if (channelDead(x, y, dir))
                continue;
            seen[static_cast<std::size_t>(ny) * g.meshX + nx] = 1;
            ++reached;
            frontier.emplace_back(nx, ny);
        }
    }
    return reached ==
           static_cast<std::size_t>(g.meshX) * g.meshY;
}

/** A vertical cut severing the mesh between columns c and c+1. */
std::vector<LinkRef>
columnCut(int c, const Geometry &g)
{
    std::vector<LinkRef> cut;
    for (int y = 0; y < g.meshY; ++y)
        cut.push_back(LinkRef{c, y, 0});
    return cut;
}

Schedule
generate(std::uint64_t seed, ArchKind arch, ProtoMutation mutation)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    Schedule sc;
    sc.arch = arch;
    sc.seed = seed;
    sc.mutation = mutation;
    static const char *kApps[] = {"fft", "radix", "barnes"};
    sc.app = kApps[rng.nextBounded(3)];
    sc.threads = 4;

    const Geometry g = geometryOf(sc);

    // Every domain is drawn independently; keep schedules small so a
    // failure is already close to minimal. The switch is exhaustive
    // over FaultDomain (tools/lint.sh checks it).
    const int n = 1 + static_cast<int>(rng.nextBounded(4));
    for (int i = 0; i < n; ++i) {
        ChaosEvent ev;
        ScheduledFault &f = ev.fault;
        f.domain =
            static_cast<FaultDomain>(rng.nextBounded(kNumFaultDomains));
        f.tick = 20000 + rng.nextBounded(400000);
        switch (f.domain) {
          case FaultDomain::Rates:
            ev.cls = static_cast<int>(rng.nextBounded(kNumFaultClasses));
            ev.rates.drop = rng.chance(0.7)
                                ? 0.01 + 0.04 * rng.nextDouble()
                                : 0.0;
            ev.rates.delay =
                rng.chance(0.3) ? 0.05 * rng.nextDouble() : 0.0;
            ev.rates.duplicate =
                rng.chance(0.3) ? 0.05 * rng.nextDouble() : 0.0;
            ev.rates.dropNth =
                rng.chance(0.2) ? 1 + rng.nextBounded(200) : 0;
            break;
          case FaultDomain::DNodeDeath:
            if (sc.arch != ArchKind::Agg)
                continue; // structural deaths are AGG-only
            f.node = static_cast<NodeId>(
                g.pnodes + rng.nextBounded(g.total - g.pnodes));
            break;
          case FaultDomain::PNodeDeath:
            if (sc.arch != ArchKind::Agg)
                continue;
            f.node = static_cast<NodeId>(rng.nextBounded(g.pnodes));
            break;
          case FaultDomain::LinkDeath:
            {
                f.links = {randomLink(rng, g)};
                // Accumulating permanent link deaths must never
                // disconnect the mesh: an isolated node is an
                // *expected* wedge, which would drown real failures.
                std::vector<LinkRef> dead = f.links;
                for (const ChaosEvent &prev : sc.events) {
                    if (prev.fault.domain == FaultDomain::LinkDeath)
                        dead.push_back(prev.fault.links.front());
                }
                if (!meshStaysConnected(g, dead))
                    continue;
                break;
            }
          case FaultDomain::Partition:
            f.links = columnCut(
                static_cast<int>(rng.nextBounded(g.meshX - 1)), g);
            f.healTick = f.tick + 50000 + rng.nextBounded(200000);
            break;
        }
        sc.events.push_back(std::move(ev));
    }

    // At most one death per structural domain: more can legitimately
    // wedge the machine (e.g. every D-node dead), which would drown
    // the interesting failures in expected ones.
    int dnode_deaths = 0, pnode_deaths = 0;
    std::vector<ChaosEvent> kept;
    for (ChaosEvent &ev : sc.events) {
        const FaultDomain d = ev.fault.domain;
        if (d == FaultDomain::DNodeDeath && ++dnode_deaths > 1)
            continue;
        if (d == FaultDomain::PNodeDeath && ++pnode_deaths > 1)
            continue;
        kept.push_back(std::move(ev));
    }
    sc.events = std::move(kept);
    return sc;
}

// ------------------------------------------------------------ shrinker

/** Failure classes match if the outcome kind is the same. */
bool
sameFailure(const RunReport &a, const RunReport &b)
{
    return a.outcome == b.outcome;
}

/**
 * ddmin over the event list: repeatedly try removing chunks (then
 * their complements) while the failure reproduces. O(n^2) runs worst
 * case; schedules are tiny, and a hard cap bounds the work.
 */
std::vector<ChaosEvent>
shrink(const Schedule &sc, const RunReport &target, int *runs_out)
{
    std::vector<ChaosEvent> best = sc.events;
    int runs = 0;
    const int kMaxRuns = 200;

    auto reproduces = [&](const std::vector<ChaosEvent> &events) {
        if (runs >= kMaxRuns)
            return false;
        ++runs;
        Schedule trial = sc;
        trial.events = events;
        return sameFailure(runSchedule(trial), target);
    };

    std::size_t granularity = 2;
    while (best.size() >= 1 && granularity <= best.size() * 2) {
        const std::size_t chunk =
            std::max<std::size_t>(1, best.size() / granularity);
        bool reduced = false;
        for (std::size_t start = 0; start < best.size();
             start += chunk) {
            std::vector<ChaosEvent> without;
            for (std::size_t i = 0; i < best.size(); ++i) {
                if (i < start || i >= start + chunk)
                    without.push_back(best[i]);
            }
            if (without.size() < best.size() &&
                reproduces(without)) {
                best = std::move(without);
                granularity = std::max<std::size_t>(2, granularity - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (chunk == 1)
                break;
            granularity *= 2;
        }
        if (runs >= kMaxRuns)
            break;
    }
    // Final sweep: try dropping each remaining event individually.
    for (std::size_t i = 0; i < best.size() && runs < kMaxRuns;) {
        std::vector<ChaosEvent> without = best;
        without.erase(without.begin() + static_cast<long>(i));
        if (reproduces(without))
            best = std::move(without);
        else
            ++i;
    }
    if (runs_out)
        *runs_out = runs;
    return best;
}

// ------------------------------------------------------- repro file IO

void
writeRepro(std::ostream &os, const Schedule &sc, Outcome expect)
{
    os << "pimdsm-chaos-repro v1\n";
    os << "expect " << outcomeName(expect) << "\n";
    os << "arch " << archKey(sc.arch) << "\n";
    os << "app " << sc.app << "\n";
    os << "threads " << sc.threads << "\n";
    os << "scale " << sc.scale << "\n";
    os << "seed " << sc.seed << "\n";
    os << "mutation " << mutationName(sc.mutation) << "\n";
    for (const ChaosEvent &ev : sc.events) {
        const ScheduledFault &f = ev.fault;
        os << "event " << faultDomainName(f.domain);
        if (f.domain == FaultDomain::Rates) {
            os << " cls=" << ev.cls << " drop=" << ev.rates.drop
               << " delay=" << ev.rates.delay
               << " dup=" << ev.rates.duplicate
               << " dropnth=" << ev.rates.dropNth << "\n";
            continue;
        }
        // Every field a timed fault sets, in one fixed order; a
        // partition spells its links as a cut, a link death as x/y/dir.
        os << " tick=" << f.tick;
        if (f.healTick != 0)
            os << " heal=" << f.healTick;
        if (f.node != kInvalidNode)
            os << " node=" << f.node;
        if (f.domain == FaultDomain::Partition) {
            os << " cut=";
            for (std::size_t i = 0; i < f.links.size(); ++i)
                os << (i ? ";" : "") << f.links[i].x << ","
                   << f.links[i].y << "," << f.links[i].dir;
        } else if (!f.links.empty()) {
            os << " x=" << f.links.front().x << " y=" << f.links.front().y
               << " dir=" << f.links.front().dir;
        }
        os << "\n";
    }
}

[[noreturn]] void
parseFail(const std::string &why)
{
    std::cerr << "repro parse error: " << why << "\n";
    std::exit(2);
}

std::map<std::string, std::string>
parseKv(std::istringstream &is)
{
    std::map<std::string, std::string> kv;
    std::string tok;
    while (is >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos)
            parseFail("expected key=value, got '" + tok + "'");
        kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return kv;
}

/** The next token of @p is, the name of one of @p count enumerators
 *  (@p what names the kind in the error). */
template <typename E, typename NameFn>
E
parseName(std::istringstream &is, const std::string &what, int count,
          NameFn name)
{
    std::string v;
    is >> v;
    const int i = byName<E>(v, count, name);
    if (i < 0)
        parseFail("unknown " + what + " '" + v + "'");
    return static_cast<E>(i);
}

constexpr int kIntMax = std::numeric_limits<int>::max();

/** The header value after @p key: a whole number in [lo, hi]. */
std::uint64_t
headerValue(std::istringstream &is, const std::string &key,
            std::uint64_t lo, std::uint64_t hi)
{
    std::string v;
    is >> v;
    const auto n = parseNumber<std::uint64_t>(v);
    if (!n || *n < lo || *n > hi)
        parseFail("bad " + key + " '" + v + "'");
    return *n;
}

/** Parse a repro stream into (schedule, expected outcome). */
Schedule
parseRepro(std::istream &in, Outcome *expect)
{
    Schedule sc;
    std::string line;
    if (!std::getline(in, line) || line != "pimdsm-chaos-repro v1")
        parseFail("missing 'pimdsm-chaos-repro v1' header");
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string key;
        is >> key;
        if (key == "expect") {
            *expect = parseName<Outcome>(is, "outcome", kNumOutcomes,
                                         outcomeName);
        } else if (key == "arch") {
            sc.arch = parseName<ArchKind>(is, "arch", kNumArchs, archKey);
        } else if (key == "app") {
            is >> sc.app;
        } else if (key == "threads") {
            sc.threads = static_cast<int>(headerValue(is, key, 1, kIntMax));
        } else if (key == "scale") {
            sc.scale = static_cast<int>(headerValue(is, key, 1, kIntMax));
        } else if (key == "seed") {
            sc.seed = headerValue(is, key, 0, ~std::uint64_t{0});
        } else if (key == "mutation") {
            sc.mutation = parseName<ProtoMutation>(
                is, "mutation", kNumMutations, mutationName);
        } else if (key == "event") {
            ChaosEvent ev;
            ScheduledFault &f = ev.fault;
            f.domain = parseName<FaultDomain>(is, "fault domain",
                                              kNumFaultDomains,
                                              faultDomainName);
            auto kv = parseKv(is);
            // Every value is a number in [0, max]; a class, tick or id
            // must also be whole, as it is cast to an integer type.
            auto num = [&](const char *k, double dflt, double max,
                           bool whole) -> double {
                const auto it = kv.find(k);
                if (it == kv.end())
                    return dflt;
                const auto v = parseNumber<double>(it->second);
                if (!v || !(*v >= 0.0 && *v <= max) ||
                    (whole && *v != std::floor(*v)))
                    parseFail(std::string("bad number '") + it->second +
                              "' for " + k);
                return *v;
            };
            constexpr double kRate = std::numeric_limits<double>::max();
            // 2^53: the largest whole number a double holds exactly.
            constexpr double kTick = 9007199254740992.0;
            ev.cls = static_cast<int>(
                num("cls", 0.0, kNumFaultClasses - 1, true));
            ev.rates.drop = num("drop", 0.0, kRate, false);
            ev.rates.delay = num("delay", 0.0, kRate, false);
            ev.rates.duplicate = num("dup", 0.0, kRate, false);
            ev.rates.dropNth = static_cast<std::uint64_t>(
                num("dropnth", 0.0, kTick, true));
            f.tick = static_cast<Tick>(num("tick", 0.0, kTick, true));
            f.node = static_cast<NodeId>(
                num("node", kInvalidNode, kIntMax, true));
            f.healTick = static_cast<Tick>(num("heal", 0.0, kTick, true));
            if (kv.count("x") || kv.count("y") || kv.count("dir")) {
                auto id = [&](const char *k) {
                    return static_cast<int>(num(k, 0.0, kIntMax, true));
                };
                f.links.push_back(LinkRef{id("x"), id("y"), id("dir")});
            }
            if (kv.count("cut")) {
                std::istringstream cs(kv["cut"]);
                std::string part;
                while (std::getline(cs, part, ';')) {
                    // "x,y,dir": three whole numbers, nothing else.
                    const std::string_view e = part;
                    const auto c1 = e.find(',');
                    const auto c2 = c1 == e.npos ? c1 : e.find(',', c1 + 1);
                    std::optional<int> x, y, dir;
                    if (c2 != e.npos) {
                        x = parseNumber<int>(e.substr(0, c1));
                        y = parseNumber<int>(e.substr(c1 + 1, c2 - c1 - 1));
                        dir = parseNumber<int>(e.substr(c2 + 1));
                    }
                    if (!x || !y || !dir)
                        parseFail("bad cut element '" + part + "'");
                    f.links.push_back(LinkRef{*x, *y, *dir});
                }
            }
            sc.events.push_back(std::move(ev));
        } else {
            parseFail("unknown directive '" + key + "'");
        }
    }
    return sc;
}

// ---------------------------------------------------------------- CLI

/** Fuzz @p count schedules; @p arch_pin is an ArchKind, or -1 to cycle
 *  through all three. */
int
cmdFuzz(int count, std::uint64_t seed0, ProtoMutation mutation,
        const std::string &outdir, Outcome expect, int arch_pin)
{
    constexpr ArchKind kCycle[] = {ArchKind::Agg, ArchKind::Coma,
                                   ArchKind::Numa};
    int bad = 0, invalid = 0;
    std::map<std::string, int> tally;
    for (int i = 0; i < count; ++i) {
        const std::uint64_t seed = seed0 + static_cast<unsigned>(i);
        // Cycle the architectures so the corpus covers all three,
        // unless --arch pins one (e.g. mutation corpora restricted to
        // the archs where the seeded bug manifests).
        const ArchKind arch = arch_pin >= 0
                                  ? static_cast<ArchKind>(arch_pin)
                                  : kCycle[i % 3];
        const Schedule sc = generate(seed, arch, mutation);
        const RunReport rep = runSchedule(sc);
        ++tally[outcomeName(rep.outcome)];
        std::cout << "seed=" << seed << " arch="
                  << archName(sc.arch) << " app=" << sc.app
                  << " events=" << sc.events.size() << " -> "
                  << outcomeName(rep.outcome)
                  << (rep.detail.empty() ? "" : "  [" + rep.detail + "]")
                  << "\n";
        if (rep.outcome == Outcome::Invalid)
            ++invalid;
        const bool acceptable = rep.outcome == expect ||
                                (expect == Outcome::Completed &&
                                 rep.outcome == Outcome::Recovered);
        if (acceptable)
            continue;
        ++bad;
        // Shrink and write a repro for the unexpected outcome.
        int runs = 0;
        Schedule minimal = sc;
        minimal.events = shrink(sc, rep, &runs);
        std::ostringstream name;
        name << outdir << "/repro-seed" << seed << "-"
             << outcomeName(rep.outcome) << ".txt";
        std::ofstream f(name.str());
        writeRepro(f, minimal, rep.outcome);
        std::cout << "  shrunk " << sc.events.size() << " -> "
                  << minimal.events.size() << " events (" << runs
                  << " runs), wrote " << name.str() << "\n";
    }
    std::cout << "\nfuzz summary:";
    for (const auto &[k, v] : tally)
        std::cout << " " << k << "=" << v;
    std::cout << "\n";
    if (invalid)
        std::cerr << invalid << " schedule(s) were rejected by "
                  << "validation: generator bug\n";
    return bad || invalid ? 1 : 0;
}

int
cmdReplay(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        std::cerr << "cannot open " << path << "\n";
        return 2;
    }
    Outcome expect = Outcome::Completed;
    const Schedule sc = parseRepro(f, &expect);
    const RunReport rep = runSchedule(sc);
    const bool acceptable = rep.outcome == expect ||
                            (expect == Outcome::Completed &&
                             rep.outcome == Outcome::Recovered);
    std::cout << path << ": expected " << outcomeName(expect)
              << ", got " << outcomeName(rep.outcome)
              << (rep.detail.empty() ? "" : "  [" + rep.detail + "]")
              << (acceptable ? "  OK" : "  MISMATCH") << "\n";
    return acceptable ? 0 : 1;
}

int
cmdShrink(const std::string &path, const std::string &out)
{
    std::ifstream f(path);
    if (!f) {
        std::cerr << "cannot open " << path << "\n";
        return 2;
    }
    Outcome expect = Outcome::Completed;
    Schedule sc = parseRepro(f, &expect);
    const RunReport rep = runSchedule(sc);
    std::cout << path << ": reproduces as " << outcomeName(rep.outcome)
              << "\n";
    int runs = 0;
    Schedule minimal = sc;
    minimal.events = shrink(sc, rep, &runs);
    std::cout << "shrunk " << sc.events.size() << " -> "
              << minimal.events.size() << " events in " << runs
              << " runs\n";
    std::ofstream o(out);
    writeRepro(o, minimal, rep.outcome);
    std::cout << "wrote " << out << "\n";
    return 0;
}

[[noreturn]] void
usageFail(const std::string &why)
{
    std::cerr << "pimdsm-chaos: " << why << "\n";
    std::exit(2);
}

/** The value after flag @p name in @p args, or nothing when the flag
 *  is absent; exits 2 when the flag has no value. */
std::optional<std::string>
flagValue(const std::vector<std::string> &args, const std::string &name)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != name)
            continue;
        if (i + 1 == args.size())
            usageFail(name + " needs a value");
        return args[i + 1];
    }
    return std::nullopt;
}

/** Flag @p name as a T (@p dflt when absent); exits 2 on a value that
 *  is not one whole number of type T. */
template <typename T>
T
numFlag(const std::vector<std::string> &args, const std::string &name,
        T dflt)
{
    const std::optional<std::string> v = flagValue(args, name);
    if (!v)
        return dflt;
    const std::optional<T> n = parseNumber<T>(*v);
    if (!n)
        usageFail("bad value '" + *v + "' for " + name);
    return *n;
}

/** Flag @p name as one of @p count enumerators named by @p nameOf
 *  (@p dflt when absent); exits 2 on an unknown name. */
template <typename E, typename NameFn>
E
nameFlag(const std::vector<std::string> &args, const std::string &name,
         const std::string &dflt, int count, NameFn nameOf)
{
    const std::string v = flagValue(args, name).value_or(dflt);
    const int i = byName<E>(v, count, nameOf);
    if (i < 0)
        usageFail("unknown value '" + v + "' for " + name);
    return static_cast<E>(i);
}

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  pimdsm-chaos fuzz [--count N] [--seed S] "
           "[--mutation none|skip_inval|double_owner|leak_slot]\n"
        << "                    [--expect OUTCOME] [--out DIR] "
           "[--arch all|agg|coma|numa]\n"
        << "  pimdsm-chaos replay FILE\n"
        << "  pimdsm-chaos shrink FILE [--out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (cmd == "fuzz") {
        const int count = numFlag<int>(args, "--count", 20);
        const auto seed = numFlag<std::uint64_t>(args, "--seed", 1000);
        const auto mutation = nameFlag<ProtoMutation>(
            args, "--mutation", "none", kNumMutations, mutationName);
        const auto expect = nameFlag<Outcome>(
            args, "--expect",
            mutation == ProtoMutation::None ? "completed"
                                            : "oracle_violation",
            kNumOutcomes, outcomeName);
        const std::string arch = flagValue(args, "--arch").value_or("all");
        const int pin = byName<ArchKind>(arch, kNumArchs, archKey);
        if (arch != "all" && pin < 0)
            return usage();
        return cmdFuzz(count, seed, mutation,
                       flagValue(args, "--out").value_or("."), expect,
                       pin);
    }
    if (cmd == "replay" && !args.empty())
        return cmdReplay(args[0]);
    if (cmd == "shrink" && !args.empty())
        return cmdShrink(args[0],
                         flagValue(args, "--out").value_or(args[0] + ".min"));
    return usage();
}
