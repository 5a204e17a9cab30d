/**
 * @file
 * pimdsm-speccheck: exhaustive spec-level model checker CLI (see
 * src/check/spec_explorer.hh).
 *
 * Explores the abstract operational model of each organization's
 * coherence protocol to fixpoint — symmetry-reduced state hashing,
 * per-line partial-order reduction, optional fault injection (--faults
 * per line: drops and dups and, for AGG, one failover of the line's
 * home D-node) — and checks every reachable state against the declarative
 * ProtocolSpec plus the SWMR/version/owner/deadlock safety properties:
 *
 *   pimdsm-speccheck [--arch agg|coma|numa|all] [--nodes N] [--lines N]
 *                    [--reads N] [--writes N] [--evicts N] [--faults N]
 *                    [--max-states N] [--json PATH] [--baseline PATH]
 *                    [--drift F] [--conformance N]
 *
 * --json writes the state/transition/POR counts as a machine-readable
 * artifact; --baseline compares the explored state counts against a
 * committed artifact and fails on drift beyond --drift (default 0.25),
 * so CI catches both lost coverage (a silently shrunken model) and
 * unreviewed blow-ups. --conformance N replays N sampled terminal
 * traces (from an evictionless exploration) through the real Machine
 * with the coherence oracle armed.
 *
 * Exit status 0 when every check passes, 1 on a safety violation or
 * baseline drift, 2 on usage/IO errors.
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/spec_explorer.hh"
#include "report/json.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace
{

using namespace pimdsm;

[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "speccheck: " << why << "\n";
    std::exit(2);
}

/** The value of flag argv[i], advancing i past it. */
std::string
strArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usageError(std::string(argv[i]) + " needs a value");
    return argv[++i];
}

/** The value of flag argv[i] (advancing i past it) as a T. */
template <typename T>
T
numArg(int argc, char **argv, int &i)
{
    const std::string flag = argv[i];
    const std::string text = strArg(argc, argv, i);
    const std::optional<T> v = parseNumber<T>(text);
    if (!v)
        usageError("bad value '" + text + "' for " + flag);
    return *v;
}

/** The committed state count per explored arch of baseline @p path;
 *  exits 2 when it is unreadable, malformed or lacks an arch. */
std::map<ArchKind, std::uint64_t>
loadBaseline(const std::string &path, const std::vector<ArchKind> &archs)
{
    const std::optional<std::string> text = readFile(path);
    if (!text)
        usageError("cannot read " + path);
    const JsonDoc doc = parseJson(*text);
    if (!doc.ok())
        usageError(path + ": " + doc.error);
    std::map<ArchKind, std::uint64_t> states;
    for (ArchKind arch : archs) {
        const auto v = doc.number<std::uint64_t>(
            std::string("archs.") + archKey(arch) + ".states");
        if (!v)
            usageError(path + " has no states count for " + archKey(arch));
        states[arch] = *v;
    }
    return states;
}

void
printTrace(const SpecTrace &tr)
{
    int i = 0;
    for (const SpecTraceStep &s : tr)
        std::cout << "    " << ++i << ". " << s.text << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<ArchKind> all = {ArchKind::Agg, ArchKind::Coma,
                                       ArchKind::Numa};
    std::vector<ArchKind> archs = all;
    SpecExplorerConfig base;
    std::string jsonPath, baselinePath;
    double drift = 0.25;
    int conformance = 0;

    auto intArg = [&](int &i) { return numArg<int>(argc, argv, i); };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--arch") {
            const std::string a = strArg(argc, argv, i);
            archs.clear();
            for (ArchKind k : all) {
                if (a == "all" || a == archKey(k))
                    archs.push_back(k);
            }
            if (archs.empty()) {
                std::cerr << "speccheck: unknown arch '" << a << "'\n";
                return 2;
            }
        } else if (arg == "--nodes") {
            base.nodes = intArg(i);
        } else if (arg == "--lines") {
            base.lines = intArg(i);
        } else if (arg == "--reads") {
            base.reads = intArg(i);
        } else if (arg == "--writes") {
            base.writes = intArg(i);
        } else if (arg == "--evicts") {
            base.evicts = intArg(i);
        } else if (arg == "--faults") {
            base.faults = intArg(i);
        } else if (arg == "--max-states") {
            base.maxStates = numArg<std::uint64_t>(argc, argv, i);
        } else if (arg == "--conformance") {
            conformance = intArg(i);
        } else if (arg == "--json") {
            jsonPath = strArg(argc, argv, i);
        } else if (arg == "--baseline") {
            baselinePath = strArg(argc, argv, i);
        } else if (arg == "--drift") {
            drift = numArg<double>(argc, argv, i);
        } else if (arg == "-h" || arg == "--help") {
            std::cout
                << "usage: pimdsm-speccheck [--arch agg|coma|numa|all]\n"
                   "  [--nodes N] [--lines N] [--reads N] [--writes N]\n"
                   "  [--evicts N] [--faults N] [--max-states N]\n"
                   "  [--json PATH] [--baseline PATH] [--drift F]\n"
                   "  [--conformance N]\n"
                   "--faults N: faults per line: drops and dups of\n"
                   "  messages and, for AGG, one failover of the\n"
                   "  line's home D-node\n";
            return 0;
        } else {
            std::cerr << "speccheck: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }

    std::map<ArchKind, std::uint64_t> baseline;
    if (!baselinePath.empty())
        baseline = loadBaseline(baselinePath, archs);

    bool ok = true;
    std::ostringstream js;
    JsonWriter w(js);
    w.beginObject()
        .field("nodes", base.nodes)
        .field("lines", base.lines)
        .field("reads", base.reads)
        .field("writes", base.writes)
        .field("evicts", base.evicts)
        .field("faults", base.faults)
        .key("archs")
        .beginObject();

    for (ArchKind arch : archs) {
        SpecExplorerConfig cfg = base;
        cfg.arch = arch;
        SpecExplorer ex(cfg);
        const SpecExplorerResult res = ex.run();

        std::cout << archKey(arch) << ": " << res.states << " states, "
                  << res.transitions << " transitions, "
                  << res.revisits << " revisits, " << res.porPruned
                  << " POR-pruned, " << res.faultTransitions
                  << " fault edges";
        if (res.failovers > 0)
            std::cout << " (" << res.failovers << " failovers)";
        std::cout << ", " << res.terminals
                  << " terminals, " << res.rowChecks
                  << " spec-row checks, depth " << res.maxDepth
                  << (res.truncated ? " [TRUNCATED]" : "") << "\n";
        if (res.violation) {
            ok = false;
            std::cout << "  VIOLATION: " << res.violationText << "\n"
                      << "  counterexample ("
                      << res.counterexample.size() << " steps):\n";
            printTrace(res.counterexample);
        }
        if (res.truncated) {
            ok = false;
            std::cout << "  FAILED: state space truncated at "
                      << cfg.maxStates
                      << " states (raise --max-states)\n";
        }

        if (!baseline.empty() && !res.violation) {
            const std::uint64_t want = baseline.at(arch);
            const double lo = static_cast<double>(want) * (1.0 - drift);
            const double hi = static_cast<double>(want) * (1.0 + drift);
            const double got = static_cast<double>(res.states);
            if (got < lo || got > hi) {
                ok = false;
                std::cout << "  DRIFT: " << res.states
                          << " states vs baseline " << want
                          << " (allowed ±" << drift * 100 << "%)\n";
            }
        }

        w.key(archKey(arch))
            .beginObject(JsonLayout::Inline)
            .field("states", res.states)
            .field("transitions", res.transitions)
            .field("revisits", res.revisits)
            .field("porPruned", res.porPruned)
            .field("faultTransitions", res.faultTransitions)
            .field("terminals", res.terminals)
            .field("rowChecks", res.rowChecks)
            .field("maxDepth", res.maxDepth)
            .field("truncated", res.truncated)
            .end();

        if (conformance > 0 && !res.violation) {
            // Sample from an evictionless exploration: the real
            // machine's evictions are capacity-driven and cannot be
            // scripted from a trace.
            SpecExplorerConfig scfg = cfg;
            scfg.evicts = 0;
            scfg.sampleTraces = conformance;
            SpecExplorer sex(scfg);
            const SpecExplorerResult sres = sex.run();
            if (sres.violation) {
                ok = false;
                std::cout << "  VIOLATION (sampling run): "
                          << sres.violationText << "\n";
                continue;
            }
            try {
                const SpecConformanceResult c =
                    replaySpecTraces(scfg, sres.sampled);
                std::cout << "  conformance: " << c.replayed
                          << " traces replayed, " << c.guidedSteps
                          << " guided steps (" << c.missedSteps
                          << " unmatched), " << c.deliveries
                          << " deliveries, no divergence\n";
            } catch (const PanicError &e) {
                ok = false;
                std::cout << "  CONFORMANCE DIVERGENCE: " << e.what()
                          << "\n";
            }
        }
    }
    w.end().end();

    if (!jsonPath.empty()) {
        if (!writeFile(jsonPath, js.str()))
            usageError("cannot write " + jsonPath);
        std::cout << "wrote " << jsonPath << "\n";
    }
    std::cout << (ok ? "speccheck: OK" : "speccheck: FAILED") << "\n";
    return ok ? 0 : 1;
}
