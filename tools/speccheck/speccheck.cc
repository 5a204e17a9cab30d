/**
 * @file
 * pimdsm-speccheck: exhaustive spec-level model checker CLI (see
 * src/check/spec_explorer.hh).
 *
 * Explores the abstract operational model of each organization's
 * coherence protocol to fixpoint — symmetry-reduced state hashing,
 * per-line partial-order reduction, optional drop/dup fault injection —
 * and checks every reachable state against the declarative
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
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/spec_explorer.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace
{

using namespace pimdsm;

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::cerr << "speccheck: cannot write " << path << "\n";
        return false;
    }
    f << content;
    return f.good();
}

/** Pull "key": <number> out of the object following "<arch>" in a
 *  committed baseline artifact (we own both ends of this format; a
 *  full JSON parser would be a dependency for no benefit). */
bool
baselineStates(const std::string &json, const std::string &arch,
               std::uint64_t &out)
{
    const std::string archTag = "\"" + arch + "\"";
    std::size_t p = json.find(archTag);
    if (p == std::string::npos)
        return false;
    const std::string tag = "\"states\":";
    p = json.find(tag, p);
    if (p == std::string::npos)
        return false;
    p += tag.size();
    while (p < json.size() && json[p] == ' ')
        ++p;
    std::uint64_t v = 0;
    bool any = false;
    while (p < json.size() && json[p] >= '0' && json[p] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(json[p] - '0');
        ++p;
        any = true;
    }
    out = v;
    return any;
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

    auto intArg = [&](int &i) {
        if (i + 1 >= argc) {
            std::cerr << "speccheck: " << argv[i]
                      << " needs a value\n";
            std::exit(2);
        }
        return std::stoi(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--arch" && i + 1 < argc) {
            const std::string a = argv[++i];
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
            base.maxStates = static_cast<std::uint64_t>(
                std::stoll(argv[++i]));
        } else if (arg == "--conformance") {
            conformance = intArg(i);
        } else if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (arg == "--drift" && i + 1 < argc) {
            drift = std::stod(argv[++i]);
        } else if (arg == "-h" || arg == "--help") {
            std::cout
                << "usage: pimdsm-speccheck [--arch agg|coma|numa|all]\n"
                   "  [--nodes N] [--lines N] [--reads N] [--writes N]\n"
                   "  [--evicts N] [--faults N] [--max-states N]\n"
                   "  [--json PATH] [--baseline PATH] [--drift F]\n"
                   "  [--conformance N]\n";
            return 0;
        } else {
            std::cerr << "speccheck: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }

    std::string baseline;
    if (!baselinePath.empty()) {
        std::ifstream f(baselinePath, std::ios::binary);
        if (!f) {
            std::cerr << "speccheck: cannot read " << baselinePath
                      << "\n";
            return 2;
        }
        std::ostringstream os;
        os << f.rdbuf();
        baseline = os.str();
    }

    bool ok = true;
    std::ostringstream js;
    js << "{\n  \"nodes\": " << base.nodes
       << ",\n  \"lines\": " << base.lines
       << ",\n  \"reads\": " << base.reads
       << ",\n  \"writes\": " << base.writes
       << ",\n  \"evicts\": " << base.evicts
       << ",\n  \"faults\": " << base.faults << ",\n  \"archs\": {";
    bool first = true;

    for (ArchKind arch : archs) {
        SpecExplorerConfig cfg = base;
        cfg.arch = arch;
        SpecExplorer ex(cfg);
        const SpecExplorerResult res = ex.run();

        std::cout << archKey(arch) << ": " << res.states << " states, "
                  << res.transitions << " transitions, "
                  << res.revisits << " revisits, " << res.porPruned
                  << " POR-pruned, " << res.faultTransitions
                  << " fault edges, " << res.terminals
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
            std::uint64_t want = 0;
            if (!baselineStates(baseline, archKey(arch), want)) {
                std::cerr << "speccheck: baseline has no states count "
                             "for "
                          << archKey(arch) << "\n";
                return 2;
            }
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

        js << (first ? "" : ",") << "\n    \"" << archKey(arch)
           << "\": {\"states\": " << res.states
           << ", \"transitions\": " << res.transitions
           << ", \"revisits\": " << res.revisits
           << ", \"porPruned\": " << res.porPruned
           << ", \"faultTransitions\": " << res.faultTransitions
           << ", \"terminals\": " << res.terminals
           << ", \"rowChecks\": " << res.rowChecks
           << ", \"maxDepth\": " << res.maxDepth
           << ", \"truncated\": "
           << (res.truncated ? "true" : "false") << "}";
        first = false;

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
    js << "\n  }\n}\n";

    if (!jsonPath.empty()) {
        if (!writeFile(jsonPath, js.str()))
            return 2;
        std::cout << "wrote " << jsonPath << "\n";
    }
    std::cout << (ok ? "speccheck: OK" : "speccheck: FAILED") << "\n";
    return ok ? 0 : 1;
}
