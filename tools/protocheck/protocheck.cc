/**
 * @file
 * pimdsm-protocheck: static analyzer for the declarative coherence
 * protocol spec (src/proto/spec.cc).
 *
 * Runs the full check suite (coverage, virtual-network
 * deadlock-freedom, cost-model resolution, reachability, routing)
 * over each machine organization's roles, and optionally regenerates
 * the protocol documentation:
 *
 *   pimdsm-protocheck [--md docs/protocol.md] [--dot docs/protocol.dot]
 *                     [--json report.json]
 *
 * Exit status 0 when every check passes, 1 on any violation (CI fails
 * on drift by diffing the regenerated docs against the committed
 * copies). --json writes a machine-readable per-arch report (uploaded
 * as a CI artifact) whether or not the checks pass.
 */

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "proto/spec.hh"
#include "proto/spec_check.hh"
#include "report/json.hh"
#include "sim/config.hh"

namespace
{

struct ArchReport
{
    std::string name;
    int transitions = 0;
    pimdsm::spec::CheckReport report;
};

/** Deterministic JSON rendering of the full check run. */
std::string
renderReport(const std::vector<ArchReport> &archs, int totalTransitions,
             bool ok)
{
    std::ostringstream os;
    pimdsm::JsonWriter w(os);
    w.beginObject()
        .field("ok", ok)
        .field("totalTransitions", totalTransitions)
        .field("roles", pimdsm::spec::kNumRoles)
        .field("msgTypes", pimdsm::kNumMsgTypes)
        .key("archs")
        .beginObject();
    for (const ArchReport &a : archs) {
        w.key(a.name)
            .beginObject()
            .field("ok", a.report.ok())
            .field("transitions", a.transitions)
            .key("violations")
            .beginArray();
        for (const auto &viol : a.report.violations) {
            w.beginObject(pimdsm::JsonLayout::Inline)
                .field("kind", pimdsm::spec::violationKindName(viol.kind))
                .field("where", viol.where)
                .field("detail", viol.detail)
                .end();
        }
        w.end().end();
    }
    w.end().end();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pimdsm;

    std::string mdPath;
    std::string dotPath;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--md" || arg == "--dot" || arg == "--json") &&
            i + 1 >= argc) {
            std::cerr << "protocheck: " << arg << " needs a value\n";
            return 2;
        }
        if (arg == "--md") {
            mdPath = argv[++i];
        } else if (arg == "--dot") {
            dotPath = argv[++i];
        } else if (arg == "--json") {
            jsonPath = argv[++i];
        } else if (arg == "-h" || arg == "--help") {
            std::cout << "usage: pimdsm-protocheck [--md PATH] "
                         "[--dot PATH] [--json PATH]\n";
            return 0;
        } else {
            std::cerr << "protocheck: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }

    const spec::ProtocolSpec &p = spec::ProtocolSpec::instance();

    bool ok = true;
    int transitions = 0;
    std::vector<ArchReport> archReports;
    for (ArchKind arch :
         {ArchKind::Agg, ArchKind::Coma, ArchKind::Numa}) {
        const MachineConfig cfg = makeBaseConfig(arch);
        const auto &roles = spec::ProtocolSpec::rolesOfArch(arch);
        const spec::CheckReport rep = spec::checkSpec(p, roles, cfg);
        int n = 0;
        for (const auto &t : p.transitions()) {
            for (spec::Role r : roles) {
                if (t.role == r)
                    ++n;
            }
        }
        transitions += n;
        if (rep.ok()) {
            std::cout << archName(arch) << ": OK (" << n
                      << " transitions)\n";
        } else {
            ok = false;
            std::cout << archName(arch) << ": "
                      << rep.violations.size() << " violation(s)\n"
                      << rep.toString();
        }
        archReports.push_back({archName(arch), n, rep});
    }
    std::cout << "total: " << transitions << " transitions across "
              << spec::kNumRoles << " roles, " << kNumMsgTypes
              << " message types\n";

    const std::vector<spec::Role> allRoles = {
        spec::Role::AggCompute, spec::Role::ComaCompute,
        spec::Role::NumaCompute, spec::Role::AggHome,
        spec::Role::ComaHome,   spec::Role::NumaHome};
    const std::pair<const std::string &, std::function<std::string()>>
        outputs[] = {
            {jsonPath,
             [&] { return renderReport(archReports, transitions, ok); }},
            {mdPath,
             [&] {
                 return spec::renderMarkdown(
                     p, makeBaseConfig(ArchKind::Agg));
             }},
            {dotPath, [&] { return spec::renderDot(p, allRoles); }},
        };
    for (const auto &[path, render] : outputs) {
        if (path.empty())
            continue;
        if (!writeFile(path, render())) {
            std::cerr << "protocheck: cannot write " << path << "\n";
            return 2;
        }
        std::cout << "wrote " << path << "\n";
    }

    return ok ? 0 : 1;
}
