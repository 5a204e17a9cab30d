/**
 * @file
 * Annotated protocol walk-through on a 3-node AGG machine: issues a
 * small scripted sequence of accesses with protocol tracing enabled,
 * so every coherence message (requests, forwards, invalidations,
 * writebacks, mastership grants) can be read on stderr alongside the
 * narration on stdout.
 *
 * This is the fastest way to see the paper's Section 2.2.2 protocol
 * in action: cold read with mastership grant, second reader, write
 * with invalidations (and the home Data slot being reclaimed), 3-hop
 * dirty read with sharing writeback, and a capacity writeback.
 */

#include <iostream>

#include "machine/machine.hh"
#include "sim/log.hh"

using namespace pimdsm;

namespace
{

void
doAccess(Machine &m, NodeId n, Addr a, bool write, const char *what)
{
    std::cout << "\n--- node " << n << (write ? " writes " : " reads ")
              << "0x" << std::hex << a << std::dec << ": " << what
              << "\n";
    bool done = false;
    Tick lat = 0;
    const Tick start = m.eq().curTick();
    m.compute(n)->access(a, write, [&](Tick t, ReadService s) {
        done = true;
        lat = t - start;
        std::cout << "    -> served by " << readServiceName(s)
                  << " in " << lat << " cycles\n";
    });
    m.eq().run();
    if (!done)
        panic("access did not complete");
}

void
showHome(Machine &m, NodeId home, Addr a)
{
    const DirEntry *e = m.home(home)->directory().find(
        blockAlign(a, 128));
    if (!e)
        return;
    std::cout << "    home state: "
              << (e->state == DirEntry::State::Dirty
                      ? "Dirty"
                      : e->state == DirEntry::State::Shared
                            ? "Shared"
                            : "Uncached")
              << ", sharers=0x" << std::hex << e->sharers << std::dec
              << ", masterOut=" << e->masterOut
              << ", homeHasData=" << e->homeHasData << "\n";
    auto *agg = static_cast<AggDNodeHome *>(m.home(home));
    std::cout << "    D-node store: " << agg->store().usedSlots()
              << " slots used, SharedList length "
              << agg->store().sharedLen() << "\n";
}

} // namespace

int
main()
{
    Trace::enable(); // every message prints on stderr

    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = 2;
    cfg.numThreads = 2;
    cfg.numDNodes = 1;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    fitMesh(cfg.net, cfg.totalNodes());
    Machine m(cfg);

    const Addr line = 1ull << 20;
    const NodeId home = 2; // the only D-node

    std::cout << "AGG machine: P-nodes {0, 1}, D-node {2}. Messages "
                 "trace on stderr.\n";

    doAccess(m, 0, line, false,
             "cold read; the home allocates a Data slot, zero-fills, "
             "and hands out mastership (SharedMaster)");
    showHome(m, home, line);

    doAccess(m, 1, line, false,
             "second reader gets a plain Shared copy from the home");
    showHome(m, home, line);

    doAccess(m, 1, line, true,
             "write: the home invalidates node 0 (the master) and "
             "frees its Data slot -- dirty lines keep no home "
             "placeholder");
    showHome(m, home, line);

    doAccess(m, 0, line, false,
             "read of a dirty line: 3-hop forward to node 1, which "
             "downgrades to SharedMaster and sends a sharing "
             "writeback so the home regains a copy");
    m.eq().run();
    showHome(m, home, line);

    doAccess(m, 0, line + 64, false,
             "second half of the same memory line hits node 0's own "
             "copy");

    std::cout << "\n--- node 1 reads conflicting lines to force a "
                 "capacity writeback of its SharedMaster copy\n";
    for (int i = 1; i <= 8; ++i) {
        bool done = false;
        m.compute(1)->access(line + i * 8 * 128, false,
                             [&](Tick, ReadService) { done = true; });
        m.eq().run();
    }
    m.eq().run();
    showHome(m, home, line);

    m.checkInvariants();
    std::cout << "\nall invariants hold; see DESIGN.md for the "
                 "protocol details.\n";
    return 0;
}
