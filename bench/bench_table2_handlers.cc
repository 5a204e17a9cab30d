/**
 * @file
 * Table 2: protocol handler costs. The paper measured its handlers on
 * an R10K; here we (a) print the configured latency/occupancy
 * constants the simulator charges, and (b) run a google-benchmark
 * microbenchmark of this repo's actual software implementations of
 * the D-node handler data paths (Directory lookup + Data/Pointer
 * array manipulation), grounding the constants.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "proto/agg_dnode.hh"
#include "proto/directory.hh"
#include "report/report.hh"
#include "sim/config.hh"
#include "sim/random.hh"

using namespace pimdsm;

namespace
{

void
printConfiguredTable()
{
    const HandlerCosts c = MachineConfig{}.handlers;
    TablePrinter t({"handler", "paper latency", "model latency",
                    "paper occupancy", "model occupancy"});
    t.addRow({"Read", "40-50", std::to_string(c.readLatency), "80",
              std::to_string(c.readOccupancy)});
    t.addRow({"Read Exclusive", "40-50",
              std::to_string(c.readExLatency), "80 + 10/inval",
              std::to_string(c.readExOccupancy) + " + " +
                  std::to_string(c.perInvalOccupancy) + "/inval"});
    t.addRow({"Acknowledgment", "40", std::to_string(c.ackLatency),
              "40", std::to_string(c.ackOccupancy)});
    t.addRow({"Write Back", "40", std::to_string(c.writeBackLatency),
              "140", std::to_string(c.writeBackOccupancy)});
    std::cout << "Table 2: protocol handler costs in CPU cycles "
                 "(NUMA/COMA hardware runs at "
              << c.hardwareFactor
              << "x of these)\n";
    t.print(std::cout);
    std::cout << "\nMicrobenchmarks of this repo's handler data "
                 "structures follow (ns/op on the build host):\n\n";
}

/** Directory lookup + state update, the core of the Read handler. */
void
BM_DirectoryReadPath(benchmark::State &state)
{
    const MachineConfig cfg;
    DirectoryTable dir(cfg.mem.lineBytes, cfg.pageBytes);
    Rng rng(1);
    for (int i = 0; i < 4096; ++i)
        dir.entry(static_cast<Addr>(i) * 128);
    for (auto _ : state) {
        const Addr line = rng.nextBounded(4096) * 128;
        DirEntry *e = dir.find(line);
        benchmark::DoNotOptimize(e);
        e->addSharer(static_cast<NodeId>(rng.nextBounded(32)));
        e->state = DirEntry::State::Shared;
    }
}
BENCHMARK(BM_DirectoryReadPath);

/** FreeList allocation + SharedList link: first-read mastership. */
void
BM_DataPointerAllocateLink(benchmark::State &state)
{
    DNodeStore store(8192);
    std::vector<std::uint32_t> slots;
    slots.reserve(8192);
    Addr next = 1 << 20;
    for (auto _ : state) {
        bool reused;
        Addr dropped;
        const auto slot = store.allocate(next, reused, dropped);
        next += 128;
        store.linkShared(slot);
        slots.push_back(slot);
        if (slots.size() == 4096) {
            for (auto s : slots) {
                store.unlinkShared(s);
                store.free(s);
            }
            slots.clear();
        }
    }
}
BENCHMARK(BM_DataPointerAllocateLink);

/** Slot release, the core of the Read-Exclusive handler's space
 *  reclamation (dirty lines keep no home placeholder). */
void
BM_DataPointerRelease(benchmark::State &state)
{
    DNodeStore store(8192);
    bool reused;
    Addr dropped;
    std::vector<std::uint32_t> slots;
    for (int i = 0; i < 8192; ++i)
        slots.push_back(store.allocate(i * 128, reused, dropped));
    std::size_t idx = 0;
    for (auto _ : state) {
        store.free(slots[idx]);
        slots[idx] = store.allocate((idx + 100000) * 128, reused,
                                    dropped);
        idx = (idx + 1) % slots.size();
    }
}
BENCHMARK(BM_DataPointerRelease);

/** SharedList FIFO reuse under memory pressure. */
void
BM_SharedListReuse(benchmark::State &state)
{
    DNodeStore store(4096);
    bool reused;
    Addr dropped;
    for (int i = 0; i < 4096; ++i) {
        const auto s = store.allocate(i * 128, reused, dropped);
        store.linkShared(s);
    }
    Addr next = 1 << 24;
    for (auto _ : state) {
        const auto s = store.allocate(next, reused, dropped);
        next += 128;
        benchmark::DoNotOptimize(dropped);
        store.linkShared(s); // hand mastership out again
    }
}
BENCHMARK(BM_SharedListReuse);

} // namespace

int
main(int argc, char **argv)
{
    printConfiguredTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
