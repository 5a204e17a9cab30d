/**
 * @file
 * Heap-allocation budget of one simulated run.
 *
 * The per-access path (MSHRs, completions, home queues, the write
 * buffer, workload op batches) must not touch the heap; see DESIGN.md
 * section 3.1. This binary replaces the global operator new with a
 * counting one, so it is built apart from pimdsm_tests.
 *
 * Reference point: quick-mode AGG fft (8 threads, 1/2 AGG, 75%
 * pressure), oracle off, second run of the process. Before the
 * per-access containers were fixed this run allocated 1,511,260
 * times; afterwards 3,179, nearly all of them per page (first-touch
 * placement) or per processor, not per access. Allocation counts are
 * deterministic, so the ceiling sits just above the measured value,
 * with room only for standard-library growth policies to differ: one
 * allocation per miss (tens of thousands here) blows through it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "report/experiment.hh"
#include "workload/workload.hh"

namespace
{

std::uint64_t allocCount = 0;

} // namespace

// The array and nothrow forms route through these. No simulator type
// is over-aligned, so the aligned forms never run.
void *
operator new(std::size_t n)
{
    ++allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace pimdsm
{
namespace
{

TEST(AllocBudget, QuickAggFftRunStaysUnderCeiling)
{
    auto wl = makeWorkload("fft");
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.pressure = 0.75;
    spec.dRatio = 2;

    // The first run also builds process-wide tables (protocol spec,
    // dispatch tables); count the second.
    const RunResult warm = runWorkload(*wl, spec);
    const std::uint64_t before = allocCount;
    const RunResult r = runWorkload(*wl, spec);
    const std::uint64_t allocs = allocCount - before;

    ASSERT_EQ(r.totalTicks, warm.totalTicks);
    ASSERT_GT(r.messages, 250'000u); // the run did real protocol work
    EXPECT_LE(allocs, 3'500u)
        << "per-access heap allocation crept back into the hot path";
}

} // namespace
} // namespace pimdsm
