/**
 * @file
 * Heap-allocation and heap-footprint budgets of one simulated run.
 *
 * The per-access path (MSHRs, completions, home queues, the write
 * buffer, workload op streams) must not touch the heap; see DESIGN.md
 * section 3.1. This binary replaces the global operator new with a
 * counting one that also tracks live heap bytes, so it is built apart
 * from pimdsm_tests.
 *
 * Reference point: quick-mode AGG fft (8 threads, 1/2 AGG, 75%
 * pressure), oracle off, second run of the process. Before the
 * per-access containers were fixed this run allocated 1,511,260
 * times; afterwards 3,179, nearly all of them per page (first-touch
 * placement) or per processor, not per access; 2,739 once each
 * op-batch buffer was reserved at its bound instead of grown, and
 * still 2,739 with coroutine op streams (one frame per stream
 * replaced one batch buffer); 2,442 once directory entries and line
 * versions moved into per-page blocks and the page map into a FlatMap
 * (no node per page).
 * Allocation counts are deterministic, so the ceiling sits just above
 * the 3,179, with room only for standard-library growth policies to
 * differ: one allocation per miss (tens of thousands here) blows
 * through it. fft takes no locks, so a second count covers the sync
 * path: quick AGG barnes, whose lock and barrier completions
 * allocated until completions became trivially copyable closures
 * (6,673 -> 5,166; fft stayed at 2,439).
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "report/experiment.hh"
#include "workload/workload.hh"

namespace
{

std::uint64_t allocCount = 0;
/** Heap bytes held through operator new (usable sizes), and their
 *  high-water mark. */
std::size_t liveBytes = 0;
std::size_t peakLiveBytes = 0;

void
release(void *p) noexcept
{
    liveBytes -= malloc_usable_size(p);
    std::free(p);
}

} // namespace

// The array and nothrow forms route through these. No simulator type
// is over-aligned, so the aligned forms never run.
void *
operator new(std::size_t n)
{
    ++allocCount;
    if (void *p = std::malloc(n ? n : 1)) {
        liveBytes += malloc_usable_size(p);
        peakLiveBytes = std::max(peakLiveBytes, liveBytes);
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }

namespace pimdsm
{
namespace
{

/** Quick-mode AGG run spec on 8 threads. */
BuildSpec
quickAgg(double pressure, int d_ratio)
{
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.pressure = pressure;
    spec.dRatio = d_ratio;
    return spec;
}

/** One run of @p wl as @p spec with the coherence oracle off: these
 *  budgets guard the timed (oracle-off) configuration. */
RunResult
run(const Workload &wl, const BuildSpec &spec)
{
    MachineConfig cfg = buildConfig(wl, spec);
    cfg.check.enabled = false;
    return runWorkload(cfg, wl);
}

/** Peak live heap bytes of the second of two runs of @p app, above
 *  the level before it. */
std::size_t
secondRunPeakBytes(const char *app, const BuildSpec &spec)
{
    auto wl = makeWorkload(app);
    const RunResult warm = run(*wl, spec);
    peakLiveBytes = liveBytes;
    const std::size_t base = liveBytes;
    const RunResult r = run(*wl, spec);
    EXPECT_EQ(r.totalTicks, warm.totalTicks);
    return peakLiveBytes - base;
}

TEST(AllocBudget, QuickAggFftRunStaysUnderCeiling)
{
    auto wl = makeWorkload("fft");
    const BuildSpec spec = quickAgg(0.75, 2);

    // The first run also builds process-wide tables (protocol spec,
    // dispatch tables); count the second.
    const RunResult warm = run(*wl, spec);
    const std::uint64_t before = allocCount;
    const RunResult r = run(*wl, spec);
    const std::uint64_t allocs = allocCount - before;

    ASSERT_EQ(r.totalTicks, warm.totalTicks);
    ASSERT_GT(r.messages, 250'000u); // the run did real protocol work
    EXPECT_LE(allocs, 3'500u)
        << "per-access heap allocation crept back into the hot path";
}

/**
 * Quick AGG barnes (8 threads, 1/1 AGG, 25% pressure), second run:
 * the sync-heavy counterpart of the fft count. Its lock and barrier
 * accesses once each heap-allocated a std::function completion
 * capturing the resume callback (6,673 allocations in all, about
 * 1,490 of them sync accesses); with trivially copyable completions
 * and the resume callbacks parked in SyncManager's table the run
 * allocates 5,166 times, and the ceiling sits just above that.
 */
TEST(AllocBudget, QuickAggBarnesRunStaysUnderCeiling)
{
    auto wl = makeWorkload("barnes");
    const BuildSpec spec = quickAgg(0.25, 1);
    const RunResult warm = run(*wl, spec);
    const std::uint64_t before = allocCount;
    const RunResult r = run(*wl, spec);
    const std::uint64_t allocs = allocCount - before;
    ASSERT_EQ(r.totalTicks, warm.totalTicks);
    EXPECT_LE(allocs, 5'300u)
        << "a sync or per-access allocation crept back into the hot path";
}

/**
 * Peak live heap of the same quick AGG fft run as the count test. It
 * was 4,586,024 B while directory entries and line versions lived in
 * line-keyed FlatMaps (64 B entries, tables doubled to stay under 75%
 * load) and 2,244,232 B once they moved into dense per-page blocks
 * with 40 B entries. It fell to 1,973,344 B when each P-node's 64-slot
 * MSHR hash table became a fixed 16-slot file and the event ring
 * shrank from 16,384 to 8,192 buckets, and to 1,527,592 B once cache
 * tags took 16 B, directory entries 32 B and D-node store entries
 * 24 B. The ceiling sits about 100 KB above that.
 */
TEST(AllocBudget, QuickAggFftPeakHeapStaysUnderCeiling)
{
    EXPECT_LE(secondRunPeakBytes("fft", quickAgg(0.75, 2)), 1'630'000u)
        << "a per-run buffer grew past its bound";
}

/**
 * What a run keeps resident on the heap: MSHR files, directory
 * tables, tagged-memory tags, D-node stores, and one op plus one
 * coroutine frame per op stream. Quick AGG barnes (8 threads, 1/1
 * AGG, 25% pressure), oracle off, second run of the process. Peak
 * live heap bytes above the pre-run level were 4,656,672 while
 * refills were unbounded (barnes emitted all 4,096 tree cells in one
 * 8,192-op batch) and directory entries took 80 B; about 3,593,900
 * with 256-op batch buffers; 3,489,088 with coroutine op streams;
 * 2,689,808 with directory entries and line versions in per-page
 * blocks; 2,413,472 with a fixed 16-slot MSHR file per P-node and an
 * 8,192-bucket event ring; 1,794,544 with 16 B cache tags, 32 B
 * directory entries and 24 B D-node store entries. The peak is
 * deterministic, so the ceiling sits about 100 KB above it.
 */
TEST(AllocBudget, QuickAggBarnesPeakHeapStaysUnderCeiling)
{
    EXPECT_LE(secondRunPeakBytes("barnes", quickAgg(0.25, 1)),
              1'895'000u)
        << "a per-run buffer grew past its bound";
}

} // namespace
} // namespace pimdsm
