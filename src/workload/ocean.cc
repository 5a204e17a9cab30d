#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8; // double

/** Red-black stencil sweep over block-row-partitioned grids. */
OpGen
oceanOps(std::uint64_t g, int phase, ThreadId tid, int nt)
{
    const ThreadSlice rows(g, tid, nt);
    const std::uint64_t row_bytes = g * kCell;
    const Addr a_base = kDataBase;
    const Addr b_base = kDataBase + g * row_bytes;

    if (phase == 0) {
        // Initialization is scheduled differently from the relaxation
        // sweeps: part of each thread's rows are first-touched by a
        // neighbor (multigrid setup vs. solver schedules).
        for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
            const std::uint64_t ir = (r + rows.size() / 2) % g;
            for (const Addr base : {a_base, b_base}) {
                for (std::uint64_t c = 0; c < row_bytes; c += 64) {
                    co_yield Op::compute(4);
                    co_yield Op::store(base + ir * row_bytes + c);
                }
            }
        }
        co_return;
    }

    // Iteration i reads the array written by iteration i-1.
    const Addr rd = phase % 2 ? a_base : b_base;
    const Addr wr = phase % 2 ? b_base : a_base;
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        const Addr row = rd + r * row_bytes;
        const Addr north = r > 0 ? row - row_bytes : row;
        const Addr south = r + 1 < g ? row + row_bytes : row;
        for (std::uint64_t c = 0; c < row_bytes; c += 64) {
            co_yield Op::compute(100);
            co_yield Op::load(row + c, 28);
            co_yield Op::load(north + c, 28);
            co_yield Op::load(south + c, 28);
            co_yield Op::store(wr + r * row_bytes + c);
        }
    }
    // Global convergence check: a hot lock-protected sum.
    co_yield Op::lock(kSyncBase + 128);
    co_yield Op::load(kSyncBase + 192, 8);
    co_yield Op::compute(40);
    co_yield Op::store(kSyncBase + 192);
    co_yield Op::unlock(kSyncBase + 128);
}

} // namespace

OceanWorkload::OceanWorkload(int scale)
    : grid_(static_cast<std::uint64_t>(258) * scale)
{
}

std::string
OceanWorkload::phaseName(int p) const
{
    return p == 0 ? "init" : "relax";
}

std::unique_ptr<OpStream>
OceanWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<OpGen>(oceanOps(grid_, phase, tid, num_threads));
}

std::uint64_t
OceanWorkload::footprintBytes() const
{
    return 2 * grid_ * grid_ * kCell;
}

} // namespace pimdsm
