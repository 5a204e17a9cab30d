#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8;
constexpr int kArrays = 4; // u, v, p, unew

/** Finite-difference sweeps: 3 source arrays read, 1 written. */
OpGen
swimOps(std::uint64_t g, int phase, ThreadId tid, int nt)
{
    const ThreadSlice rows(g, tid, nt);
    const std::uint64_t row_bytes = g * kCell;
    auto arr = [&](int a) {
        return kDataBase + static_cast<std::uint64_t>(a) * g * row_bytes;
    };

    if (phase == 0) {
        // The initialization loops are scheduled differently from the
        // compute sweeps (as with the SUIF-parallelized original), so
        // half of each thread's working rows are first-touched -- and
        // page-placed -- by a neighbor.
        for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
            const std::uint64_t ir = (r + rows.size() / 2) % g;
            for (int a = 0; a < kArrays; ++a) {
                for (std::uint64_t c = 0; c < row_bytes; c += 64) {
                    co_yield Op::compute(4);
                    co_yield Op::store(arr(a) + ir * row_bytes + c);
                }
            }
        }
        co_return;
    }

    // Read u, v, p (with a boundary row of u), write unew. The row
    // working set fits the 32 KB L1; the partition does not fit the
    // L2 (Table 3's working-set structure).
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        const Addr north = arr(0) + (r > 0 ? r - 1 : r) * row_bytes;
        for (std::uint64_t c = 0; c < row_bytes; c += 64) {
            const Addr off = r * row_bytes + c;
            co_yield Op::compute(150);
            co_yield Op::load(arr(0) + off, 30);
            co_yield Op::load(arr(1) + off, 30);
            co_yield Op::load(arr(2) + off, 30);
            co_yield Op::load(north + c, 30);
            co_yield Op::store(arr(3) + off);
        }
    }
}

} // namespace

SwimWorkload::SwimWorkload(int scale)
    : grid_(static_cast<std::uint64_t>(256) * scale)
{
}

std::string
SwimWorkload::phaseName(int p) const
{
    return p == 0 ? "init" : "sweep";
}

std::unique_ptr<OpStream>
SwimWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<OpGen>(swimOps(grid_, phase, tid, num_threads));
}

std::uint64_t
SwimWorkload::footprintBytes() const
{
    return kArrays * grid_ * grid_ * kCell;
}

} // namespace pimdsm
