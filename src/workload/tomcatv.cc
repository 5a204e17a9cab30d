#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8;
constexpr int kArrays = 3; // x, y meshes + residuals

/** Alternating row sweeps and strided column sweeps. */
OpGen
tomcatvOps(std::uint64_t g, int phase, ThreadId tid, int nt)
{
    const ThreadSlice rows(g, tid, nt);
    const std::uint64_t row_bytes = g * kCell;
    auto arr = [&](int a) {
        return kDataBase + static_cast<std::uint64_t>(a) * g * row_bytes;
    };

    if (phase == 0) {
        // Mesh generation touches rows in a different schedule than
        // the solver sweeps.
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

    if ((phase - 1) % 2 == 0) { // row sweep
        for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
            for (std::uint64_t c = 0; c < row_bytes; c += 64) {
                const Addr off = r * row_bytes + c;
                co_yield Op::compute(110);
                co_yield Op::load(arr(0) + off, 30);
                co_yield Op::load(arr(1) + off, 30);
                co_yield Op::load(arr(2) + off, 30);
                co_yield Op::store(arr(0) + off);
            }
        }
        co_return;
    }

    // Column sweep: stride-g accesses touch one line per element and
    // walk through every thread's row partition (cross-thread sharing
    // + poor locality).
    const ThreadSlice cols(g, tid, nt);
    for (std::uint64_t c = cols.begin; c < cols.end; ++c) {
        for (std::uint64_t r = 0; r < g; r += 8) {
            co_yield Op::compute(60);
            co_yield Op::load(arr(0) + (r * g + c) * kCell, 16);
            co_yield Op::store(arr(1) + (r * g + c) * kCell);
        }
    }
}

} // namespace

TomcatvWorkload::TomcatvWorkload(int scale)
    : grid_(static_cast<std::uint64_t>(256) * scale)
{
}

std::string
TomcatvWorkload::phaseName(int p) const
{
    if (p == 0)
        return "init";
    return (p - 1) % 2 == 0 ? "row-sweep" : "col-sweep";
}

std::unique_ptr<OpStream>
TomcatvWorkload::makeStream(int phase, ThreadId tid,
                            int num_threads) const
{
    return std::make_unique<OpGen>(
        tomcatvOps(grid_, phase, tid, num_threads));
}

std::uint64_t
TomcatvWorkload::footprintBytes() const
{
    return kArrays * grid_ * grid_ * kCell;
}

} // namespace pimdsm
