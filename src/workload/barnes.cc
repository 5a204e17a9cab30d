#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kBodyBytes = 64;
constexpr std::uint64_t kCellBytes = 64;

/** Irregular N-body force/update phases over a shared tree. */
OpGen
barnesOps(std::uint64_t bodies, std::uint64_t cells, int phase,
          ThreadId tid, int nt)
{
    const ThreadSlice part(bodies, tid, nt);
    Rng rng(streamSeed(4, phase, tid));
    const Addr body_base = kDataBase;
    const Addr cell_base = kDataBase + bodies * kBodyBytes;

    if (phase == 0) {
        for (std::uint64_t b = part.begin; b < part.end; ++b) {
            co_yield Op::compute(10);
            co_yield Op::store(body_base + b * kBodyBytes);
        }
        // The tree is built serially by the master thread (as in the
        // original), so every cell page is first-touched -- and
        // placed -- at thread 0's node.
        if (tid == 0) {
            for (std::uint64_t c = 0; c < cells; ++c) {
                co_yield Op::compute(6);
                co_yield Op::store(cell_base + c * kCellBytes);
            }
        }
        co_return;
    }

    // Costzones repartitioning drifts body ownership every iteration,
    // so placement never matches perfectly.
    const std::uint64_t drift =
        static_cast<std::uint64_t>(phase / 2) * part.size() / 4;

    if ((phase - 1) % 2 == 0) { // force
        for (std::uint64_t i = part.begin; i < part.end; ++i) {
            const Addr body = body_base + (i + drift) % bodies * kBodyBytes;
            co_yield Op::load(body, 12);
            // The accumulator is updated in place as the walk
            // proceeds, so ownership is requested right away.
            co_yield Op::store(body);
            // Tree walk: ~12 cell visits, half in the hot tree top
            // (widely shared, read-only), half scattered.
            for (int v = 0; v < 12; ++v) {
                std::uint64_t c;
                if (rng.chance(0.5))
                    c = rng.nextBounded(64);
                else
                    c = rng.nextBounded(cells);
                co_yield Op::load(cell_base + c * kCellBytes, 10);
                co_yield Op::compute(18);
            }
            co_yield Op::compute(60);
            co_yield Op::store(body);
        }
        co_return;
    }

    // update
    for (std::uint64_t i = part.begin; i < part.end; ++i) {
        const Addr body = body_base + (i + drift) % bodies * kBodyBytes;
        co_yield Op::load(body, 14);
        co_yield Op::compute(16);
        co_yield Op::store(body);
    }
    // Tree rebuild: lock-protected scattered cell updates.
    const ThreadSlice cell_part(cells, tid, nt);
    for (std::uint64_t i = 0; i < cell_part.size(); i += 32) {
        co_yield Op::lock(kSyncBase + 256);
        for (int j = 0; j < 8; ++j) {
            const std::uint64_t c = rng.nextBounded(cells);
            co_yield Op::store(cell_base + c * kCellBytes);
        }
        co_yield Op::compute(80);
        co_yield Op::unlock(kSyncBase + 256);
    }
}

} // namespace

BarnesWorkload::BarnesWorkload(int scale)
    : bodies_(static_cast<std::uint64_t>(16384) * scale),
      cells_(bodies_ / 4)
{
}

std::string
BarnesWorkload::phaseName(int p) const
{
    if (p == 0)
        return "init";
    return (p - 1) % 2 == 0 ? "force" : "update";
}

std::unique_ptr<OpStream>
BarnesWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<OpGen>(
        barnesOps(bodies_, cells_, phase, tid, num_threads));
}

std::uint64_t
BarnesWorkload::footprintBytes() const
{
    return bodies_ * kBodyBytes + cells_ * kCellBytes;
}

} // namespace pimdsm
