#include "workload/apps.hh"

#include <algorithm>

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kElemBytes = 16; // complex double

/** One FFT thread phase: local butterfly pass or blocked transpose. */
OpGen
fftOps(std::uint64_t points, int phase, ThreadId tid, int nt)
{
    const ThreadSlice part(points, tid, nt);
    const Addr src = kDataBase;
    const Addr dst = kDataBase + points * kElemBytes;
    switch (phase) {
      case 0: // init: first-touch own partition of both arrays
        {
            // The data initialization loop is blocked differently from
            // the FFT passes, so half of each partition is
            // first-touched (and page-placed) by a neighboring thread.
            const std::uint64_t shift = part.size() / 2;
            for (const Addr base : {src, dst}) {
                for (std::uint64_t e = part.begin; e < part.end; e += 4) {
                    const std::uint64_t ie = (e + shift) % points;
                    co_yield Op::compute(4);
                    co_yield Op::store(base + ie * kElemBytes);
                }
            }
            break;
        }
      case 1:
      case 3:
      case 5: // local butterfly pass: read src, write dst
        // ~5 instructions per complex element, 4 elems/line.
        for (std::uint64_t e = part.begin; e < part.end; e += 4) {
            co_yield Op::compute(48);
            co_yield Op::load(src + e * kElemBytes, 32);
            co_yield Op::store(dst + e * kElemBytes);
        }
        break;
      case 2:
      case 4: // all-to-all blocked transpose: read peers' blocks
        {
            const Addr rd = phase == 2 ? dst : src;
            const Addr wr = phase == 2 ? src : dst;
            for (int step = 0; step < nt; ++step) {
                const int peer = (tid + 1 + step) % nt;
                const ThreadSlice peer_part(points, peer, nt);
                // Block (tid, peer): our slice of the peer's partition.
                const std::uint64_t blk =
                    peer_part.size() / static_cast<std::uint64_t>(nt);
                const std::uint64_t begin =
                    peer_part.begin +
                    blk * static_cast<std::uint64_t>(tid);
                const std::uint64_t end =
                    peer == tid ? begin
                                : std::min(peer_part.end, begin + blk);
                for (std::uint64_t off = 0; begin + off < end; off += 4) {
                    co_yield Op::compute(16);
                    co_yield Op::load(rd + (begin + off) * kElemBytes, 40);
                    co_yield Op::store(wr +
                                       (part.begin + off) * kElemBytes);
                }
            }
            break;
        }
    }
}

} // namespace

FftWorkload::FftWorkload(int scale)
    : points_(static_cast<std::uint64_t>(65536) * scale)
{
}

std::string
FftWorkload::phaseName(int p) const
{
    switch (p) {
      case 0:
        return "init";
      case 2:
      case 4:
        return "transpose";
      default:
        return "fft-pass";
    }
}

std::unique_ptr<OpStream>
FftWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<OpGen>(fftOps(points_, phase, tid, num_threads));
}

std::uint64_t
FftWorkload::footprintBytes() const
{
    return 2 * points_ * kElemBytes;
}

} // namespace pimdsm
