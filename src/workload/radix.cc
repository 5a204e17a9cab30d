#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kKeyBytes = 8;

/**
 * Per-pass phase kinds: histogram (local), prefix-sum (all-to-all
 * reads of every thread's histogram + locked global accumulate), and
 * permutation (streaming reads + scattered remote stores). Passes
 * alternate the direction of the key arrays; the access pattern is
 * identical, so every pass reads `in` and writes `out`.
 */
OpGen
radixOps(std::uint64_t keys, int radix, int phase, ThreadId tid, int nt)
{
    const ThreadSlice part(keys, tid, nt);
    Rng rng(streamSeed(2, phase, tid));
    const Addr in = kDataBase;
    const Addr out = kDataBase + keys * kKeyBytes;
    const Addr hist_base = out + keys * kKeyBytes;
    auto hist_of = [&](ThreadId t) {
        return hist_base + static_cast<std::uint64_t>(t) * radix * 8;
    };

    if (phase == 0) {
        for (std::uint64_t k = part.begin; k < part.end; k += 8) {
            co_yield Op::compute(8);
            co_yield Op::store(in + k * kKeyBytes);
        }
        for (Addr a = hist_of(tid); a < hist_of(tid + 1); a += 64) {
            co_yield Op::compute(2);
            co_yield Op::load(a, 28);
            co_yield Op::store(a);
        }
        // Out array is written during permutation; touch our slice so
        // its pages get first-touch homes too.
        for (Addr a = out + part.begin * kKeyBytes;
             a < out + part.end * kKeyBytes; a += 64) {
            co_yield Op::compute(2);
            co_yield Op::load(a, 28);
            co_yield Op::store(a);
        }
        co_return;
    }

    switch ((phase - 1) % 3) {
      case 0: // histogram
        for (std::uint64_t k = part.begin; k < part.end; k += 8) {
            co_yield Op::compute(48);
            co_yield Op::load(in + k * kKeyBytes, 36);
            // Two counter bumps in our private histogram per key line.
            for (int i = 0; i < 2; ++i) {
                const std::uint64_t bin = rng.nextBounded(radix);
                co_yield Op::store(hist_of(tid) + bin * 8);
            }
        }
        break;
      case 1: // prefix
        {
            // Read the digit slice of every thread's histogram, then
            // fold into a lock-protected global rank array.
            const std::uint64_t slice = radix / nt;
            for (int step = 0; step < nt; ++step) {
                const auto peer = static_cast<ThreadId>((tid + step) % nt);
                const Addr lo = hist_of(peer) + tid * slice * 8;
                for (Addr a = lo; a < lo + slice * 8; a += 64) {
                    co_yield Op::compute(6);
                    co_yield Op::load(a, 40);
                }
            }
            co_yield Op::lock(kSyncBase + 64);
            co_yield Op::compute(200);
            co_yield Op::store(hist_of(nt) +
                               static_cast<std::uint64_t>(tid) * 64);
            co_yield Op::unlock(kSyncBase + 64);
            break;
        }
      default: // permute
        for (std::uint64_t k = part.begin; k < part.end; k += 8) {
            co_yield Op::compute(48);
            co_yield Op::load(in + k * kKeyBytes, 36);
            // Keys scatter across the whole output array: remote
            // ownership requests — radix's heavy coherence traffic.
            for (int i = 0; i < 3; ++i) {
                const std::uint64_t pos = rng.nextBounded(keys);
                co_yield Op::store(out + pos * kKeyBytes);
            }
        }
        break;
    }
}

} // namespace

RadixWorkload::RadixWorkload(int scale)
    : keys_(static_cast<std::uint64_t>(131072) * scale)
{
}

std::string
RadixWorkload::phaseName(int p) const
{
    if (p == 0)
        return "init";
    switch ((p - 1) % 3) {
      case 0:
        return "histogram";
      case 1:
        return "prefix";
      default:
        return "permute";
    }
}

std::unique_ptr<OpStream>
RadixWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<OpGen>(
        radixOps(keys_, radix_, phase, tid, num_threads));
}

std::uint64_t
RadixWorkload::footprintBytes() const
{
    // in + out keys + histograms (+ global ranks, rounded in).
    return 2 * keys_ * kKeyBytes +
           static_cast<std::uint64_t>(radix_) * 8 * 40;
}

} // namespace pimdsm
