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
 * permutation (streaming reads + scattered remote stores).
 */
class RadixStream : public BatchStream
{
  public:
    RadixStream(std::uint64_t keys, int radix, int phase, ThreadId tid,
                int num_threads)
        : keys_(keys), radix_(radix), tid_(tid), nt_(num_threads),
          part_(keys, tid, num_threads),
          rng_(streamSeed(2, phase, tid))
    {
        inBase_ = kDataBase;
        outBase_ = kDataBase + keys_ * kKeyBytes;
        histBase_ = outBase_ + keys_ * kKeyBytes;
        key_ = part_.begin;
        if (phase == 0) {
            kind_ = Kind::Init;
        } else {
            const int sub = (phase - 1) % 3;
            kind_ = sub == 0 ? Kind::Histogram
                             : sub == 1 ? Kind::Prefix : Kind::Permute;
            // Passes alternate the direction of the key arrays; the
            // access pattern is identical, so we reuse inBase_.
        }
    }

  protected:
    void
    refill() override
    {
        switch (kind_) {
          case Kind::Init:
            refillInit();
            return;
          case Kind::Histogram:
            refillHistogram();
            return;
          case Kind::Prefix:
            refillPrefix();
            return;
          case Kind::Permute:
            refillPermute();
            return;
        }
    }

  private:
    enum class Kind { Init, Histogram, Prefix, Permute };

    Addr histOf(ThreadId t) const
    {
        return histBase_ + static_cast<std::uint64_t>(t) * radix_ * 8;
    }

    void
    refillInit()
    {
        if (key_ < part_.end) {
            for (; key_ < part_.end && room(2); key_ += 8) {
                emit(Op::compute(8));
                emit(Op::store(inBase_ + key_ * kKeyBytes));
            }
            return;
        }
        if (!histInit_) {
            histInit_ = sweep(histOf(tid_), histOf(tid_ + 1), sweepOff_,
                              2, true);
            return;
        }
        // Out array is written during permutation; touch our slice so
        // its pages get first-touch homes too.
        if (sweep(outBase_ + part_.begin * kKeyBytes,
                  outBase_ + part_.end * kKeyBytes, sweepOff_, 2, true))
            finish();
    }

    void
    refillHistogram()
    {
        if (key_ >= part_.end) {
            finish();
            return;
        }
        for (; key_ < part_.end && room(4); key_ += 8) {
            emit(Op::compute(48));
            emit(Op::load(inBase_ + key_ * kKeyBytes, 36));
            // Two counter bumps in our private histogram per key line.
            for (int i = 0; i < 2; ++i) {
                const std::uint64_t bin = rng_.nextBounded(radix_);
                emit(Op::store(histOf(tid_) + bin * 8));
            }
        }
    }

    void
    refillPrefix()
    {
        // Read the digit slice of every thread's histogram, then fold
        // into a lock-protected global rank array.
        if (static_cast<int>(step_) >= nt_) {
            emit(Op::lock(kSyncBase + 64));
            emit(Op::compute(200));
            emit(Op::store(histOf(nt_) + static_cast<std::uint64_t>(
                                             tid_) * 64));
            emit(Op::unlock(kSyncBase + 64));
            finish();
            return;
        }
        const ThreadId peer = static_cast<ThreadId>(
            (tid_ + step_) % static_cast<std::uint64_t>(nt_));
        const std::uint64_t slice = radix_ / nt_;
        const Addr lo = histOf(peer) + tid_ * slice * 8;
        if (sweep(lo, lo + slice * 8, sweepOff_, 6, false, 40))
            ++step_;
    }

    void
    refillPermute()
    {
        if (key_ >= part_.end) {
            finish();
            return;
        }
        for (; key_ < part_.end && room(5); key_ += 8) {
            emit(Op::compute(48));
            emit(Op::load(inBase_ + key_ * kKeyBytes, 36));
            // Keys scatter across the whole output array: remote
            // ownership requests — radix's heavy coherence traffic.
            for (int i = 0; i < 3; ++i) {
                const std::uint64_t pos = rng_.nextBounded(keys_);
                emit(Op::store(outBase_ + pos * kKeyBytes));
            }
        }
    }

    std::uint64_t keys_;
    int radix_;
    ThreadId tid_;
    int nt_;
    ThreadSlice part_;
    Rng rng_;
    Kind kind_;
    Addr inBase_;
    Addr outBase_;
    Addr histBase_;
    /** Next key of part_ (init, histogram and permute). */
    std::uint64_t key_;
    /** Byte offset into the sweep in progress. */
    std::uint64_t sweepOff_ = 0;
    /** Prefix: peers whose histogram slice is read. */
    std::uint64_t step_ = 0;
    bool histInit_ = false;
};

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
    return std::make_unique<RadixStream>(keys_, radix_, phase, tid,
                                         num_threads);
}

std::uint64_t
RadixWorkload::footprintBytes() const
{
    // in + out keys + histograms (+ global ranks, rounded in).
    return 2 * keys_ * kKeyBytes +
           static_cast<std::uint64_t>(radix_) * 8 * 40;
}

} // namespace pimdsm
