#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kElemBytes = 16; // complex double

/** One FFT thread phase: local butterfly pass or blocked transpose. */
class FftStream : public BatchStream
{
  public:
    FftStream(std::uint64_t points, int phase, ThreadId tid,
              int num_threads)
        : points_(points), phase_(phase), tid_(tid), nt_(num_threads),
          part_(points, tid, num_threads)
    {
        srcBase_ = kDataBase;
        dstBase_ = kDataBase + points_ * kElemBytes;
        elem_ = part_.begin;
    }

  protected:
    void
    refill() override
    {
        switch (phase_) {
          case 0: // init: first-touch own partition of both arrays
            refillInit();
            return;
          case 1:
          case 3:
          case 5: // local butterfly pass: read src, write dst
            {
                if (elem_ >= part_.end) {
                    finish();
                    return;
                }
                // ~5 instructions per complex element, 4 elems/line.
                for (; elem_ < part_.end && room(3); elem_ += 4) {
                    emit(Op::compute(48));
                    emit(Op::load(srcBase_ + elem_ * kElemBytes, 32));
                    emit(Op::store(dstBase_ + elem_ * kElemBytes));
                }
                return;
            }
          case 2:
          case 4: // all-to-all blocked transpose: read peers' blocks
            {
                if (static_cast<int>(step_) >= nt_) {
                    finish();
                    return;
                }
                const int peer = (tid_ + 1 + static_cast<int>(step_)) %
                                 nt_;
                const ThreadSlice peer_part(points_, peer, nt_);
                // Block (tid, peer): our slice of the peer's partition.
                const std::uint64_t blk =
                    peer_part.size() / static_cast<std::uint64_t>(nt_);
                const std::uint64_t begin =
                    peer_part.begin + blk * static_cast<std::uint64_t>(
                                                tid_);
                const std::uint64_t end =
                    peer == tid_ ? begin
                                 : std::min(peer_part.end, begin + blk);
                const Addr rd = phase_ == 2 ? dstBase_ : srcBase_;
                const Addr wr = phase_ == 2 ? srcBase_ : dstBase_;
                for (; begin + blockOff_ < end && room(3);
                     blockOff_ += 4) {
                    emit(Op::compute(16));
                    emit(Op::load(rd + (begin + blockOff_) * kElemBytes,
                                  40));
                    emit(Op::store(wr +
                                   (part_.begin + blockOff_) * kElemBytes));
                }
                if (begin + blockOff_ >= end) {
                    ++step_;
                    blockOff_ = 0;
                }
                return;
            }
          default:
            finish();
        }
    }

  private:
    void
    refillInit()
    {
        if (elem_ >= part_.end) {
            if (initArray_ == 1) {
                finish();
                return;
            }
            initArray_ = 1;
            elem_ = part_.begin;
        }
        const Addr base = initArray_ == 0 ? srcBase_ : dstBase_;
        // The data initialization loop is blocked differently from the
        // FFT passes, so half of each partition is first-touched (and
        // page-placed) by a neighboring thread.
        const std::uint64_t shift = part_.size() / 2;
        for (; elem_ < part_.end && room(2); elem_ += 4) {
            const std::uint64_t ie = (elem_ + shift) % points_;
            emit(Op::compute(4));
            emit(Op::store(base + ie * kElemBytes));
        }
    }

    std::uint64_t points_;
    int phase_;
    ThreadId tid_;
    int nt_;
    ThreadSlice part_;
    Addr srcBase_;
    Addr dstBase_;
    /** Next element of part_ (init and butterfly passes). */
    std::uint64_t elem_;
    /** Init: 0 while first-touching src, 1 for dst. */
    int initArray_ = 0;
    /** Transpose: peers done, and the next offset in this one's
     *  block. */
    std::uint64_t step_ = 0;
    std::uint64_t blockOff_ = 0;
};

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
    return std::make_unique<FftStream>(points_, phase, tid, num_threads);
}

std::uint64_t
FftWorkload::footprintBytes() const
{
    return 2 * points_ * kElemBytes;
}

} // namespace pimdsm
