#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8;
constexpr int kArrays = 4; // u, v, p, unew

/** Finite-difference sweeps: 3 source arrays read, 1 written. */
class SwimStream : public BatchStream
{
  public:
    SwimStream(std::uint64_t grid, int phase, ThreadId tid,
               int num_threads)
        : g_(grid), phase_(phase),
          rows_(grid, tid, num_threads)
    {
    }

  protected:
    void
    refill() override
    {
        const std::uint64_t r = rows_.begin + step_;
        if (r >= rows_.end) {
            finish();
            return;
        }
        const std::uint64_t row_bytes = g_ * kCell;

        if (phase_ == 0) {
            // The initialization loops are scheduled differently from
            // the compute sweeps (as with the SUIF-parallelized
            // original), so half of each thread's working rows are
            // first-touched -- and page-placed -- by a neighbor.
            const std::uint64_t shift = rows_.size() / 2;
            const std::uint64_t ir = (r + shift) % g_;
            const Addr row = arr(initArray_) + ir * row_bytes;
            for (; col_ < row_bytes && room(2); col_ += 64) {
                emit(Op::compute(4));
                emit(Op::store(row + col_));
            }
            if (col_ < row_bytes)
                return;
            col_ = 0;
            if (++initArray_ == kArrays) {
                initArray_ = 0;
                ++step_;
            }
            return;
        }

        // Read u, v, p (with a boundary row of u), write unew. The
        // row working set fits the 32 KB L1; the partition does not
        // fit the L2 (Table 3's working-set structure).
        const Addr north = r > 0 ? arr(0) + (r - 1) * row_bytes
                                 : arr(0) + r * row_bytes;
        for (; col_ < row_bytes && room(6); col_ += 64) {
            emit(Op::compute(150));
            emit(Op::load(arr(0) + r * row_bytes + col_, 30));
            emit(Op::load(arr(1) + r * row_bytes + col_, 30));
            emit(Op::load(arr(2) + r * row_bytes + col_, 30));
            emit(Op::load(north + col_, 30));
            emit(Op::store(arr(3) + r * row_bytes + col_));
        }
        if (col_ >= row_bytes) {
            col_ = 0;
            ++step_;
        }
    }

  private:
    Addr arr(int a) const
    {
        return kDataBase +
               static_cast<std::uint64_t>(a) * g_ * g_ * kCell;
    }

    std::uint64_t g_;
    int phase_;
    ThreadSlice rows_;
    /** Rows of rows_ done, and the next byte of the row in progress. */
    std::uint64_t step_ = 0;
    std::uint64_t col_ = 0;
    /** Init: the array whose row is in progress. */
    int initArray_ = 0;
};

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
    return std::make_unique<SwimStream>(grid_, phase, tid, num_threads);
}

std::uint64_t
SwimWorkload::footprintBytes() const
{
    return kArrays * grid_ * grid_ * kCell;
}

} // namespace pimdsm
