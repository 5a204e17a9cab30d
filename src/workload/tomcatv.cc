#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8;
constexpr int kArrays = 3; // x, y meshes + residuals

/** Alternating row sweeps and strided column sweeps. */
class TomcatvStream : public BatchStream
{
  public:
    TomcatvStream(std::uint64_t grid, int phase, ThreadId tid,
                  int num_threads)
        : g_(grid), phase_(phase),
          rows_(grid, tid, num_threads),
          cols_(grid, tid, num_threads)
    {
        rowPhase_ = phase_ > 0 && (phase_ - 1) % 2 == 0;
    }

  protected:
    void
    refill() override
    {
        const std::uint64_t row_bytes = g_ * kCell;

        if (phase_ == 0) {
            const std::uint64_t r = rows_.begin + step_;
            if (r >= rows_.end) {
                finish();
                return;
            }
            // Mesh generation touches rows in a different schedule
            // than the solver sweeps.
            const std::uint64_t ir = (r + rows_.size() / 2) % g_;
            const Addr row = arr(initArray_) + ir * row_bytes;
            for (; pos_ < row_bytes && room(2); pos_ += 64) {
                emit(Op::compute(4));
                emit(Op::store(row + pos_));
            }
            if (pos_ < row_bytes)
                return;
            pos_ = 0;
            if (++initArray_ == kArrays) {
                initArray_ = 0;
                ++step_;
            }
            return;
        }

        if (rowPhase_) {
            const std::uint64_t r = rows_.begin + step_;
            if (r >= rows_.end) {
                finish();
                return;
            }
            for (; pos_ < row_bytes && room(5); pos_ += 64) {
                const Addr off = r * row_bytes + pos_;
                emit(Op::compute(110));
                emit(Op::load(arr(0) + off, 30));
                emit(Op::load(arr(1) + off, 30));
                emit(Op::load(arr(2) + off, 30));
                emit(Op::store(arr(0) + off));
            }
            if (pos_ >= row_bytes) {
                pos_ = 0;
                ++step_;
            }
            return;
        }

        // Column sweep: stride-g accesses touch one line per element
        // and walk through every thread's row partition (cross-thread
        // sharing + poor locality).
        const std::uint64_t c = cols_.begin + step_;
        if (c >= cols_.end) {
            finish();
            return;
        }
        for (; pos_ < g_ && room(3); pos_ += 8) {
            emit(Op::compute(60));
            emit(Op::load(arr(0) + (pos_ * g_ + c) * kCell, 16));
            emit(Op::store(arr(1) + (pos_ * g_ + c) * kCell));
        }
        if (pos_ >= g_) {
            pos_ = 0;
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
    ThreadSlice cols_;
    bool rowPhase_;
    /** Rows (column sweep: columns) done, and the position in the one
     *  in progress: a byte of the row, or the column sweep's row. */
    std::uint64_t step_ = 0;
    std::uint64_t pos_ = 0;
    /** Init: the array whose row is in progress. */
    int initArray_ = 0;
};

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
    return std::make_unique<TomcatvStream>(grid_, phase, tid,
                                           num_threads);
}

std::uint64_t
TomcatvWorkload::footprintBytes() const
{
    return kArrays * grid_ * grid_ * kCell;
}

} // namespace pimdsm
