#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kCell = 8; // double

/** Red-black stencil sweep over block-row-partitioned grids. */
class OceanStream : public BatchStream
{
  public:
    OceanStream(std::uint64_t grid, int phase, ThreadId tid,
                int num_threads)
        : g_(grid), phase_(phase), tid_(tid),
          rows_(grid, tid, num_threads)
    {
        aBase_ = kDataBase;
        bBase_ = kDataBase + g_ * g_ * kCell;
    }

  protected:
    void
    refill() override
    {
        if (phase_ == 0) {
            refillInit();
            return;
        }
        // Iteration i reads the array written by iteration i-1.
        const Addr rd = phase_ % 2 ? aBase_ : bBase_;
        const Addr wr = phase_ % 2 ? bBase_ : aBase_;

        const std::uint64_t r = rows_.begin + step_;
        if (r >= rows_.end) {
            if (!reduced_) {
                reduced_ = true;
                // Global convergence check: a hot lock-protected sum.
                emit(Op::lock(kSyncBase + 128));
                emit(Op::load(kSyncBase + 192, 8));
                emit(Op::compute(40));
                emit(Op::store(kSyncBase + 192));
                emit(Op::unlock(kSyncBase + 128));
                return;
            }
            finish();
            return;
        }

        const Addr row = rd + r * g_ * kCell;
        const Addr north = r > 0 ? row - g_ * kCell : row;
        const Addr south = r + 1 < g_ ? row + g_ * kCell : row;
        for (; col_ < g_ * kCell && room(5); col_ += 64) {
            emit(Op::compute(100));
            emit(Op::load(row + col_, 28));
            emit(Op::load(north + col_, 28));
            emit(Op::load(south + col_, 28));
            emit(Op::store(wr + r * g_ * kCell + col_));
        }
        if (col_ >= g_ * kCell) {
            col_ = 0;
            ++step_;
        }
    }

  private:
    void
    refillInit()
    {
        const std::uint64_t r = rows_.begin + step_;
        if (r >= rows_.end) {
            finish();
            return;
        }
        // Initialization is scheduled differently from the relaxation
        // sweeps: part of each thread's rows are first-touched by a
        // neighbor (multigrid setup vs. solver schedules).
        const std::uint64_t ir = (r + rows_.size() / 2) % g_;
        const Addr row = (initArray_ == 0 ? aBase_ : bBase_) +
                         ir * g_ * kCell;
        for (; col_ < g_ * kCell && room(2); col_ += 64) {
            emit(Op::compute(4));
            emit(Op::store(row + col_));
        }
        if (col_ < g_ * kCell)
            return;
        col_ = 0;
        if (++initArray_ == 2) {
            initArray_ = 0;
            ++step_;
        }
    }

    std::uint64_t g_;
    int phase_;
    ThreadId tid_;
    ThreadSlice rows_;
    Addr aBase_;
    Addr bBase_;
    /** Rows of rows_ done, and the next byte of the row in progress. */
    std::uint64_t step_ = 0;
    std::uint64_t col_ = 0;
    /** Init: the row in progress is in a (0) or b (1). */
    int initArray_ = 0;
    bool reduced_ = false;
};

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
    return std::make_unique<OceanStream>(grid_, phase, tid, num_threads);
}

std::uint64_t
OceanWorkload::footprintBytes() const
{
    return 2 * grid_ * grid_ * kCell;
}

} // namespace pimdsm
