#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kBodyBytes = 64;
constexpr std::uint64_t kCellBytes = 64;

/** Irregular N-body force/update phases over a shared tree. */
class BarnesStream : public BatchStream
{
  public:
    BarnesStream(std::uint64_t bodies, std::uint64_t cells, int phase,
                 ThreadId tid, int num_threads)
        : bodies_(bodies), cells_(cells), phase_(phase), tid_(tid),
          part_(bodies, tid, num_threads),
          cellPart_(cells, tid, num_threads),
          rng_(streamSeed(4, phase, tid))
    {
        bodyBase_ = kDataBase;
        cellBase_ = kDataBase + bodies_ * kBodyBytes;
        force_ = phase > 0 && (phase - 1) % 2 == 0;
        body_ = part_.begin;
    }

  protected:
    void
    refill() override
    {
        if (phase_ == 0) {
            refillInit();
            return;
        }
        if (force_)
            refillForce();
        else
            refillUpdate();
    }

  private:
    /** Ops one body emits in the force phase. */
    static constexpr std::size_t kForceOps = 2 + 12 * 2 + 2;
    /** Ops one tree-rebuild critical section emits. */
    static constexpr std::size_t kRebuildOps = 1 + 8 + 2;

    void
    refillInit()
    {
        if (body_ < part_.end) {
            for (; body_ < part_.end && room(2); ++body_) {
                emit(Op::compute(10));
                emit(Op::store(bodyBase_ + body_ * kBodyBytes));
            }
            return;
        }
        // The tree is built serially by the master thread (as in the
        // original), so every cell page is first-touched -- and
        // placed -- at thread 0's node.
        if (tid_ == 0 && cell_ < cells_) {
            for (; cell_ < cells_ && room(2); ++cell_) {
                emit(Op::compute(6));
                emit(Op::store(cellBase_ + cell_ * kCellBytes));
            }
            return;
        }
        finish();
    }

    /** Costzones repartitioning drifts body ownership every
     *  iteration, so placement never matches perfectly. */
    std::uint64_t
    driftedBody(std::uint64_t b) const
    {
        const std::uint64_t drift =
            static_cast<std::uint64_t>(phase_ / 2) * part_.size() / 4;
        return (b + drift) % bodies_;
    }

    void
    refillForce()
    {
        if (body_ >= part_.end) {
            finish();
            return;
        }
        for (; body_ < part_.end && room(kForceOps); ++body_) {
            const std::uint64_t b = driftedBody(body_);
            emit(Op::load(bodyBase_ + b * kBodyBytes, 12));
            // The accumulator is updated in place as the walk
            // proceeds, so ownership is requested right away.
            emit(Op::store(bodyBase_ + b * kBodyBytes));
            // Tree walk: ~12 cell visits, half in the hot tree top
            // (widely shared, read-only), half scattered.
            for (int v = 0; v < 12; ++v) {
                std::uint64_t c;
                if (rng_.chance(0.5))
                    c = rng_.nextBounded(64);
                else
                    c = rng_.nextBounded(cells_);
                emit(Op::load(cellBase_ + c * kCellBytes, 10));
                emit(Op::compute(18));
            }
            emit(Op::compute(60));
            emit(Op::store(bodyBase_ + b * kBodyBytes));
        }
    }

    void
    refillUpdate()
    {
        if (body_ < part_.end) {
            for (; body_ < part_.end && room(3); ++body_) {
                const std::uint64_t b = driftedBody(body_);
                emit(Op::load(bodyBase_ + b * kBodyBytes, 14));
                emit(Op::compute(16));
                emit(Op::store(bodyBase_ + b * kBodyBytes));
            }
            return;
        }
        // Tree rebuild: lock-protected scattered cell updates.
        if (cell_ >= cellPart_.size()) {
            finish();
            return;
        }
        for (; cell_ < cellPart_.size() && room(kRebuildOps);
             cell_ += 32) {
            emit(Op::lock(kSyncBase + 256));
            for (int j = 0; j < 8; ++j) {
                const std::uint64_t c = rng_.nextBounded(cells_);
                emit(Op::store(cellBase_ + c * kCellBytes));
            }
            emit(Op::compute(80));
            emit(Op::unlock(kSyncBase + 256));
        }
    }

    std::uint64_t bodies_;
    std::uint64_t cells_;
    int phase_;
    ThreadId tid_;
    ThreadSlice part_;
    ThreadSlice cellPart_;
    Rng rng_;
    Addr bodyBase_;
    Addr cellBase_;
    bool force_;
    /** Next body of part_ (every phase). */
    std::uint64_t body_;
    /** Next cell: init (all cells) and update's rebuild (cellPart_
     *  offsets). */
    std::uint64_t cell_ = 0;
};

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
    return std::make_unique<BarnesStream>(bodies_, cells_, phase, tid,
                                          num_threads);
}

std::uint64_t
BarnesWorkload::footprintBytes() const
{
    return bodies_ * kBodyBytes + cells_ * kCellBytes;
}

} // namespace pimdsm
