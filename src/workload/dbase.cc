#include "workload/apps.hh"

#include "workload/stream_util.hh"

namespace pimdsm
{

namespace
{

constexpr std::uint64_t kRecBytes = 128;
constexpr std::uint64_t kChunkRecs = 64; // 8 KB chunks
constexpr int kLocks = 64;
constexpr double kSelectivity = 0.25;
constexpr std::uint64_t kJoinPasses = 8;
/** Most ops one hash insert / one join probe emits. */
constexpr std::size_t kInsertOps = 5;
constexpr std::size_t kProbeOps = 3;

/**
 * TPC-D Q3 skeleton.
 *  hash phase:  scan customer chunks (no reuse) -> filter -> locked
 *               hash-bucket inserts (scattered).
 *  join phase:  scan order chunks -> probe a hot subset of the hash
 *               table (reused across probes) -> aggregate privately.
 * With CIM, the chunk scans run on the chunk's home D-node and only
 * matching records are touched by the P-node.
 */
class DbaseStream : public BatchStream
{
  public:
    DbaseStream(std::uint64_t customers, std::uint64_t orders,
                std::uint64_t buckets, bool cim, int phase,
                ThreadId tid, int num_threads)
        : nc_(customers), no_(orders), nb_(buckets), cim_(cim),
          phase_(phase), tid_(tid), nt_(num_threads),
          rng_(streamSeed(7, phase, tid))
    {
        custBase_ = kDataBase;
        ordBase_ = custBase_ + nc_ * kRecBytes;
        hashBase_ = ordBase_ + no_ * kRecBytes;
        resultBase_ = hashBase_ + nb_ * kRecBytes;
    }

  protected:
    void
    refill() override
    {
        switch (phase_) {
          case 0:
            refillInit();
            return;
          case 1:
            refillHash();
            return;
          default:
            refillJoin();
            return;
        }
    }

  private:
    Addr lockFor(std::uint64_t bucket) const
    {
        return kSyncBase + 512 +
               (bucket % kLocks) * 64;
    }

    /** Chunks are owned round-robin: chunk c belongs to c % nt_. */
    bool ownsChunk(std::uint64_t c) const
    {
        return static_cast<int>(c % nt_) == tid_;
    }

    /** The scan phases process chunks with a shifted assignment: the
     *  buffer pool placed table pages without regard to who scans
     *  them, so placement never matches the scan schedule. */
    bool scansChunk(std::uint64_t c) const
    {
        return static_cast<int>((c + nt_ / 2) % nt_) == tid_;
    }

    void
    refillInit()
    {
        if (initRegion_ >= 3) {
            // Private result area.
            const Addr lo = resultBase_ +
                            static_cast<std::uint64_t>(tid_) * 65536;
            if (sweep(lo, lo + 65536, sweepOff_, 2, true))
                finish();
            return;
        }
        struct Region { Addr base; std::uint64_t recs; };
        const Region regions[3] = {
            {custBase_, nc_}, {ordBase_, no_}, {hashBase_, nb_}};
        const Region &reg = regions[initRegion_];
        const std::uint64_t chunks =
            (reg.recs + kChunkRecs - 1) / kChunkRecs;
        while (step_ < chunks && !ownsChunk(step_))
            ++step_;
        if (step_ >= chunks) {
            ++initRegion_;
            step_ = 0;
            return;
        }
        const std::uint64_t first = step_ * kChunkRecs;
        const std::uint64_t last =
            std::min(reg.recs, first + kChunkRecs);
        for (std::uint64_t r = first; r < last; ++r) {
            emit(Op::compute(6));
            emit(Op::store(reg.base + r * kRecBytes));
        }
        ++step_;
    }

    void
    refillHash()
    {
        const std::uint64_t chunks =
            (nc_ + kChunkRecs - 1) / kChunkRecs;
        while (step_ < chunks && !scansChunk(step_))
            ++step_;
        if (step_ >= chunks) {
            finish();
            return;
        }
        const std::uint64_t first = step_ * kChunkRecs;
        const std::uint64_t last = std::min(nc_, first + kChunkRecs);
        const std::uint64_t recs = last - first;
        const auto selected = static_cast<std::uint64_t>(
            recs * kSelectivity);

        if (cim_) {
            // The home D-node scans the chunk; we only touch matches.
            Op cim;
            cim.kind = Op::Kind::Cim;
            cim.addr = custBase_ + first * kRecBytes;
            cim.cimRecords = recs;
            cim.cimMatches = selected;
            emit(cim);
            for (std::uint64_t i = 0; i < selected; ++i) {
                const std::uint64_t r =
                    first + rng_.nextBounded(recs);
                emit(Op::load(custBase_ + r * kRecBytes, 24));
                emitInsert();
            }
            ++step_;
            return;
        }
        for (; rec_ < recs && room(2 + kInsertOps); ++rec_) {
            emit(Op::compute(200));
            emit(Op::load(custBase_ + (first + rec_) * kRecBytes, 48));
            if (rng_.chance(kSelectivity))
                emitInsert();
        }
        if (rec_ == recs) {
            rec_ = 0;
            ++step_;
        }
    }

    void
    emitInsert()
    {
        const std::uint64_t b = rng_.nextBounded(nb_);
        emit(Op::lock(lockFor(b)));
        emit(Op::load(hashBase_ + b * kRecBytes, 8));
        emit(Op::compute(20));
        emit(Op::store(hashBase_ + b * kRecBytes));
        emit(Op::unlock(lockFor(b)));
    }

    void
    refillJoin()
    {
        const std::uint64_t chunks =
            (no_ + kChunkRecs - 1) / kChunkRecs;
        while (step_ < chunks && !scansChunk(step_))
            ++step_;
        if (step_ >= chunks) {
            finish();
            return;
        }
        const std::uint64_t first = step_ * kChunkRecs;
        const std::uint64_t last = std::min(no_, first + kChunkRecs);
        const std::uint64_t recs = last - first;

        auto probe = [&] {
            // Probes concentrate on the hot (selected) buckets, a set
            // small enough to replicate into each P-node's memory --
            // the reuse that makes the join phase P-friendly.
            const std::uint64_t b = rng_.nextBounded(nb_ / 16);
            emit(Op::load(hashBase_ + b * kRecBytes, 12));
            emit(Op::compute(48));
            if (rng_.chance(0.25)) {
                const Addr res =
                    resultBase_ +
                    static_cast<std::uint64_t>(tid_) * 65536 +
                    rng_.nextBounded(1024) * 64;
                emit(Op::store(res));
            }
        };

        if (cim_) {
            const auto matches = static_cast<std::uint64_t>(
                recs * kSelectivity);
            Op cim;
            cim.kind = Op::Kind::Cim;
            cim.addr = ordBase_ + first * kRecBytes;
            cim.cimRecords = recs;
            cim.cimMatches = matches;
            emit(cim);
            for (std::uint64_t i = 0; i < matches; ++i) {
                const std::uint64_t r =
                    first + rng_.nextBounded(recs);
                emit(Op::load(ordBase_ + r * kRecBytes, 24));
                // Matched records get the full join treatment.
                emit(Op::compute(1800));
                probe();
            }
            ++step_;
            return;
        }
        // "Once a P-node brings a chunk into its cache, it can reuse
        // it to some extent" (Section 4.2): the two joins walk the
        // chunk repeatedly, so only the first pass pays remote
        // latency. rec_ counts (pass, record) pairs, pass-major.
        for (; rec_ < kJoinPasses * recs && room(2 + kProbeOps); ++rec_) {
            const std::uint64_t r = first + rec_ % recs;
            emit(Op::compute(900));
            emit(Op::load(ordBase_ + r * kRecBytes, 48));
            if (rec_ >= recs)
                probe();
        }
        if (rec_ == kJoinPasses * recs) {
            rec_ = 0;
            ++step_;
        }
    }

    std::uint64_t nc_, no_, nb_;
    bool cim_;
    int phase_;
    ThreadId tid_;
    int nt_;
    Rng rng_;
    Addr custBase_, ordBase_, hashBase_, resultBase_;
    std::uint64_t step_ = 0;
    /** Hash and join: next record (join: (pass, record) pair) of the
     *  chunk in progress. */
    std::uint64_t rec_ = 0;
    /** Init: byte offset into the result-area sweep. */
    std::uint64_t sweepOff_ = 0;
    int initRegion_ = 0;
};

} // namespace

DbaseWorkload::DbaseWorkload(int scale, bool cim)
    : customers_(static_cast<std::uint64_t>(16384) * scale),
      orders_(static_cast<std::uint64_t>(16384) * scale),
      buckets_(static_cast<std::uint64_t>(8192) * scale),
      cim_(cim)
{
}

std::string
DbaseWorkload::phaseName(int p) const
{
    switch (p) {
      case 0:
        return "init";
      case 1:
        return "hash";
      default:
        return "join";
    }
}

std::unique_ptr<OpStream>
DbaseWorkload::makeStream(int phase, ThreadId tid, int num_threads) const
{
    return std::make_unique<DbaseStream>(customers_, orders_, buckets_,
                                         cim_, phase, tid, num_threads);
}

std::uint64_t
DbaseWorkload::footprintBytes() const
{
    return (customers_ + orders_ + buckets_) * kRecBytes +
           64 * 65536; // private result areas
}

} // namespace pimdsm
