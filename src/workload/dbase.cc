#include "workload/apps.hh"

#include <algorithm>

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

/**
 * TPC-D Q3 skeleton.
 *  hash phase:  scan customer chunks (no reuse) -> filter -> locked
 *               hash-bucket inserts (scattered).
 *  join phase:  scan order chunks -> probe a hot subset of the hash
 *               table (reused across probes) -> aggregate privately.
 * With CIM, the chunk scans run on the chunk's home D-node and only
 * matching records are touched by the P-node.
 */
OpGen
dbaseOps(std::uint64_t nc, std::uint64_t no, std::uint64_t nb, bool cim,
         int phase, ThreadId tid, int nt)
{
    Rng rng(streamSeed(7, phase, tid));
    const Addr cust_base = kDataBase;
    const Addr ord_base = cust_base + nc * kRecBytes;
    const Addr hash_base = ord_base + no * kRecBytes;
    const Addr result = hash_base + nb * kRecBytes +
                        static_cast<std::uint64_t>(tid) * 65536;
    auto chunks = [](std::uint64_t recs) {
        return (recs + kChunkRecs - 1) / kChunkRecs;
    };
    // The scan phases process chunks with a shifted assignment: the
    // buffer pool placed table pages without regard to who scans
    // them, so placement never matches the scan schedule.
    auto scans_chunk = [&](std::uint64_t c) {
        return static_cast<int>((c + nt / 2) % nt) == tid;
    };
    // The home D-node scans @p recs records at @p a; the P-node then
    // touches only the matches. It is sent even when none match.
    auto cim_scan = [](Addr a, std::uint64_t recs) {
        Op op;
        op.kind = Op::Kind::Cim;
        op.addr = a;
        op.cimRecords = recs;
        op.cimMatches = static_cast<std::uint64_t>(recs * kSelectivity);
        return op;
    };

    if (phase == 0) {
        // Chunks are owned round-robin: chunk c belongs to c % nt.
        struct Region { Addr base; std::uint64_t recs; };
        for (const Region reg : {Region{cust_base, nc},
                                 Region{ord_base, no},
                                 Region{hash_base, nb}}) {
            for (std::uint64_t c = tid; c < chunks(reg.recs); c += nt) {
                const std::uint64_t last =
                    std::min(reg.recs, (c + 1) * kChunkRecs);
                for (std::uint64_t r = c * kChunkRecs; r < last; ++r) {
                    co_yield Op::compute(6);
                    co_yield Op::store(reg.base + r * kRecBytes);
                }
            }
        }
        // Private result area.
        for (Addr a = result; a < result + 65536; a += 64) {
            co_yield Op::compute(2);
            co_yield Op::load(a, 28);
            co_yield Op::store(a);
        }
        co_return;
    }

    if (phase == 1) { // hash
        for (std::uint64_t c = 0; c < chunks(nc); ++c) {
            if (!scans_chunk(c))
                continue;
            const std::uint64_t first = c * kChunkRecs;
            const std::uint64_t recs =
                std::min(nc, first + kChunkRecs) - first;
            const Op scan = cim_scan(cust_base + first * kRecBytes, recs);
            if (cim)
                co_yield scan;
            const std::uint64_t n = cim ? scan.cimMatches : recs;
            for (std::uint64_t i = 0; i < n; ++i) {
                if (cim) {
                    const std::uint64_t r = first + rng.nextBounded(recs);
                    co_yield Op::load(cust_base + r * kRecBytes, 24);
                } else {
                    co_yield Op::compute(200);
                    co_yield Op::load(cust_base + (first + i) * kRecBytes,
                                      48);
                    if (!rng.chance(kSelectivity))
                        continue;
                }
                const std::uint64_t b = rng.nextBounded(nb);
                const Addr lock = kSyncBase + 512 + (b % kLocks) * 64;
                co_yield Op::lock(lock);
                co_yield Op::load(hash_base + b * kRecBytes, 8);
                co_yield Op::compute(20);
                co_yield Op::store(hash_base + b * kRecBytes);
                co_yield Op::unlock(lock);
            }
        }
        co_return;
    }

    // join
    for (std::uint64_t c = 0; c < chunks(no); ++c) {
        if (!scans_chunk(c))
            continue;
        const std::uint64_t first = c * kChunkRecs;
        const std::uint64_t recs = std::min(no, first + kChunkRecs) - first;
        const Op scan = cim_scan(ord_base + first * kRecBytes, recs);
        if (cim)
            co_yield scan;
        // "Once a P-node brings a chunk into its cache, it can reuse
        // it to some extent" (Section 4.2): without CIM the two joins
        // walk the chunk repeatedly, so only the first pass pays
        // remote latency. i counts (pass, record) pairs, pass-major.
        const std::uint64_t n = cim ? scan.cimMatches : kJoinPasses * recs;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (cim) {
                const std::uint64_t r = first + rng.nextBounded(recs);
                co_yield Op::load(ord_base + r * kRecBytes, 24);
                // Matched records get the full join treatment.
                co_yield Op::compute(1800);
            } else {
                co_yield Op::compute(900);
                co_yield Op::load(ord_base + (first + i % recs) * kRecBytes,
                                  48);
                if (i < recs)
                    continue;
            }
            // Probes concentrate on the hot (selected) buckets, a set
            // small enough to replicate into each P-node's memory --
            // the reuse that makes the join phase P-friendly.
            const std::uint64_t b = rng.nextBounded(nb / 16);
            co_yield Op::load(hash_base + b * kRecBytes, 12);
            co_yield Op::compute(48);
            if (rng.chance(0.25))
                co_yield Op::store(result + rng.nextBounded(1024) * 64);
        }
    }
}

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
    return std::make_unique<OpGen>(dbaseOps(customers_, orders_, buckets_,
                                            cim_, phase, tid, num_threads));
}

std::uint64_t
DbaseWorkload::footprintBytes() const
{
    return (customers_ + orders_ + buckets_) * kRecBytes +
           64 * 65536; // private result areas
}

} // namespace pimdsm
