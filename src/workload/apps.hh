/**
 * @file
 * The paper's seven applications (Table 3), as synthetic access-pattern
 * generators. Dense arrays are walked at 64 B granularity (one load
 * per L1 line, with the per-element instruction cost batched into the
 * surrounding Compute op); record-structured data (Barnes bodies,
 * Dbase records) is walked per record.
 *
 * Every workload begins with an "init" phase in which each thread
 * stores its own partition, so first-touch page placement (Section 3)
 * distributes pages the way the real applications would.
 */

#ifndef PIMDSM_WORKLOAD_APPS_HH
#define PIMDSM_WORKLOAD_APPS_HH

#include "workload/workload.hh"

namespace pimdsm
{

/** Complex 1-D FFT: local row FFTs separated by all-to-all blocked
 *  transposes (the SPLASH-2 kernel's communication skeleton). */
class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(int scale);

    std::string name() const override { return "fft"; }
    int numPhases() const override { return 6; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;
    std::uint64_t l1Bytes() const override { return 8 * 1024; }
    std::uint64_t l2Bytes() const override { return 32 * 1024; }

    std::uint64_t points() const { return points_; }

  private:
    std::uint64_t points_;
};

/** Integer radix sort: per-digit histogram, prefix sum, and a
 *  permutation pass with scattered remote stores. */
class RadixWorkload : public Workload
{
  public:
    explicit RadixWorkload(int scale);

    std::string name() const override { return "radix"; }
    int numPhases() const override { return 1 + 3 * passes_; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;

  private:
    std::uint64_t keys_;
    int radix_ = 1024;
    int passes_ = 2;
};

/** Ocean current simulation: red-black stencil sweeps over a block-row
 *  partitioned grid, neighbor communication at partition boundaries. */
class OceanWorkload : public Workload
{
  public:
    explicit OceanWorkload(int scale);

    std::string name() const override { return "ocean"; }
    int numPhases() const override { return 1 + iters_; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;

  private:
    std::uint64_t grid_;
    int iters_ = 6;
};

/** Barnes-Hut N-body: irregular read-mostly traversals of the shared
 *  tree top plus private body updates. */
class BarnesWorkload : public Workload
{
  public:
    explicit BarnesWorkload(int scale);

    std::string name() const override { return "barnes"; }
    int numPhases() const override { return 1 + 2 * iters_; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;

  private:
    std::uint64_t bodies_;
    std::uint64_t cells_;
    int iters_ = 2;
};

/** SPEC95 swim: multi-array finite-difference sweeps; tiny primary
 *  working set, large secondary working set, little sharing. */
class SwimWorkload : public Workload
{
  public:
    explicit SwimWorkload(int scale);

    std::string name() const override { return "swim"; }
    int numPhases() const override { return 1 + iters_; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;
    std::uint64_t l1Bytes() const override { return 32 * 1024; }
    std::uint64_t l2Bytes() const override { return 128 * 1024; }

  private:
    std::uint64_t grid_;
    int iters_ = 5;
};

/** SPEC95 tomcatv: row sweeps plus column (strided) sweeps over
 *  several mesh arrays. */
class TomcatvWorkload : public Workload
{
  public:
    explicit TomcatvWorkload(int scale);

    std::string name() const override { return "tomcatv"; }
    int numPhases() const override { return 1 + 2 * iters_; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;
    std::uint64_t l1Bytes() const override { return 64 * 1024; }
    std::uint64_t l2Bytes() const override { return 256 * 1024; }

  private:
    std::uint64_t grid_;
    int iters_ = 3;
};

/**
 * TPC-D query 3: a D-node-intensive hash-build phase (streaming scans
 * without reuse + locked hash inserts) followed by a P-node-friendly
 * join phase (chunked probes with reuse). Supports the computation-in-
 * memory optimization of Section 2.4: with CIM enabled, table scans
 * are offloaded to the home D-nodes and only matching record pointers
 * come back.
 */
class DbaseWorkload : public Workload
{
  public:
    explicit DbaseWorkload(int scale, bool cim = false);

    std::string name() const override { return cim_ ? "dbase-cim"
                                                    : "dbase"; }
    int numPhases() const override { return 3; }
    std::string phaseName(int p) const override;
    std::unique_ptr<OpStream> makeStream(int phase, ThreadId tid,
                                         int num_threads) const override;
    std::uint64_t footprintBytes() const override;
    std::uint64_t l1Bytes() const override { return 64 * 1024; }
    std::uint64_t l2Bytes() const override { return 512 * 1024; }

  private:
    std::uint64_t customers_;
    std::uint64_t orders_;
    std::uint64_t buckets_;
    bool cim_;
};

} // namespace pimdsm

#endif // PIMDSM_WORKLOAD_APPS_HH
