/**
 * @file
 * Synchronization: centralized barriers and queued locks. Both
 * generate real coherence traffic (stores/loads on the sync line), so
 * hot barriers and contended locks load the home nodes — important for
 * the D-node-intensive phases of Radix and Dbase.
 */

#ifndef PIMDSM_CORE_SYNC_HH
#define PIMDSM_CORE_SYNC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "proto/compute_base.hh"
#include "sim/types.hh"

namespace pimdsm
{

class SyncManager
{
  public:
    explicit SyncManager(int num_threads) : numThreads_(num_threads) {}

    void setNumThreads(int n) { numThreads_ = n; }
    int numThreads() const { return numThreads_; }

    /**
     * Arrive at the barrier identified by @p addr. The arrival performs
     * a store (fetch&increment) on the barrier line; the last arrival
     * releases everyone, and each waiter re-reads the line before
     * resuming.
     */
    void arriveBarrier(Addr addr, ComputeBase &port,
                       std::function<void()> resume);

    /** Acquire the queued lock at @p addr (store = test&set). */
    void acquireLock(Addr addr, ComputeBase &port,
                     std::function<void()> resume);

    /** Release the lock at @p addr, handing it to the next waiter. */
    void releaseLock(Addr addr, ComputeBase &port);

    /**
     * The thread running on @p port died fail-stop: shrink the thread
     * count, drop its pending barrier arrivals and lock waits, release
     * any barrier the death completed, and hand off any lock it held so
     * the survivors are not wedged behind a dead holder.
     */
    void threadDied(ComputeBase *port);

    std::uint64_t barrierEpisodes() const { return barrierEpisodes_; }
    std::uint64_t lockHandoffs() const { return lockHandoffs_; }

  private:
    struct Barrier
    {
        int arrived = 0;
        /** Ports whose arrival completed, in arrival order. */
        std::vector<ComputeBase *> waiters;
    };

    struct Lock
    {
        bool held = false;
        ComputeBase *holder = nullptr;
        std::deque<ComputeBase *> waiters;
    };

    /** Release every waiter of @p b (invalidation storm + refetch). */
    void releaseBarrier(Addr addr, Barrier &b);

    /** Re-read @p addr on @p p's node, then resume @p p's thread. */
    void refetchAndResume(ComputeBase *p, Addr addr);

    /** Run (and clear) the resume callback parked for @p p. */
    void resumeThread(ComputeBase *p);

    int numThreads_;
    /**
     * Each port's parked resume callback. A thread stalls on its sync
     * operation, so a port has at most one outstanding; keeping it
     * here lets every coherence completion capture only pointers and
     * the sync address.
     */
    std::unordered_map<ComputeBase *, std::function<void()>> resume_;
    std::unordered_map<Addr, Barrier> barriers_;
    std::unordered_map<Addr, Lock> locks_;
    std::uint64_t barrierEpisodes_ = 0;
    std::uint64_t lockHandoffs_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_CORE_SYNC_HH
