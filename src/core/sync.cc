#include "core/sync.hh"

#include "sim/log.hh"

namespace pimdsm
{

void
SyncManager::resumeThread(ComputeBase *p)
{
    const auto it = resume_.find(p);
    if (it == resume_.end() || !it->second)
        panic("sync resume with no parked callback");
    const std::function<void()> cb = std::move(it->second);
    it->second = nullptr;
    cb();
}

void
SyncManager::refetchAndResume(ComputeBase *p, Addr addr)
{
    // The woken node re-reads the sync line before resuming
    // (invalidation storm + refetch, like real spinning).
    p->access(addr, false,
              [this, p](Tick, ReadService) { resumeThread(p); });
}

void
SyncManager::arriveBarrier(Addr addr, ComputeBase &port,
                           std::function<void()> resume)
{
    resume_[&port] = std::move(resume);
    // The arrival is a store on the barrier line (fetch&increment).
    port.access(addr, true, [this, addr, p = &port](Tick, ReadService) {
        Barrier &b = barriers_[addr];
        b.waiters.push_back(p);
        if (++b.arrived < numThreads_)
            return;
        releaseBarrier(addr, b);
    });
}

void
SyncManager::releaseBarrier(Addr addr, Barrier &b)
{
    ++barrierEpisodes_;
    b.arrived = 0;
    // access() never completes synchronously, so the list cannot
    // change under the loop; clearing it keeps its capacity for the
    // next episode.
    for (ComputeBase *p : b.waiters)
        refetchAndResume(p, addr);
    b.waiters.clear();
}

void
SyncManager::acquireLock(Addr addr, ComputeBase &port,
                         std::function<void()> resume)
{
    resume_[&port] = std::move(resume);
    // test&set: a store on the lock line.
    port.access(addr, true, [this, addr, p = &port](Tick, ReadService) {
        Lock &l = locks_[addr];
        if (!l.held) {
            l.held = true;
            l.holder = p;
            resumeThread(p);
        } else {
            l.waiters.push_back(p);
        }
    });
}

void
SyncManager::releaseLock(Addr addr, ComputeBase &port)
{
    port.access(addr, true, [this, addr](Tick, ReadService) {
        Lock &l = locks_[addr];
        if (!l.held)
            panic("releasing a lock that is not held");
        if (l.waiters.empty()) {
            l.held = false;
            l.holder = nullptr;
            return;
        }
        ++lockHandoffs_;
        ComputeBase *p = l.waiters.front();
        l.waiters.pop_front();
        l.holder = p;
        // The next holder re-reads the lock line before entering.
        refetchAndResume(p, addr);
    });
}

void
SyncManager::threadDied(ComputeBase *port)
{
    if (numThreads_ > 0)
        --numThreads_;

    for (auto &[addr, b] : barriers_) {
        for (auto it = b.waiters.begin(); it != b.waiters.end();) {
            if (*it == port) {
                it = b.waiters.erase(it);
                --b.arrived;
            } else {
                ++it;
            }
        }
        // The death may have been the missing arrival.
        if (b.arrived > 0 && b.arrived >= numThreads_)
            releaseBarrier(addr, b);
    }

    for (auto &[addr, l] : locks_) {
        for (auto it = l.waiters.begin(); it != l.waiters.end();) {
            if (*it == port)
                it = l.waiters.erase(it);
            else
                ++it;
        }
        if (l.held && l.holder == port) {
            // Dead holder: hand off immediately (modeling the OS
            // breaking the lock) so survivors are not wedged.
            if (l.waiters.empty()) {
                l.held = false;
                l.holder = nullptr;
            } else {
                ++lockHandoffs_;
                ComputeBase *p = l.waiters.front();
                l.waiters.pop_front();
                l.holder = p;
                refetchAndResume(p, addr);
            }
        }
    }
}

} // namespace pimdsm
