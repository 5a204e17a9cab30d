#include "core/sync.hh"

#include "sim/log.hh"

namespace pimdsm
{

void
SyncManager::refetchAndResume(ComputeBase *p, Addr addr,
                              std::function<void()> cb)
{
    // The woken node re-reads the sync line before resuming
    // (invalidation storm + refetch, like real spinning).
    p->access(addr, false, [cb = std::move(cb)](Tick, ReadService) {
        cb();
    });
}

void
SyncManager::arriveBarrier(Addr addr, ComputeBase &port,
                           std::function<void()> resume)
{
    // The arrival is a store on the barrier line (fetch&increment).
    port.access(addr, true, [this, addr, &port,
                             resume = std::move(resume)](Tick,
                                                         ReadService) {
        Barrier &b = barriers_[addr];
        b.waiters.emplace_back(&port, resume);
        if (++b.arrived < numThreads_)
            return;
        releaseBarrier(addr, b);
    });
}

void
SyncManager::releaseBarrier(Addr addr, Barrier &b)
{
    ++barrierEpisodes_;
    auto waiters = std::move(b.waiters);
    b.arrived = 0;
    b.waiters.clear();
    for (auto &[p, cb] : waiters)
        refetchAndResume(p, addr, cb);
}

void
SyncManager::acquireLock(Addr addr, ComputeBase &port,
                         std::function<void()> resume)
{
    // test&set: a store on the lock line.
    port.access(addr, true, [this, addr, &port,
                             resume = std::move(resume)](Tick,
                                                         ReadService) {
        Lock &l = locks_[addr];
        if (!l.held) {
            l.held = true;
            l.holder = &port;
            resume();
        } else {
            l.waiters.emplace_back(&port, resume);
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
        auto [p, cb] = std::move(l.waiters.front());
        l.waiters.pop_front();
        l.holder = p;
        // The next holder re-reads the lock line before entering.
        refetchAndResume(p, addr, std::move(cb));
    });
}

void
SyncManager::threadDied(ComputeBase *port)
{
    if (numThreads_ > 0)
        --numThreads_;

    for (auto &[addr, b] : barriers_) {
        for (auto it = b.waiters.begin(); it != b.waiters.end();) {
            if (it->first == port) {
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
            if (it->first == port)
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
                auto [p, cb] = std::move(l.waiters.front());
                l.waiters.pop_front();
                l.holder = p;
                refetchAndResume(p, addr, std::move(cb));
            }
        }
    }
}

} // namespace pimdsm
