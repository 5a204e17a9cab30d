/**
 * @file
 * Deeper flat-COMA tests: injection refusal chains, disk overflow and
 * restore, mastership-grant fallback when sharer bits are stale, and
 * replacement-priority interplay.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace pimdsm
{
namespace
{

MachineConfig
comaCfg(int nodes, std::uint64_t am_bytes)
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Coma);
    cfg.numPNodes = nodes;
    cfg.numThreads = nodes;
    cfg.numDNodes = 0;
    cfg.pNodeMemBytes = am_bytes;
    cfg.l1 = CacheParams{512, 1, 64, 3};
    cfg.l2 = CacheParams{2048, 1, 64, 6};
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

void
doAccess(Machine &m, NodeId n, Addr a, bool write)
{
    bool done = false;
    m.compute(n)->access(a, write,
                         [&](Tick, ReadService) { done = true; });
    m.eq().run();
    ASSERT_TRUE(done);
}

constexpr Addr kBase = 1ull << 20;

TEST(ComaInjection, DisplacedMasterLandsAtProviderWithSameVersion)
{
    MachineConfig cfg = comaCfg(4, 4096); // 8 sets x 4 ways
    Machine m(cfg);

    doAccess(m, 0, kBase, true); // dirty master at node 0
    const Version v = m.latestVersion(blockAlign(kBase, 128));

    // Displace it with conflicting dirty lines (same set).
    const Addr stride = 8 * 128;
    for (int i = 1; i < 8; ++i)
        doAccess(m, 0, kBase + i * stride, true);
    m.eq().run();

    EXPECT_GE(m.stats().get("coma.injections"), 1.0);

    // The line must be recoverable with its version intact; the
    // read-freshness checks panic otherwise.
    doAccess(m, 1, kBase, false);
    EXPECT_EQ(m.latestVersion(blockAlign(kBase, 128)), v);
    m.checkInvariants();
}

TEST(ComaInjection, RefusalChainFallsBackToDisk)
{
    // Two nodes; every set way filled with dirty (owned) lines on
    // both, so injections are refused and the line overflows to disk.
    MachineConfig cfg = comaCfg(2, 4096); // 8 sets x 4 ways
    Machine m(cfg);
    // Every displaced line is dirty, so no MasterGrant runs and each
    // InjectAck is an accepted injection.
    int accepted = 0;
    m.setSendInterceptor([&](const Message &msg) {
        accepted += msg.type == MsgType::InjectAck;
        return false;
    });

    const Addr stride = 8 * 128;
    // Node 1 fills one set of its AM with dirty lines homed at itself.
    for (int i = 0; i < 4; ++i)
        doAccess(m, 1, kBase + (16 + i) * stride + 64 * 1024, true);

    // Node 0 writes a line in the same set, then displaces it with
    // more dirty lines; node 1's set is full of owned lines, so
    // providers refuse.
    for (int i = 0; i < 12; ++i)
        doAccess(m, 0, kBase + i * stride, true);
    m.eq().run();

    // Under this much pressure something must have been injected or
    // spilled; the machine stays coherent either way.
    EXPECT_GT(m.stats().get("coma.disk_overflow") + accepted, 0.0);
    m.checkInvariants();

    // Disk-overflowed lines restore on the next read.
    for (int i = 0; i < 12; ++i)
        doAccess(m, 1, kBase + i * stride, false);
    m.checkInvariants();
}

TEST(ComaInjection, ProviderRefusesWhenSetFullOfOwnedLines)
{
    MachineConfig cfg = comaCfg(2, 4096); // 8 sets x 4 ways
    Machine m(cfg);
    // Count the refusals node 1 sends back to the injecting home.
    int refused = 0;
    m.setSendInterceptor([&](const Message &msg) {
        refused += msg.type == MsgType::InjectNack && msg.src == 1;
        return false;
    });

    const Addr stride = 8 * 128;
    // Node 1 fills one set of its attraction memory with owned lines.
    for (int i = 0; i < 4; ++i)
        doAccess(m, 1, kBase + (100 + i) * stride, true);

    // Node 0 displaces masters of other lines that map to the same
    // set; node 1 is the only provider and has no way to give up.
    for (int i = 0; i < 8; ++i)
        doAccess(m, 0, kBase + (200 + i) * stride, true);
    m.eq().run();
    EXPECT_GE(refused, 1);
    m.checkInvariants();
}

TEST(ComaMastership, GrantFallsBackWhenSharersAreStale)
{
    MachineConfig cfg = comaCfg(3, 4096);
    Machine m(cfg);

    doAccess(m, 0, kBase, false); // master at 0 (home 0)
    doAccess(m, 1, kBase, false); // sharer at 1
    doAccess(m, 2, kBase, false); // sharer at 2

    // Node 1 and 2 silently drop their copies via conflict pressure.
    const Addr stride = 8 * 128;
    for (NodeId n : {1, 2}) {
        for (int i = 1; i < 8; ++i)
            doAccess(m, n, kBase + i * stride + n * 64, false);
    }
    // Now displace the master at node 0: grants to stale sharers nack
    // and the home falls back to injection (or disk).
    for (int i = 1; i < 8; ++i)
        doAccess(m, 0, kBase + i * stride, true);
    m.eq().run();
    m.checkInvariants();

    // The data must still be readable with the correct version.
    doAccess(m, 2, kBase, false);
    m.checkInvariants();
}

TEST(ComaReplacement, SharedCopiesSacrificedBeforeMasters)
{
    MachineConfig cfg = comaCfg(2, 4096); // 8 sets x 4 ways
    Machine m(cfg);

    const Addr stride = 8 * 128;
    // Node 0: two master (dirty) lines + fill with shared copies of
    // node-1-homed lines, all in one set.
    doAccess(m, 0, kBase + 0 * stride, true);
    doAccess(m, 0, kBase + 1 * stride, true);
    doAccess(m, 1, kBase + 2 * stride + 64 * 1024, true);
    doAccess(m, 1, kBase + 3 * stride + 64 * 1024, true);
    m.eq().run();

    const double injections_before = m.stats().get("coma.injections");

    // Shared fills into the same set displace the shared copies, not
    // the dirty masters: no new injections.
    auto *am0 = static_cast<CachedMemCompute *>(m.compute(0));
    doAccess(m, 0, kBase + 2 * stride + 64 * 1024, false);
    doAccess(m, 0, kBase + 3 * stride + 64 * 1024, false);
    m.eq().run();
    EXPECT_EQ(m.stats().get("coma.injections"), injections_before);
    EXPECT_EQ(am0->peekState(kBase + 0 * stride), CohState::Dirty);
    EXPECT_EQ(am0->peekState(kBase + 1 * stride), CohState::Dirty);
    m.checkInvariants();
}

} // namespace
} // namespace pimdsm
