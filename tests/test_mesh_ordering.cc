/**
 * @file
 * Property test for the mesh's per-(source, destination) delivery
 * ordering — the invariant the protocol's immediate-unblock
 * optimization depends on (see HomeBase::sendAt). Random message
 * sizes, destinations, and interleavings across many sources must
 * never deliver two same-pair messages out of send order.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/mesh.hh"
#include "sim/random.hh"

namespace pimdsm
{
namespace
{

NetParams
net(int x, int y, int link_width)
{
    NetParams p;
    p.meshX = x;
    p.meshY = y;
    p.linkBytesPerTick = link_width;
    return p;
}

struct SendRecord
{
    int seq;
    Tick sent;
};

class MeshOrdering
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MeshOrdering, SamePairMessagesDeliverInOrder)
{
    const auto [dim, link_width] = GetParam();
    EventQueue eq;
    Mesh mesh(eq, net(dim, dim, link_width), dim * dim);
    Rng rng(dim * 131 + link_width);

    // Per (src,dst) pair: next sequence number expected at delivery.
    std::map<std::pair<NodeId, NodeId>, int> next_seq;
    std::map<std::pair<NodeId, NodeId>, int> sent_seq;
    std::uint64_t violations = 0;

    const int nodes = dim * dim;
    for (int burst = 0; burst < 40; ++burst) {
        // Random burst of sends at the current tick.
        const int n = 1 + static_cast<int>(rng.nextBounded(20));
        for (int i = 0; i < n; ++i) {
            const NodeId s =
                static_cast<NodeId>(rng.nextBounded(nodes));
            NodeId d = static_cast<NodeId>(rng.nextBounded(nodes));
            if (d == s)
                d = (d + 1) % nodes;
            const int payload =
                rng.chance(0.5) ? 128 : 0; // data vs control
            const int seq = sent_seq[std::make_pair(s, d)]++;
            // Delivery closures must be trivially copyable, which
            // std::pair is not: capture the endpoints instead.
            mesh.send(s, d, payload, [&, s, d, seq] {
                if (seq != next_seq[std::make_pair(s, d)]++)
                    ++violations;
            });
        }
        // Advance a random amount so bursts overlap in the network.
        eq.runUntil(eq.curTick() + rng.nextBounded(60));
    }
    eq.run();
    EXPECT_EQ(violations, 0u);

    // Everything was delivered.
    for (auto &[key, sent] : sent_seq)
        EXPECT_EQ(next_seq[key], sent);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshOrdering,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(2, 4)),
    [](const auto &info) {
        return "mesh" + std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

TEST(MeshOrderingDirected, SmallControlNeverPassesLargeData)
{
    // The specific race the protocol cares about: a 128 B reply
    // followed immediately by a header-only inval to the same node.
    EventQueue eq;
    Mesh mesh(eq, net(4, 4, 2), 16);
    std::vector<int> order;
    mesh.send(0, 15, 128, [&] { order.push_back(1); });
    mesh.send(0, 15, 0, [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

} // namespace
} // namespace pimdsm
