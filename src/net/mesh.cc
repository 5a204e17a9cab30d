#include "net/mesh.hh"

#include <cstdlib>

#include "sim/log.hh"
#include "sim/stats.hh"

namespace pimdsm
{

namespace
{

/** Unit step of direction dir (0=E, 1=W, 2=N, 3=S). */
constexpr int kDirDx[4] = {1, -1, 0, 0};
constexpr int kDirDy[4] = {0, 0, 1, -1};
constexpr int kDirOpp[4] = {1, 0, 3, 2};

} // namespace

Mesh::Mesh(EventQueue &eq, const NetParams &params, int num_nodes)
    : eq_(eq), params_(params), numNodes_(num_nodes)
{
    if (params_.meshX <= 0 || params_.meshY <= 0)
        fatal("mesh dimensions must be positive");
    if (num_nodes > params_.meshX * params_.meshY)
        fatal("more nodes than mesh routers");
    links_.resize(static_cast<std::size_t>(params_.meshX) *
                  params_.meshY * 4);
    linkAlive_.assign(links_.size(), 1);
}

Resource &
Mesh::link(int x, int y, int dir)
{
    return links_[linkIndex(x, y, dir)];
}

Tick
Mesh::serTicks(int payload_bytes) const
{
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(payload_bytes) + params_.headerBytes;
    return ceilDiv(bytes,
                   static_cast<std::uint64_t>(params_.linkBytesPerTick));
}

void
Mesh::setPlacement(const std::vector<int> &slot_to_node)
{
    if (static_cast<int>(slot_to_node.size()) < numNodes_)
        fatal("placement must cover every node");
    nodeToSlot_.assign(numNodes_, -1);
    for (std::size_t slot = 0; slot < slot_to_node.size(); ++slot) {
        const int node = slot_to_node[slot];
        if (node >= 0 && node < numNodes_)
            nodeToSlot_[node] = static_cast<int>(slot);
    }
    for (int n = 0; n < numNodes_; ++n) {
        if (nodeToSlot_[n] < 0)
            fatal("placement leaves a node without a mesh slot");
    }
}

int
Mesh::hops(NodeId src, NodeId dst) const
{
    return std::abs(nodeX(src) - nodeX(dst)) +
           std::abs(nodeY(src) - nodeY(dst));
}

template <typename PerHop>
void
Mesh::walkPath(NodeId src, NodeId dst, PerHop &&per_hop) const
{
    int x = nodeX(src);
    int y = nodeY(src);
    const int dx = nodeX(dst);
    const int dy = nodeY(dst);
    if (deadLinks_ > 0) {
        // Degraded mode: follow the detour table. The fault-free path
        // below is untouched so clean runs stay bit-identical.
        const int R = params_.meshX * params_.meshY;
        const int dslot = dy * params_.meshX + dx;
        int cur = y * params_.meshX + x;
        while (cur != dslot) {
            const int dir =
                routeDir_[static_cast<std::size_t>(cur) * R + dslot];
            if (dir < 0)
                panic("mesh walkPath across an unroutable partition "
                      "(caller skipped the routable() check)");
            per_hop(x, y, dir);
            x += kDirDx[dir];
            y += kDirDy[dir];
            cur = y * params_.meshX + x;
        }
        return;
    }
    while (x != dx) {
        const int dir = dx > x ? 0 : 1; // E : W
        per_hop(x, y, dir);
        x += dx > x ? 1 : -1;
    }
    while (y != dy) {
        const int dir = dy > y ? 2 : 3; // N : S
        per_hop(x, y, dir);
        y += dy > y ? 1 : -1;
    }
}

bool
Mesh::linkAlive(int x, int y, int dir) const
{
    return linkAlive_[linkIndex(x, y, dir)] != 0;
}

void
Mesh::setLinkAlive(int x, int y, int dir, bool alive)
{
    if (x < 0 || x >= params_.meshX || y < 0 || y >= params_.meshY ||
        dir < 0 || dir > 3)
        fatal("setLinkAlive: no such router/direction");
    const int nx = x + kDirDx[dir];
    const int ny = y + kDirDy[dir];
    if (nx < 0 || nx >= params_.meshX || ny < 0 || ny >= params_.meshY)
        fatal("setLinkAlive: link points off the mesh edge");

    // The physical channel carries both directed links.
    const std::size_t fwd = linkIndex(x, y, dir);
    const std::size_t rev = linkIndex(nx, ny, kDirOpp[dir]);
    const char v = alive ? 1 : 0;
    bool changed = false;
    for (const std::size_t li : {fwd, rev}) {
        if (linkAlive_[li] == v)
            continue;
        linkAlive_[li] = v;
        deadLinks_ += alive ? -1 : 1;
        changed = true;
    }
    if (!changed)
        return;

    recomputeRoutes();
    if (stats_)
        stats_->add(alive ? "fault.net.link_heals"
                          : "fault.net.link_deaths");
    if (alive && !blocked_.empty())
        drainBlocked();
}

void
Mesh::recomputeRoutes()
{
    const int R = params_.meshX * params_.meshY;
    if (deadLinks_ == 0) {
        routeDir_.clear();
        return;
    }
    routeDir_.assign(static_cast<std::size_t>(R) * R, -1);

    // One BFS per destination, walking live links in reverse: when the
    // frontier reaches router v over the link v->u, v's first hop
    // toward the destination is that link. Fixed E/W/N/S expansion
    // order + FIFO frontier keeps the table deterministic.
    std::vector<int> frontier;
    frontier.reserve(R);
    for (int dslot = 0; dslot < R; ++dslot) {
        auto *row_base = &routeDir_[0];
        frontier.clear();
        frontier.push_back(dslot);
        row_base[static_cast<std::size_t>(dslot) * R + dslot] = -2;
        for (std::size_t qi = 0; qi < frontier.size(); ++qi) {
            const int u = frontier[qi];
            const int ux = u % params_.meshX;
            const int uy = u / params_.meshX;
            for (int dir = 0; dir < 4; ++dir) {
                // The neighbor that would *enter* u via `dir` sits in
                // the opposite direction and uses link (v, dir).
                const int vx = ux + kDirDx[kDirOpp[dir]];
                const int vy = uy + kDirDy[kDirOpp[dir]];
                if (vx < 0 || vx >= params_.meshX || vy < 0 ||
                    vy >= params_.meshY)
                    continue;
                if (!linkAlive_[linkIndex(vx, vy, dir)])
                    continue;
                const int v = vy * params_.meshX + vx;
                auto &slot =
                    row_base[static_cast<std::size_t>(v) * R + dslot];
                if (slot != -1)
                    continue;
                slot = static_cast<std::int8_t>(dir);
                frontier.push_back(v);
            }
        }
    }
}

bool
Mesh::routable(NodeId src, NodeId dst) const
{
    if (deadLinks_ == 0 || src == dst)
        return true;
    const int R = params_.meshX * params_.meshY;
    const std::size_t s = static_cast<std::size_t>(slotOf(src));
    return routeDir_[s * R + slotOf(dst)] != -1;
}

void
Mesh::drainBlocked()
{
    // Swap the queue out so still-unroutable messages re-enqueue
    // cleanly; FIFO order keeps the replay deterministic.
    std::vector<BlockedMsg> pend;
    pend.swap(blocked_);
    for (BlockedMsg &b : pend) {
        if (stats_ && routable(b.src, b.dst))
            stats_->add("fault.net.partition_drained");
        send(b.src, b.dst, b.payloadBytes, b.deliver, b.cls);
    }
}

Tick
Mesh::unloadedLatency(NodeId src, NodeId dst, int payload_bytes) const
{
    const Tick ser = serTicks(payload_bytes);
    if (src == dst)
        return 2 * params_.niLatency + ser;
    const Tick per_hop = params_.routerLatency + params_.wireLatency;
    return 2 * params_.niLatency +
           static_cast<Tick>(hops(src, dst)) * per_hop + ser;
}

Tick
Mesh::averageUnloadedLatency(int payload_bytes) const
{
    Tick sum = 0;
    std::uint64_t pairs = 0;
    for (NodeId s = 0; s < numNodes_; ++s) {
        for (NodeId d = 0; d < numNodes_; ++d) {
            if (s == d)
                continue;
            sum += unloadedLatency(s, d, payload_bytes);
            ++pairs;
        }
    }
    return pairs ? sum / pairs : 0;
}

void
Mesh::badEndpoints(NodeId src, NodeId dst, int payload_bytes,
                   MsgClass cls) const
{
    panic("mesh send with out-of-range node id: " + std::to_string(src) +
          " -> " + std::to_string(dst) + " (mesh has " +
          std::to_string(numNodes_) + " nodes, " +
          std::to_string(payload_bytes) + "-byte " + msgClassName(cls) +
          " message)");
}

Tick
Mesh::park(const BlockedMsg &b)
{
    blocked_.push_back(b);
    if (stats_)
        stats_->add("fault.net.partition_blocked");
    return eq_.curTick();
}

Tick
Mesh::transit(NodeId src, NodeId dst, int payload_bytes,
              Tick extra_delay)
{
    const Tick now = eq_.curTick();
    const Tick ser = serTicks(payload_bytes);
    const Tick per_hop = params_.routerLatency + params_.wireLatency;

    // Head-flit time advances hop by hop; each link is reserved for the
    // full serialization time starting when the head can enter it.
    Tick head = now + params_.niLatency;
    walkPath(src, dst, [&](int x, int y, int dir) {
        const Tick start = link(x, y, dir).acquire(head, ser);
        head = start + per_hop;
    });

    const Tick arrival = head + ser + params_.niLatency + extra_delay;

    ++messagesSent_;
    bytesSent_ += static_cast<std::uint64_t>(payload_bytes) +
                  params_.headerBytes;
    totalLatency_ += arrival - now;
    return arrival;
}

Tick
Mesh::totalLinkBusy() const
{
    Tick t = 0;
    for (const auto &l : links_)
        t += l.busyTicks();
    return t;
}

Tick
Mesh::totalLinkWait() const
{
    Tick t = 0;
    for (const auto &l : links_)
        t += l.waitTicks();
    return t;
}

} // namespace pimdsm
