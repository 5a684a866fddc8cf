#include "noc/network.hh"

#include <cmath>

namespace tcc {

namespace {

enum Dir : unsigned { East = 0, West = 1, North = 2, South = 3 };

} // namespace

std::uint32_t
meshGridSide(std::uint32_t n)
{
    std::uint32_t c = 1;
    while (c * c < n)
        ++c;
    return c;
}

template <bool Partitioned>
Tick
MeshTiming<Partitioned>::routeArrival(NodeId from, NodeId to,
                                      std::uint32_t bytes, Tick start,
                                      unsigned &hops)
{
    hops = 0;
    if (from == to) {
        // Local loopback: one-cycle turnaround, no link usage.
        return start + 1;
    }

    const Tick ser = serialization(bytes);

    // Walk the XY route, advancing time across each link and updating
    // its next-free tick (store-and-forward with contention).
    Tick t = start + config.routerDelay;
    int x = static_cast<int>(from % gridCols);
    int y = static_cast<int>(from / gridCols);
    const int dx = static_cast<int>(to % gridCols);
    const int dy = static_cast<int>(to / gridCols);
    NodeId cur = from;

    // y is the row of the link's source slot at every crossing.
    auto cross = [&](unsigned dir, NodeId next) {
        if (Partitioned && (static_cast<std::uint32_t>(y) < rowBegin ||
                            static_cast<std::uint32_t>(y) >= rowEnd)) {
            t += ser + config.hopLatency + config.routerDelay;
        } else {
            Tick &free = linkFree[static_cast<std::size_t>(cur) * 4 + dir];
            const Tick depart = std::max(t, free);
            free = depart + ser;
            t = depart + ser + config.hopLatency + config.routerDelay;
        }
        cur = next;
        ++hops;
    };

    while (x != dx) {
        if (x < dx) {
            cross(East, cur + 1);
            ++x;
        } else {
            cross(West, cur - 1);
            --x;
        }
    }
    while (y != dy) {
        if (y < dy) {
            cross(South, cur + gridCols);
            ++y;
        } else {
            cross(North, cur - gridCols);
            --y;
        }
    }
    return t;
}

template class MeshTiming<false>;
template class MeshTiming<true>;

MeshNetwork::MeshNetwork(EventQueue &eq, std::uint32_t num_nodes,
                         const MeshConfig &cfg, Arena *arena)
    : Network(eq, num_nodes, arena), timing(cfg, num_nodes)
{}

unsigned
MeshNetwork::hopCount(NodeId a, NodeId b) const
{
    const std::uint32_t c = timing.cols();
    return static_cast<unsigned>(
        std::abs(static_cast<int>(a % c) - static_cast<int>(b % c)) +
        std::abs(static_cast<int>(a / c) - static_cast<int>(b / c)));
}

void
MeshNetwork::send(Message msg)
{
    if (msg.src >= numNodes() || msg.dst >= numNodes())
        panic("mesh send with bad endpoint %u->%u", msg.src, msg.dst);
    unsigned hops = 0;
    const Tick delay = timing.flight(msg, eventq.now(), hops);
    deliver(std::move(msg), delay, hops);
}

MulticastReceipt
MeshNetwork::doMulticast(const Message &proto,
                         std::span<const NodeId> dsts)
{
    if (!mcastCfg.staged(dsts.size()))
        return Network::doMulticast(proto, dsts);
    return timing.treeMulticast(
        mcastCfg.fanout, proto, dsts, eventq.now(),
        [this](Message copy, Tick delay, unsigned hops) {
            deliver(std::move(copy), delay, hops);
        });
}

} // namespace tcc
