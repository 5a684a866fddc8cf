#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cache/spec_cache.hh"
#include "directory/directory.hh"
#include "noc/network.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace perfbench {

namespace {

using namespace tcc;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of five trials: the probes run on a shared host, and one
 *  descheduled trial must not set the figure. */
template <typename Fn>
double
medianOfTrials(Fn trial)
{
    std::vector<double> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(trial());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * The simulator's event shape without the model: 64 self-rescheduling
 * chains, half carrying a message-sized payload, delays in [1, 180]
 * with one in 32 past the 256-tick wheel window. Delays are drawn
 * before timing starts.
 */
struct KernelMix {
    EventQueue eq;
    std::vector<Tick> delays;
    std::uint64_t fired = 0;
    std::uint64_t target;
    std::uint64_t sink = 0;

    explicit KernelMix(std::uint64_t events) : target(events)
    {
        Rng rng(12345);
        delays.resize(4096);
        for (auto &d : delays)
            d = rng.below(32) == 0 ? 300 + rng.below(700)
                                   : 1 + rng.below(180);
    }

    void
    post()
    {
        if (fired >= target)
            return;
        const Tick d = delays[fired & (delays.size() - 1)];
        ++fired;
        if (fired & 1) {
            struct Payload {
                std::uint64_t addr, tid, mask, bytes;
            } p{fired, fired >> 1, ~0ull, 48};
            eq.schedule(d, [this, p]() {
                sink += p.addr ^ p.tid ^ p.mask ^ p.bytes;
                post();
            });
        } else {
            eq.schedule(d, [this]() {
                ++sink;
                post();
            });
        }
    }
};

double
kernelEventsPerSec()
{
    return medianOfTrials([] {
        KernelMix mix(1'000'000);
        for (int c = 0; c < 64; ++c)
            mix.post();
        const auto t0 = Clock::now();
        mix.eq.run();
        return static_cast<double>(mix.fired) / secondsSince(t0);
    });
}

/** ns per point-to-point send + delivery on a 256-node mesh. */
double
meshSendNs()
{
    constexpr std::uint32_t kNodes = 256;
    EventQueue eq;
    MeshNetwork net(eq, kNodes);
    std::uint64_t sink = 0;
    for (NodeId n = 0; n < kNodes; ++n)
        net.connect(n, [&sink](const Message &m) { sink += m.addr; });
    Rng rng(7);
    std::vector<std::pair<NodeId, NodeId>> pairs(4096);
    for (auto &p : pairs)
        p = {static_cast<NodeId>(rng.below(kNodes)),
             static_cast<NodeId>(rng.below(kNodes))};
    Message m;
    m.type = MsgType::LoadReq;
    m.bytes = 16;
    std::uint64_t k = 0;
    return medianOfTrials([&] {
        constexpr int kBatches = 400, kBatch = 256;
        const auto t0 = Clock::now();
        for (int b = 0; b < kBatches; ++b) {
            for (int i = 0; i < kBatch; ++i, ++k) {
                const auto &p = pairs[k & (pairs.size() - 1)];
                m.src = p.first;
                m.dst = p.second;
                m.addr = k;
                net.send(m);
            }
            eq.run();
        }
        return secondsSince(t0) * 1e9 / (kBatches * kBatch);
    });
}

/** ns per full broadcast (1023 copies) through a k=4 combining tree
 *  on a 1024-node mesh, delivery included. */
double
treeMulticastNs()
{
    constexpr std::uint32_t kNodes = 1024;
    EventQueue eq;
    MeshNetwork net(eq, kNodes);
    MulticastConfig mc;
    mc.topology = MulticastConfig::Topology::Tree;
    mc.fanout = 4;
    net.setMulticast(mc);
    std::uint64_t sink = 0;
    for (NodeId n = 0; n < kNodes; ++n)
        net.connect(n, [&sink](const Message &m) { sink += m.dst; });
    Message proto;
    proto.type = MsgType::Skip;
    proto.bytes = 16;
    std::vector<NodeId> dsts;
    NodeId src = 0;
    return medianOfTrials([&] {
        constexpr int kCasts = 100;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCasts; ++i) {
            src = (src + 97) % kNodes;
            dsts.clear();
            for (NodeId n = 0; n < kNodes; ++n)
                if (n != src)
                    dsts.push_back(n);
            proto.src = src;
            net.multicast(proto, std::span<const NodeId>(dsts));
            eq.run();
        }
        return secondsSince(t0) * 1e9 / kCasts;
    });
}

/** ns per SpecCache load hit and per store hit, over 64 filled lines
 *  each. */
std::pair<double, double>
cacheNs(std::vector<std::string> &errors)
{
    const CacheConfig cfg;
    SpecCache cache(cfg);
    std::vector<Addr> loadLines, storeLines;
    for (Addr i = 0; i < 64; ++i) {
        loadLines.push_back(0x10000 + i * cfg.lineBytes);
        storeLines.push_back(0x90000 + i * cfg.lineBytes);
    }
    for (Addr a : loadLines)
        cache.fill(a);
    for (Addr a : storeLines)
        cache.fill(a);
    constexpr int kOps = 1 << 21;
    std::uint64_t hits = 0;
    const double load = medianOfTrials([&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i)
            hits += cache.load(loadLines[i & 63]).hit;
        return secondsSince(t0) * 1e9 / kOps;
    });
    const double store = medianOfTrials([&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i)
            hits += cache.store(storeLines[i & 63]).hit;
        return secondsSince(t0) * 1e9 / kOps;
    });
    if (hits != 10ull * kOps)
        errors.push_back("cache probe: an access missed a filled line");
    return {load, store};
}

/**
 * ns per scripted commit through Directory::receive: a write probe,
 * one mark and the commit for TID t, all from node 1 over an ideal
 * network, then the queue drained. Node 1 takes every TID, so each
 * commit retires at once and NSTID advances by one.
 */
double
directoryCommitNs(std::vector<std::string> &errors)
{
    constexpr std::uint32_t kNodes = 4;
    EventQueue eq;
    IdealNetwork net(eq, kNodes);
    Directory dir(0, kNodes, eq, net, DirectoryConfig{});
    std::uint64_t replies = 0;
    net.connect(0, [&dir](const Message &m) { dir.receive(m); });
    for (NodeId n = 1; n < kNodes; ++n)
        net.connect(n, [&replies](const Message &) { ++replies; });
    Tid tid = 0;
    auto mk = [&tid](MsgType t, Addr addr) {
        Message m;
        m.type = t;
        m.src = 1;
        m.dst = 0;
        m.tid = tid;
        m.addr = addr;
        m.wordMask = ~0ull;
        m.bytes = 16;
        return m;
    };
    const double ns = medianOfTrials([&] {
        constexpr int kCommits = 20000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCommits; ++i, ++tid) {
            Message probe = mk(MsgType::Probe, 0);
            probe.wantWrite = true;
            net.send(probe);
            net.send(mk(MsgType::Mark, 0x100 + (tid % 16) * 32));
            Message commit = mk(MsgType::Commit, 0);
            commit.numMarks = 1;
            net.send(commit);
            eq.run();
        }
        return secondsSince(t0) * 1e9 / kCommits;
    });
    if (dir.nstid() != tid || dir.stats().commitsServed != tid ||
        replies < tid)
        errors.push_back("directory probe: scripted commits did not all "
                         "retire in TID order");
    return ns;
}

/** us per empty WindowCrew::runPhase() round trip. */
double
crewPhaseUs(unsigned jobs)
{
    WindowCrew crew(jobs, [](unsigned) {});
    return medianOfTrials([&] {
        constexpr int kPhases = 2000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kPhases; ++i)
            crew.runPhase();
        return secondsSince(t0) * 1e6 / kPhases;
    });
}

} // namespace

std::vector<Metric>
runLayerProbes(unsigned jobs, std::vector<std::string> &errors)
{
    const auto [load, store] = cacheNs(errors);
    return {
        {"sim.kernel_events_per_s", kernelEventsPerSec(), "events/s"},
        {"sim.pdes_barrier_us", crewPhaseUs(jobs), "us"},
        {"cache.load_hit_ns", load, "ns"},
        {"cache.store_ns", store, "ns"},
        {"directory.commit_service_ns", directoryCommitNs(errors), "ns"},
        {"noc.mesh_send_ns", meshSendNs(), "ns"},
        {"noc.tree_mcast_ns", treeMulticastNs(), "ns"},
    };
}

} // namespace perfbench
