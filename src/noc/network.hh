/**
 * @file
 * Interconnection network models. The paper evaluates a 2D grid with
 * 3-cycle links (swept 2-8 in Figure 8); MeshTiming models that
 * topology with XY dimension-order routing, per-link serialization and
 * contention, and MeshNetwork delivers on it. IdealNetwork delivers
 * with a fixed latency and is used in unit tests to isolate protocol
 * logic from network timing. NetworkConfig selects the model.
 */

#ifndef TCC_NOC_NETWORK_HH
#define TCC_NOC_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "noc/message.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/random.hh"

namespace tcc {

/**
 * Commit fan-out delivery strategy (NetworkConfig::multicast).
 *
 * Flat is the paper's implicit model: the sender's NIC serializes one
 * point-to-point copy per destination, so a commit touching D
 * directories costs D serialized injections at one NIC - O(N) once
 * commit degenerates into a broadcast. Tree stages the copies through
 * a k-ary combining tree embedded in the mesh (relays are destination
 * nodes; every edge still pays the full XY route with contention), so
 * no NIC on the critical path serializes more than k copies per level:
 * O(k log_k N) instead of O(N). The tree changes *timing only* - the
 * same copies reach the same destinations, so protocol outcomes are
 * unchanged (gated by tests and bench_scaling).
 */
struct MulticastConfig {
    enum class Topology { Flat, Tree };
    Topology topology = Topology::Flat;
    /** Tree fan-out k (children per relay); >= 2. */
    std::uint32_t fanout = 4;
    /** Destination count below which even a configured tree falls
     *  back to flat (staging overhead beats serialization savings
     *  only once the fan-out is wide). */
    std::uint32_t minDests = 8;

    /** True when a mesh fan-out to @p dests stages through a tree. */
    bool
    staged(std::size_t dests) const
    {
        return topology == Topology::Tree && dests >= minDests;
    }
};

/** What one multicast cost (ledger + bench accounting). */
struct MulticastReceipt {
    /** Copies delivered (== destination count). */
    std::uint32_t dests = 0;
    /** Serialized NIC injections on the critical path: the maximum,
     *  over destinations, of send events any single NIC queued ahead
     *  of that copy's route. Flat: dests. Tree: O(k log_k dests). */
    std::uint32_t nicSerialized = 0;
    /** Relay levels traversed (1 for flat). */
    std::uint32_t depth = 0;
};

/** Per-class traffic counters feeding the Figure 9 reproduction. */
struct NetworkStats {
    std::uint64_t messages = 0;
    std::uint64_t totalBytes = 0;
    /** Bytes by traffic class (indexed by TrafficClass). */
    std::uint64_t classBytes[static_cast<int>(TrafficClass::NumClasses)] =
        {};
    /** Bytes received per node (Figure 9 is per-directory traffic). */
    std::vector<std::uint64_t> nodeBytes;
    std::uint64_t totalHops = 0;
    /** Multicast fan-outs issued and their summed critical-path
     *  NIC-serialized injections (the O(N)-vs-O(log N) axis). */
    std::uint64_t multicasts = 0;
    std::uint64_t multicastNicEvents = 0;

    void
    account(const Message &msg, unsigned hops)
    {
        ++messages;
        totalBytes += msg.bytes;
        classBytes[static_cast<int>(trafficClassOf(msg.type))] +=
            msg.bytes;
        if (msg.dst < nodeBytes.size())
            nodeBytes[msg.dst] += msg.bytes;
        totalHops += hops;
    }

    /** Fold another endpoint's counters into this one (PDES domain
     *  shims merge into the System-level network at finalize). */
    void
    merge(const NetworkStats &o)
    {
        messages += o.messages;
        totalBytes += o.totalBytes;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(TrafficClass::NumClasses); ++i)
            classBytes[i] += o.classBytes[i];
        for (std::size_t n = 0;
             n < nodeBytes.size() && n < o.nodeBytes.size(); ++n)
            nodeBytes[n] += o.nodeBytes[n];
        totalHops += o.totalHops;
        multicasts += o.multicasts;
        multicastNicEvents += o.multicastNicEvents;
    }
};

class ChaosModel; // noc/chaos_network.hh

/**
 * Abstract network: point-to-point message delivery between nodes.
 * Delivery is always asynchronous through the event queue, even with
 * zero latency, so handlers never run re-entrantly inside send().
 */
class Network
{
  public:
    using Handler = std::function<void(const Message &)>;

    Network(EventQueue &eq, std::uint32_t num_nodes,
            Arena *arena = nullptr)
        : eventq(eq), handlers(num_nodes), msgPool(arena)
    {
        netStats.nodeBytes.assign(num_nodes, 0);
    }

    virtual ~Network() = default;

    /** Register the message handler for node @p n. */
    void
    connect(NodeId n, Handler h)
    {
        handlers.at(n) = std::move(h);
    }

    /** Number of endpoints. */
    std::uint32_t numNodes() const { return handlers.size(); }

    /**
     * Send @p msg from msg.src to msg.dst. @p msg.bytes must already
     * include header + payload. Local (src == dst) messages still pay
     * a minimal turnaround latency of one cycle.
     */
    virtual void send(Message msg) = 0;

    /**
     * Deliver a copy of @p proto to every node in @p dsts, in list
     * order. Call sites pass ascending destination lists; the flat
     * strategy then emits exactly the per-destination send() loop it
     * replaced, byte for byte. Mesh networks may stage the copies
     * through a combining tree instead (see MulticastConfig) - same
     * copies, different timing. @p proto.dst is ignored.
     */
    MulticastReceipt
    multicast(const Message &proto, std::span<const NodeId> dsts)
    {
        if (dsts.empty())
            return {};
        const MulticastReceipt r = doMulticast(proto, dsts);
        ++netStats.multicasts;
        netStats.multicastNicEvents += r.nicSerialized;
        return r;
    }

    /** Select the fan-out strategy (defaults to Flat). */
    void setMulticast(const MulticastConfig &cfg) { mcastCfg = cfg; }

    /** Cumulative traffic statistics. */
    const NetworkStats &stats() const { return netStats; }

    /** Reset traffic statistics (e.g., after warmup). */
    void
    resetStats()
    {
        netStats = NetworkStats{};
        netStats.nodeBytes.assign(handlers.size(), 0);
    }

    /** Attach the System's protocol event ring (may be null). */
    void setTraceRecorder(TraceRecorder *rec) { tracer = rec; }

    /**
     * PDES plumbing: deliver @p msg at absolute tick @p when without
     * accounting stats or emitting NetSend - the sending domain's shim
     * already did both when the message entered its mailbox. Called by
     * the window coordinator on the destination domain's shim
     * (sim/domain.hh); NetDeliver is still emitted at dispatch.
     */
    void
    deliverAt(Message msg, Tick when)
    {
        Message *slot = msgPool.alloc(std::move(msg));
        eventq.scheduleAt(when, [this, slot]() { dispatch(slot); });
    }

    /** PDES plumbing: fold a domain shim's traffic counters into this
     *  network's (the System-level report reads one stats object). */
    void accumulateStats(const NetworkStats &s) { netStats.merge(s); }

    /** The fault model this endpoint draws from (nullptr when the
     *  transport injects no faults). */
    virtual const ChaosModel *chaosModel() const { return nullptr; }

  protected:
    /**
     * Flat fan-out: one point-to-point send per destination through
     * the (possibly overridden, possibly decorated) send() - the
     * default for every network model and the bit-identity baseline
     * the tree strategies are gated against.
     */
    virtual MulticastReceipt
    doMulticast(const Message &proto, std::span<const NodeId> dsts)
    {
        for (NodeId d : dsts) {
            Message copy = proto;
            copy.dst = d;
            send(std::move(copy));
        }
        MulticastReceipt r;
        r.dests = static_cast<std::uint32_t>(dsts.size());
        r.nicSerialized = r.dests;
        r.depth = 1;
        return r;
    }

    /** Stats + NetSend trace for one send (delivery handled by the
     *  caller: either deliver() below or a PDES mailbox). */
    void
    accountSend(const Message &msg, unsigned hops)
    {
        netStats.account(msg, hops);
        traceEmit(tracer, TraceCat::Net, TraceEventKind::NetSend,
                  msg.src, msg.tid, msg.addr,
                  packNetInfo(msg.dst,
                              static_cast<std::uint8_t>(msg.type),
                              static_cast<std::uint8_t>(
                                  trafficClassOf(msg.type)),
                              msg.bytes));
    }

    /**
     * Deliver @p msg at now + @p delay and account @p hops. The message
     * is parked in a pooled slab for the flight; the deliver event only
     * captures {this, slot}, so it always fits the event queue's inline
     * callback storage - no per-hop heap allocation or Message copy
     * inside a closure. The slot is released right after the handler
     * returns, so handlers must not retain the reference.
     */
    void
    deliver(Message msg, Tick delay, unsigned hops)
    {
        deliverParked(park(std::move(msg)), delay, hops);
    }

    /** Park @p msg in the message pool (for a transport that holds a
     *  message across its own events before delivering it). */
    Message *park(Message msg) { return msgPool.alloc(std::move(msg)); }

    /** Return a parked slot that will not be delivered. */
    void release(Message *slot) { msgPool.free(slot); }

    /** deliver() for a message already parked by park(). */
    void
    deliverParked(Message *slot, Tick delay, unsigned hops)
    {
        accountSend(*slot, hops);
        eventq.schedule(delay, [this, slot]() { dispatch(slot); });
    }

    EventQueue &eventq;
    MulticastConfig mcastCfg;

  private:
    void
    dispatch(Message *slot)
    {
        const NodeId dst = slot->dst;
        if (!handlers[dst])
            panic("message to unconnected node %u", dst);
        // NetDeliver packs the *source* in the route-info word, so the
        // pair of events for one message reads as src->dst twice.
        traceEmit(tracer, TraceCat::Net, TraceEventKind::NetDeliver,
                  dst, slot->tid, slot->addr,
                  packNetInfo(slot->src,
                              static_cast<std::uint8_t>(slot->type),
                              static_cast<std::uint8_t>(
                                  trafficClassOf(slot->type)),
                              slot->bytes));
        handlers[dst](*slot);
        msgPool.free(slot);
    }

    std::vector<Handler> handlers;
    NetworkStats netStats;
    ObjectPool<Message> msgPool;
    TraceRecorder *tracer = nullptr;
};

/** Fixed-latency, infinite-bandwidth network for unit tests. */
class IdealNetwork : public Network
{
  public:
    IdealNetwork(EventQueue &eq, std::uint32_t num_nodes,
                 Tick latency = 1, Arena *arena = nullptr)
        : Network(eq, num_nodes, arena), fixedLatency(latency)
    {}

    void
    send(Message msg) override
    {
        deliver(std::move(msg), fixedLatency, 1);
    }

  private:
    Tick fixedLatency;
};

/** Configuration for the mesh timing model. */
struct MeshConfig {
    /** Per-hop link traversal latency in cycles (Figure 8 sweeps this). */
    Tick hopLatency = 3;
    /** Link bandwidth in bytes per cycle (serialization delay). */
    std::uint32_t linkBytesPerCycle = 8;
    /** Fixed router pipeline delay per hop. */
    Tick routerDelay = 1;
    /**
     * Optional uniform random extra delay in [0, jitter] applied per
     * message. Nonzero values create out-of-order delivery, used to
     * exercise the protocol's unordered-network race handling (paper
     * Section 3.3 "Race Elimination").
     */
    Tick reorderJitter = 0;
    /** Seed for the jitter stream. */
    std::uint64_t seed = 12345;
};

/** Columns of the smallest near-square grid that holds @p n nodes
 *  (row-major numbering; the last row may be ragged). */
std::uint32_t meshGridSide(std::uint32_t n);

/**
 * The 2D-mesh timing model every mesh transport (MeshNetwork,
 * ChaosNetwork, the PDES DomainNet) shares: XY dimension-order routes,
 * the reorder-jitter draw and the combining-tree schedule. Transports
 * only decide where each timed copy lands.
 *
 * Contention model: each directed link keeps the tick at which it next
 * becomes free. A message crossing the link departs at
 * max(arrival, linkFree) and occupies the link for its serialization
 * time - analytic store-and-forward, no per-flit events.
 *
 * @tparam Partitioned false: every link is owned. true: only links
 * whose source grid row lies in [rowBegin, rowEnd) are (one PDES
 * domain's row block); a foreign link costs the uncontended crossing
 * and is never written, so domains share no link state.
 */
template <bool Partitioned>
class MeshTiming
{
  public:
    MeshTiming(const MeshConfig &cfg, std::uint32_t num_nodes,
               std::uint32_t row_begin = 0, std::uint32_t row_end = 0)
        : config(cfg), gridCols(meshGridSide(num_nodes)),
          gridRows((num_nodes + gridCols - 1) / gridCols),
          rowBegin(row_begin), rowEnd(row_end),
          linkFree(static_cast<std::size_t>(gridCols) * gridRows * 4, 0),
          jitterRng(cfg.seed)
    {
        if (config.linkBytesPerCycle == 0)
            fatal("mesh linkBytesPerCycle must be nonzero");
    }

    std::uint32_t cols() const { return gridCols; }
    std::uint32_t rows() const { return gridRows; }

    /**
     * Walk the XY route from @p from, injected no earlier than
     * @p start, advancing the next-free tick of every owned link, and
     * return the absolute arrival tick at @p to. @p from == @p to is
     * the one-cycle local loopback (no link usage). Point-to-point
     * sends and tree edges share this walk.
     */
    Tick routeArrival(NodeId from, NodeId to, std::uint32_t bytes,
                      Tick start, unsigned &hops);

    /** Flight time of @p msg sent at @p now: its route plus the
     *  reorder-jitter draw (routed messages only). */
    Tick
    flight(const Message &msg, Tick now, unsigned &hops)
    {
        return routeArrival(msg.src, msg.dst, msg.bytes, now, hops) -
               now + jitter(hops);
    }

    /**
     * Combining-tree multicast of @p proto to @p dsts (ascending node
     * order), resolved at @p now. The source feeds the first k
     * destinations; destination index p relays to indices
     * (p+1)*k .. +k-1 one router pass after its copy arrives. A
     * parent's index is always below its children's, so one pass in
     * index order times every copy against the current link state:
     * relays need no forwarding events, and under PDES the tree lives
     * in the sending domain's timeline. Each copy is handed to
     * land(copy, flight, hops) in list order.
     */
    template <class Land>
    MulticastReceipt
    treeMulticast(std::uint32_t fanout, const Message &proto,
                  std::span<const NodeId> dsts, Tick now, Land &&land)
    {
        const std::size_t k = std::max<std::uint32_t>(2, fanout);
        const Tick ser = serialization(proto.bytes);
        // Slot 0 is the source's NIC, slot i+1 destination index i's.
        mcNicFree.assign(dsts.size() + 1, 0);
        mcCopy.assign(dsts.size(), TreeCopy{});
        MulticastReceipt r;
        r.dests = static_cast<std::uint32_t>(dsts.size());
        for (std::size_t i = 0; i < dsts.size(); ++i) {
            const bool root = i < k;
            const std::size_t pi = root ? 0 : i / k - 1;
            const TreeCopy parent = root ? TreeCopy{now, 0, 0}
                                         : mcCopy[pi];
            const Tick ready =
                root ? now : parent.arrival + config.routerDelay;
            Tick &nic = mcNicFree[root ? 0 : pi + 1];
            const Tick inject = std::max(ready, nic);
            nic = inject + ser;
            unsigned hops = 0;
            TreeCopy &c = mcCopy[i];
            c.arrival = routeArrival(root ? proto.src : dsts[pi], dsts[i],
                                     proto.bytes, inject, hops);
            c.nicPath = parent.nicPath + 1 +
                        static_cast<std::uint32_t>(root ? i
                                                        : i - (pi + 1) * k);
            c.depth = parent.depth + 1;
            r.nicSerialized = std::max(r.nicSerialized, c.nicPath);
            r.depth = std::max(r.depth, c.depth);

            Message copy = proto;
            copy.dst = dsts[i];
            land(std::move(copy), c.arrival - now + jitter(hops), hops);
        }
        return r;
    }

  private:
    Tick
    serialization(std::uint32_t bytes) const
    {
        return std::max<Tick>(1, (bytes + config.linkBytesPerCycle - 1) /
                                     config.linkBytesPerCycle);
    }

    Tick
    jitter(unsigned hops)
    {
        return hops != 0 && config.reorderJitter > 0
                   ? jitterRng.below(config.reorderJitter + 1)
                   : 0;
    }

    /** One tree copy: arrival tick, NIC injections on its critical
     *  path, and relay depth. */
    struct TreeCopy {
        Tick arrival;
        std::uint32_t nicPath;
        std::uint32_t depth;
    };

    MeshConfig config;
    std::uint32_t gridCols;
    std::uint32_t gridRows;
    /** Owned source rows (Partitioned only). */
    std::uint32_t rowBegin;
    std::uint32_t rowEnd;
    /** Next-free tick per directed link (4 directions per grid slot;
     *  routes may pass through unpopulated slots of a ragged grid). */
    std::vector<Tick> linkFree;
    Rng jitterRng;
    /** Tree-multicast scratch (reused; untouched on the flat path). */
    std::vector<Tick> mcNicFree;
    std::vector<TreeCopy> mcCopy;
};

/** Fault-injection knobs (ChaosModel, noc/chaos_network.hh); all
 *  delays in cycles. */
struct ChaosConfig {
    /** Time messages with the fixed ideal latency, not the mesh. */
    bool overIdeal = false;
    /** Extra uniform delay in [0, jitter] per message. */
    Tick jitter = 6;
    /** Probability a message is held for an extra reorder delay. */
    double reorderProb = 0.25;
    /** Maximum extra hold for a reordered message. */
    Tick reorderWindow = 24;
    /** Probability an idempotent reply is delivered twice. */
    double duplicateProb = 0.0;
    /** The duplicate copy enters the transport this much later. */
    Tick duplicateLag = 9;
    /** Seed of the fault stream (part of the run fingerprint). */
    std::uint64_t seed = 0xC7A05;
};

/** Interconnect selection and per-model parameters. */
struct NetworkConfig {
    enum class Model : std::uint8_t {
        Mesh,  ///< 2D mesh, XY routing (the paper's interconnect)
        Ideal, ///< fixed-latency, infinite bandwidth (unit tests)
        Chaos, ///< seeded faults over Mesh or Ideal timing (see chaos)
    };
    Model model = Model::Mesh;
    /** Mesh parameters (Model::Mesh, and Chaos over a mesh base). */
    MeshConfig mesh;
    /** Fixed latency (Model::Ideal, and Chaos over an ideal base). */
    Tick idealLatency = 1;
    /** Fault-injection parameters (Model::Chaos). chaos.overIdeal
     *  picks the base network the faults are layered on. */
    ChaosConfig chaos;
    /** Commit fan-out strategy: flat per-destination sends (default,
     *  the paper's model) or a k-ary combining tree embedded in the
     *  mesh (Model::Mesh only; see DESIGN.md section 12). */
    MulticastConfig multicast;

    /** True when messages travel the mesh: Model::Mesh, or Chaos over
     *  a mesh base. Otherwise they take the fixed idealLatency. */
    bool
    meshBased() const
    {
        return model == Model::Mesh ||
               (model == Model::Chaos && !chaos.overIdeal);
    }
};

/** 2D mesh with XY dimension-order routing (timing: MeshTiming). */
class MeshNetwork : public Network
{
  public:
    MeshNetwork(EventQueue &eq, std::uint32_t num_nodes,
                const MeshConfig &cfg = MeshConfig{},
                Arena *arena = nullptr);

    void send(Message msg) override;

    /** Mesh side lengths chosen at construction. */
    std::uint32_t cols() const { return timing.cols(); }
    std::uint32_t rows() const { return timing.rows(); }

    /** Manhattan hop count between two nodes. */
    unsigned hopCount(NodeId a, NodeId b) const;

  protected:
    /** Combining-tree staging when configured (Topology::Tree and a
     *  wide enough destination list); flat otherwise. */
    MulticastReceipt doMulticast(const Message &proto,
                                 std::span<const NodeId> dsts) override;

  private:
    MeshTiming<false> timing;
};

} // namespace tcc

#endif // TCC_NOC_NETWORK_HH
