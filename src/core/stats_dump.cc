#include "core/stats_dump.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/flat_map.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "obs/tx_ledger.hh"

namespace tcc {

namespace {

/**
 * One node of the ordered stats tree. An object or an array owns its
 * children in emission order; a leaf holds one number, flag or name.
 * Keys and names are string literals or strings owned by the System
 * the tree was built from, so a tree must not outlive that System.
 */
struct StatNode {
    enum class Kind : std::uint8_t { Object, Array, Uint, Real, Flag, Name };

    Kind kind = Kind::Object;
    /** Member name inside an object; null for an array element. */
    const char *key = nullptr;
    union {
        std::uint64_t u = 0; ///< Uint, and Flag as 0/1
        double f;            ///< Real
        const char *s;       ///< Name
    };
    std::vector<StatNode> children;

    /** Append a child object (or array) and return it. The reference
     *  is valid until the next child is appended to this node. */
    StatNode &
    object(const char *k = nullptr)
    {
        StatNode &n = children.emplace_back();
        n.key = k;
        return n;
    }

    StatNode &
    array(const char *k)
    {
        StatNode &n = object(k);
        n.kind = Kind::Array;
        return n;
    }

    /** Append a leaf; its kind follows the value's type. */
    template <typename T>
    void
    add(const char *k, T v)
    {
        StatNode &n = object(k);
        if constexpr (std::is_same_v<T, bool>) {
            n.kind = Kind::Flag;
            n.u = v ? 1 : 0;
        } else if constexpr (std::is_integral_v<T>) {
            n.kind = Kind::Uint;
            n.u = static_cast<std::uint64_t>(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            n.kind = Kind::Real;
            n.f = v;
        } else {
            static_assert(std::is_same_v<T, const char *>);
            n.kind = Kind::Name;
            n.s = v;
        }
    }
};

void
addDistribution(StatNode &parent, const char *key, const Distribution &d)
{
    StatNode &n = parent.object(key);
    n.add("count", d.count());
    if (d.count() == 0)
        return;
    n.add("mean", d.mean());
    n.add("min", d.min());
    n.add("p50", d.percentile(50));
    n.add("p90", d.percentile(90));
    n.add("max", d.max());
    n.add("stddev", d.stddev());
}

/** Cross-commit summary: sample count, mean, p50 and p99. */
void
addSummary(StatNode &parent, const char *key, const Distribution &d)
{
    StatNode &n = parent.object(key);
    n.add("count", d.count());
    if (d.count() == 0)
        return;
    n.add("mean", d.mean());
    n.add("p50", d.percentile(50));
    n.add("p99", d.percentile(99));
}

/** Aggregate per-entry violation causes across the whole ledger:
 *  (address, count) sorted by count descending, address ascending. */
std::vector<std::pair<Addr, std::uint64_t>>
aggregateCauses(const std::vector<TxLedgerEntry> &ledger)
{
    FlatMap<Addr, std::uint64_t> agg;
    for (const TxLedgerEntry &e : ledger) {
        for (const auto &[addr, n] : e.causes)
            agg[addr] += n;
    }
    std::vector<std::pair<Addr, std::uint64_t>> out;
    out.reserve(agg.size());
    for (const auto &kv : agg)
        out.emplace_back(kv.first, kv.second);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    return out;
}

void
addConfig(StatNode &root, const SystemConfig &cfg)
{
    StatNode &c = root.object("config");
    c.add("procs", cfg.numProcs);
    StatNode &net = c.object("network");
    const auto model = cfg.network.model;
    net.add("model", model == NetworkConfig::Model::Mesh    ? "mesh"
                     : model == NetworkConfig::Model::Ideal ? "ideal"
                                                            : "chaos");
    const ChaosConfig &chaos = cfg.network.chaos;
    if (model == NetworkConfig::Model::Chaos) {
        net.add("base", chaos.overIdeal ? "ideal" : "mesh");
        net.add("seed", chaos.seed);
        net.add("jitter", chaos.jitter);
        net.add("reorder_prob", chaos.reorderProb);
        net.add("reorder_window", chaos.reorderWindow);
        net.add("duplicate_prob", chaos.duplicateProb);
        net.add("duplicate_lag", chaos.duplicateLag);
    }
    if (!cfg.network.meshBased()) {
        net.add("ideal_latency", cfg.network.idealLatency);
    } else {
        net.add("hop_latency", cfg.network.mesh.hopLatency);
        net.add("link_bytes_per_cycle",
                cfg.network.mesh.linkBytesPerCycle);
    }
    StatNode &check = c.object("check");
    check.add("serial", cfg.check.serial);
    check.add("invariants", cfg.check.invariants);
    c.add("write_through_commit", cfg.writeThroughCommit);
}

/** Epoch time series: one parallel array per probe plus the derived
 *  nstid_lag (tids issued minus the slowest directory's NSTID - the
 *  commit pipeline's depth over time). */
void
addMetrics(StatNode &root, const MetricsSampler &m)
{
    StatNode &n = root.object("metrics");
    n.add("epoch", m.epochLength());
    n.add("epochs_closed", m.closed());
    n.add("epochs_dropped", m.dropped());
    n.add("first_epoch", m.firstEpoch());
    StatNode &series = n.object("series");
    for (std::size_t p = 0; p < m.probeCount(); ++p) {
        StatNode &col = series.array(m.probeName(p));
        for (std::size_t r = 0; r < m.rows(); ++r)
            col.add(nullptr, m.at(r, p));
    }
    const int issued = m.probeIndex("tids_issued");
    const int nstid = m.probeIndex("nstid_min");
    if (issued >= 0 && nstid >= 0) {
        StatNode &lag = series.array("nstid_lag");
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const std::uint64_t hi =
                m.at(r, static_cast<std::size_t>(issued));
            const std::uint64_t lo =
                m.at(r, static_cast<std::size_t>(nstid));
            lag.add(nullptr, hi > lo ? hi - lo : 0);
        }
    }
}

/** Conflict attribution: hot words and the abort blame graph. */
void
addContention(StatNode &root, const ContentionProfiler &c)
{
    StatNode &n = root.object("contention");
    n.add("top_k", c.topK());
    n.add("conflicts", c.conflictsRecorded());
    n.add("evictions", c.evictions());
    StatNode &words = n.array("hot_words");
    for (const auto &w : c.hotWords()) {
        StatNode &e = words.object();
        e.add("addr", w.addr);
        e.add("sr_conflicts", w.s.srConflicts);
        e.add("sm_conflicts", w.s.smConflicts);
        e.add("aborts", w.s.aborts);
        e.add("wasted_cycles", w.s.wasted);
    }
    StatNode &edges = n.array("blame_edges");
    for (const auto &b : c.blameEdges()) {
        StatNode &e = edges.object();
        e.add("killer", b.killer);
        e.add("victim", b.victim);
        e.add("count", b.count);
    }
}

void
addProc(StatNode &procs, const System &sys, NodeId p)
{
    const auto &s = sys.proc(p).stats();
    StatNode &n = procs.object();
    n.add("node", p);
    n.add("useful_cycles", s.usefulCycles);
    n.add("miss_cycles", s.missCycles);
    n.add("commit_cycles", s.commitCycles);
    n.add("idle_cycles", s.idleCycles);
    n.add("violation_cycles", s.violationCycles);
    n.add("txns_committed", s.txnsCommitted);
    n.add("violations", s.violations);
    n.add("overflows", s.overflows);
    n.add("solo_commits", s.soloCommits);
    n.add("drains", s.drains);
    n.add("tid_requests", s.tidRequests);
    n.add("value_validation_failures", s.valueValidationFailures);
    addDistribution(n, "txn_instructions", s.txnInstructions);
    addDistribution(n, "commit_latency", s.commitLatency);
    addDistribution(n, "dirs_per_commit", s.dirsPerCommit);
    addDistribution(n, "dirs_touched_per_commit", s.dirsTouchedPerCommit);
    addDistribution(n, "multicast_nic_per_commit",
                    s.multicastNicPerCommit);

    const auto &cs = sys.proc(p).cache().stats();
    StatNode &cache = n.object("cache");
    cache.add("loads", cs.loads);
    cache.add("stores", cs.stores);
    cache.add("l1_hits", cs.l1Hits);
    cache.add("l2_hits", cs.l2Hits);
    cache.add("misses", cs.misses);
    cache.add("fills", cs.fills);
    cache.add("dirty_evictions", cs.dirtyEvictions);
    cache.add("overflows", cs.overflows);
    cache.add("ghosts", cs.ghostsCreated);
}

void
addDir(StatNode &dirs, const System &sys, NodeId d)
{
    const Directory &dir = sys.directory(d);
    const auto &s = dir.stats();
    StatNode &n = dirs.object();
    n.add("node", d);
    n.add("nstid", dir.nstid());
    n.add("loads_served", s.loadsServed);
    n.add("loads_stalled", s.loadsStalled);
    n.add("loads_forwarded", s.loadsForwarded);
    n.add("skips", s.skipsReceived);
    n.add("commits", s.commitsServed);
    n.add("partial_commits", s.partialCommitsServed);
    n.add("aborts", s.abortsServed);
    n.add("invalidations", s.invalidationsSent);
    n.add("writebacks_accepted", s.writeBacksAccepted);
    n.add("writebacks_dropped", s.writeBacksDropped);
    n.add("marks", s.marksReceived);
    n.add("probes_deferred", s.probesDeferred);
    n.add("dir_cache_misses", s.dirCacheMisses);
    n.add("busy_cycles", s.busyCycles);
    n.add("entries", dir.numEntries());
    addDistribution(n, "commit_occupancy", s.commitOccupancy);
    addDistribution(n, "working_set", s.workingSet);
}

void
addLedger(StatNode &root, const std::vector<TxLedgerEntry> &ledger)
{
    StatNode &arr = root.array("tx_ledger");
    for (const TxLedgerEntry &e : ledger) {
        StatNode &n = arr.object();
        n.add("tid", e.tid);
        n.add("node", e.node);
        n.add("begin_tick", e.beginTick);
        n.add("exec_cycles", e.execCycles());
        n.add("commit_cycles", e.commitCycles());
        n.add("retries", e.retries);
        n.add("probes", e.probeCount);
        n.add("probe_rtt_mean", e.probeRttMean());
        n.add("probe_rtt_max", e.probeRttMax);
        n.add("mark_to_commit", e.markToCommitCycles());
        n.add("skip_to_commit", e.skipToCommitCycles());
        n.add("directories_touched", e.directoriesTouched);
        n.add("multicast_events", e.multicastEvents);
        n.add("has_violation", e.hasViolation);
        if (!e.hasViolation)
            continue;
        n.add("violation_addr", e.violationAddr);
        n.add("violation_writer", e.violationWriter);
        StatNode &causes = n.array("causes");
        for (const auto &[addr, count] : e.causes) {
            StatNode &c = causes.object();
            c.add("addr", addr);
            c.add("count", count);
        }
    }

    // Cross-commit fan-out distributions: directories touched per
    // commit and NIC-serialized multicast cost per commit.
    Distribution dirs, mcast;
    for (const TxLedgerEntry &e : ledger) {
        dirs.sample(static_cast<double>(e.directoriesTouched));
        mcast.sample(static_cast<double>(e.multicastEvents));
    }
    StatNode &sum = root.object("tx_ledger_summary");
    addSummary(sum, "directories_touched", dirs);
    addSummary(sum, "multicast_events", mcast);
    // Ledger-wide violation-cause histogram: which addresses caused
    // retries, not just each transaction's *last* cause.
    StatNode &causes = sum.array("violation_causes");
    for (const auto &[addr, count] : aggregateCauses(ledger)) {
        StatNode &c = causes.object();
        c.add("addr", addr);
        c.add("count", count);
    }
}

/** The one number formatter of both renderers. */
void
writeNumber(std::ostream &os, const StatNode &n)
{
    char buf[40];
    if (n.kind == StatNode::Kind::Uint)
        std::snprintf(buf, sizeof(buf), "%" PRIu64, n.u);
    else
        std::snprintf(buf, sizeof(buf), "%.6g", n.f);
    os << buf;
}

void
writeJson(std::ostream &os, const StatNode &n)
{
    if (n.key != nullptr)
        os << "\"" << n.key << "\":";
    switch (n.kind) {
    case StatNode::Kind::Object:
    case StatNode::Kind::Array: {
        const bool obj = n.kind == StatNode::Kind::Object;
        os << (obj ? "{" : "[");
        for (std::size_t i = 0; i < n.children.size(); ++i) {
            if (i != 0)
                os << ",";
            writeJson(os, n.children[i]);
        }
        os << (obj ? "}" : "]");
        break;
    }
    case StatNode::Kind::Flag:
        os << (n.u != 0 ? "true" : "false");
        break;
    case StatNode::Kind::Name:
        // Names are known identifiers; no escaping needed.
        os << "\"" << n.s << "\"";
        break;
    default:
        writeNumber(os, n);
    }
}

/** Write @p n's lines under @p path (extended and restored in place). */
void
writeText(std::ostream &os, const StatNode &n, std::string &path)
{
    const std::size_t len = path.size();
    switch (n.kind) {
    case StatNode::Kind::Object:
        for (const StatNode &c : n.children) {
            if (len != 0)
                path += '.';
            path += c.key;
            writeText(os, c, path);
            path.resize(len);
        }
        return;
    case StatNode::Kind::Array:
        os << path << ".count " << n.children.size() << "\n";
        for (std::size_t i = 0; i < n.children.size(); ++i) {
            path += '.';
            path += std::to_string(i);
            writeText(os, n.children[i], path);
            path.resize(len);
        }
        return;
    case StatNode::Kind::Flag:
        os << path << " " << n.u << "\n";
        return;
    case StatNode::Kind::Name:
        os << path << " " << n.s << "\n";
        return;
    default:
        os << path << " ";
        writeNumber(os, n);
        os << "\n";
    }
}

/** Every statistic of @p sys as one ordered tree. */
StatNode
buildStatsTree(const System &sys)
{
    StatNode root;
    addConfig(root, sys.cfg());

    const Breakdown bd = sys.computeBreakdown();
    const Arena::Stats as = sys.arenaStats();
    StatNode &s = root.object("system");
    s.add("procs", sys.numProcs());
    s.add("committed_instructions", sys.committedInstructions());
    s.add("useful_cycles", bd.useful);
    s.add("miss_cycles", bd.miss);
    s.add("commit_cycles", bd.commit);
    s.add("idle_cycles", bd.idle);
    s.add("violation_cycles", bd.violation);
    s.add("tids_issued", sys.vendor().issued());
    s.add("quiesced", sys.protocolQuiesced());
    s.add("arena_peak_bytes", as.peakBytes);
    s.add("arena_chunks", as.chunks);
    s.add("trace_events_captured", sys.traceRecorder().captured());
    s.add("trace_events_dropped", sys.traceRecorder().dropped());

    const auto &ns = sys.network().stats();
    StatNode &net = root.object("network");
    net.add("messages", ns.messages);
    net.add("bytes", ns.totalBytes);
    net.add("hops", ns.totalHops);
    net.add("multicasts", ns.multicasts);
    net.add("multicast_nic_events", ns.multicastNicEvents);
    StatNode &cls = net.object("bytes_by_class");
    cls.add("overhead", ns.classBytes[(int)TrafficClass::Overhead]);
    cls.add("miss", ns.classBytes[(int)TrafficClass::Miss]);
    cls.add("writeback", ns.classBytes[(int)TrafficClass::WriteBack]);
    cls.add("shared", ns.classBytes[(int)TrafficClass::Shared]);

    const auto &ps = sys.pdesStats();
    if (ps.domains != 0) {
        StatNode &pdes = root.object("pdes");
        pdes.add("domains", ps.domains);
        pdes.add("jobs", ps.jobs);
        pdes.add("sync", ps.adaptive ? "adaptive" : "fixed");
        pdes.add("lookahead", ps.lookahead);
        pdes.add("windows", ps.windows);
        pdes.add("phases", ps.phases);
        pdes.add("mailbox_messages", ps.mailboxMessages);
        pdes.add("idle_domain_skips", ps.idleDomainSkips);
        pdes.add("empty_broadcasts_skipped", ps.emptyBroadcastsSkipped);
        addDistribution(pdes, "window_width", ps.windowWidth);
    }

    if (const MetricsSampler *m = sys.metricsSampler())
        addMetrics(root, *m);
    if (const ContentionProfiler *c = sys.contentionProfiler())
        addContention(root, *c);

    StatNode &procs = root.array("procs");
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        addProc(procs, sys, p);
    StatNode &dirs = root.array("dirs");
    for (NodeId d = 0; d < sys.numProcs(); ++d)
        addDir(dirs, sys, d);

    addLedger(root, sys.traceRecorder().captured() != 0
                        ? buildTxLedger(sys.traceRecorder())
                        : std::vector<TxLedgerEntry>{});
    return root;
}

} // namespace

void
dumpStats(const System &sys, std::ostream &os)
{
    os << "---------- begin tcc stats ----------\n";
    std::string path;
    writeText(os, buildStatsTree(sys), path);
    os << "---------- end tcc stats ----------\n";
}

void
dumpStatsJson(const System &sys, std::ostream &os)
{
    writeJson(os, buildStatsTree(sys));
    os << "\n";
}

} // namespace tcc
