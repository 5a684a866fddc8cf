/**
 * @file
 * Shared driver for the benchmark harness: the run-one-configuration
 * plumbing every bench binary uses (bench_paper regenerates the
 * paper's tables and figures from it; see DESIGN.md's per-experiment
 * index).
 */

#ifndef TCC_BENCH_COMMON_HH
#define TCC_BENCH_COMMON_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/metrics.hh"
#include "workload/registry.hh"

namespace tccbench {

using namespace tcc;

/** Everything a figure needs from one finished run. */
struct RunOutcome {
    std::string app;
    std::uint32_t procs = 0;
    Tick cycles = 0;
    bool completed = false;
    Breakdown breakdown;
    AppCharacterization characterization;
    TrafficRow traffic;
    std::uint64_t committedTxns = 0;
    std::uint64_t violations = 0;
    std::uint64_t committedInstructions = 0;
    std::uint64_t dirCacheMisses = 0;
    /** Memory footprint of the run's arena (see common/arena.hh). */
    std::uint64_t arenaPeakBytes = 0;
    std::uint64_t arenaChunks = 0;
    /** Verdicts of any checkers armed via RunOptions::check. */
    CheckVerdict serial;
    CheckVerdict invariants;
    /** Epochs the metrics sampler closed (0 when not armed via
     *  RunOptions::trace). */
    std::uint64_t metricsEpochs = 0;
    /** Committed logical data-structure ops (0 for synthetic apps). */
    std::uint64_t committedOps = 0;
};

/** Tweaks applied on top of the default Table 2 configuration. */
struct RunOptions {
    std::uint32_t procs = 8;
    std::uint64_t seed = 1;
    Tick hopLatency = 3;
    Granularity granularity = Granularity::Word;
    HomePolicy homePolicy = HomePolicy::FirstTouch;
    std::uint32_t agingThreshold = 3;
    /** Interconnect (model + parameters); hopLatency above overrides
     *  network.mesh.hopLatency for the mesh-based models. */
    NetworkConfig network;
    /** Checkers to arm (chaos_sweep runs with both on). */
    CheckConfig check;
    /** Directory cache entries (0 = perfectly sized). */
    std::uint32_t dirCacheEntries = 0;
    /** Write-through commit ablation. */
    bool writeThroughCommit = false;
    /** Observability (metricsEpoch / contentionTopK arm the epoch
     *  sampler and conflict profiler; default all-off). */
    TraceConfig trace;
    /** Workload knob overrides (registry key=value pairs, e.g.
     *  {"txns_per_phase","64"} for smoke clamps). */
    WorkloadParams wl;
};

/** Run registry workload @p name once under @p opt. */
inline RunOutcome
runWorkload(const std::string &name, const RunOptions &opt)
{
    SystemConfig cfg;
    cfg.numProcs = opt.procs;
    cfg.network = opt.network;
    cfg.network.mesh.hopLatency = opt.hopLatency;
    cfg.cache.granularity = opt.granularity;
    cfg.homePolicy = opt.homePolicy;
    cfg.processor.agingThreshold = opt.agingThreshold;
    cfg.check = opt.check;
    cfg.directory.dirCacheEntries = opt.dirCacheEntries;
    cfg.writeThroughCommit = opt.writeThroughCommit;
    cfg.trace = opt.trace;

    System sys(cfg);
    const WorkloadBundle bundle =
        makeWorkload(name, opt.wl, opt.seed, opt.procs);
    bundle.attach(sys);
    const RunResult res = sys.run();

    RunOutcome out;
    out.app = name;
    out.procs = opt.procs;
    out.cycles = res.cycles;
    out.completed = res.completed;
    out.breakdown = res.breakdown;
    out.characterization = characterize(sys, name);
    out.traffic = trafficPerInstr(sys, name);
    out.committedTxns = res.committedTxns;
    out.violations = res.violations;
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        out.dirCacheMisses += sys.directory(p).stats().dirCacheMisses;
    out.committedInstructions = res.committedInstructions;
    const Arena::Stats as = sys.arenaStats();
    out.arenaPeakBytes = as.peakBytes;
    out.arenaChunks = as.chunks;
    out.serial = res.serial;
    out.invariants = res.invariants;
    if (const MetricsSampler *m = sys.metricsSampler())
        out.metricsEpochs = m->closed();
    out.committedOps = bundle.committedOps();
    return out;
}

/** The paper's application ordering for every figure (Table-3
 *  workload names from the registry). */
inline std::vector<std::string>
benchApps()
{
    std::vector<std::string> names;
    for (const auto &info : workloadInfos())
        if (info.kind == "table3")
            names.push_back(info.name);
    return names;
}

/**
 * Parse the value of a bench driver's --jobs=N flag: the whole token
 * must be a decimal in [1, SweepRunner::kMaxJobs]. Anything else - a
 * sign, junk, zero, a huge count - prints "invalid value '<v>' for
 * --jobs" and exits 2, so no driver ever starts a made-up number of
 * workers.
 */
inline unsigned
parseJobs(const char *value)
{
    const char *end = value + std::strlen(value);
    unsigned v = 0;
    const auto [ptr, ec] = std::from_chars(value, end, v);
    if (ec != std::errc() || ptr != end || v == 0 ||
        v > SweepRunner::kMaxJobs) {
        std::fprintf(stderr, "invalid value '%s' for --jobs\n", value);
        std::exit(2);
    }
    return v;
}

} // namespace tccbench

#endif // TCC_BENCH_COMMON_HH
