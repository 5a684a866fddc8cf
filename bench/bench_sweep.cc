/**
 * @file
 * Benchmark of the evaluation harness itself, with a machine-readable
 * result (BENCH_sweep.json):
 *
 *  1. Wall-clock of a representative figure-style grid (every
 *     application at 8 and 16 processors) run serially vs through
 *     SweepRunner with N workers. The parallel pass is checked
 *     bit-identical to the serial pass before any number is reported;
 *     a mismatch fails the benchmark.
 *  2. End-to-end simulated events/sec of a single Table 2 run - the
 *     figure that tracks the FlatMap/FlatSet hot-path containers
 *     (directory entries, store words, processor write buffers).
 *
 * Usage: bench_sweep [--smoke] [--out PATH] [--jobs=<n>]
 *   --smoke   tiny grid (CI wiring check, not a benchmark)
 *   --out     JSON output path (default BENCH_sweep.json)
 *   --jobs    parallel worker count (default: TCC_JOBS env, else
 *             hardware threads)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/log.hh"
#include "workload/scripted_source.hh"

// Configure-time git revision (set by bench/CMakeLists.txt) so each
// BENCH_*.json records what code produced it.
#ifndef TCC_GIT_REV
#define TCC_GIT_REV "unknown"
#endif

namespace {

using namespace tccbench;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Mean / min / relative standard deviation of repeated wall times.
 *  The minimum feeds the speedup (least-noise estimate); the relative
 *  stddev tells the gate whether this machine's timings are stable
 *  enough to fail on. */
struct WallStats {
    double minSec = 0;
    double meanSec = 0;
    double relStddev = 0;
};

WallStats
wallStats(const std::vector<double> &times)
{
    WallStats w;
    w.minSec = times[0];
    double sum = 0;
    for (double t : times) {
        sum += t;
        w.minSec = std::min(w.minSec, t);
    }
    w.meanSec = sum / static_cast<double>(times.size());
    double var = 0;
    for (double t : times)
        var += (t - w.meanSec) * (t - w.meanSec);
    var /= static_cast<double>(times.size());
    if (w.meanSec > 0)
        w.relStddev = std::sqrt(var) / w.meanSec;
    return w;
}

struct GridCell {
    std::string app;
    std::uint32_t procs;
};

/** The run fingerprint that must match between serial and parallel. */
struct Fingerprint {
    Tick cycles;
    std::uint64_t committedTxns;
    std::uint64_t violations;
    std::uint64_t committedInstructions;
    bool completed;

    bool
    operator==(const Fingerprint &o) const
    {
        return cycles == o.cycles &&
               committedTxns == o.committedTxns &&
               violations == o.violations &&
               committedInstructions == o.committedInstructions &&
               completed == o.completed;
    }
};

Fingerprint
fingerprint(const RunOutcome &out)
{
    return Fingerprint{out.cycles, out.committedTxns, out.violations,
                       out.committedInstructions, out.completed};
}

std::vector<RunOutcome>
runGrid(const std::vector<GridCell> &grid, unsigned jobs)
{
    SweepRunner runner(jobs);
    return sweepIndex<RunOutcome>(
        runner, grid.size(), [&](std::size_t i) {
            RunOptions opt;
            opt.procs = grid[i].procs;
            return runWorkload(grid[i].app, opt);
        });
}

struct FlatMapResult {
    double eventsPerSec = 0;
    std::uint64_t arenaPeakBytes = 0;
    std::uint64_t arenaChunks = 0;
};

/** One timed end-to-end run; events/sec exercises the flat maps. */
FlatMapResult
flatMapEventsPerSec(std::uint32_t txns_per_phase)
{
    SystemConfig cfg;
    cfg.numProcs = 16;
    System sys(cfg);
    WorkloadParams wl;
    wl.set("txns_per_phase", std::to_string(txns_per_phase));
    wl.set("phases", "2");
    const WorkloadBundle bundle =
        makeWorkload("water_spatial", wl, /*seed=*/1, cfg.numProcs);
    bundle.attach(sys);
    const auto t0 = std::chrono::steady_clock::now();
    auto res = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    FlatMapResult out;
    out.eventsPerSec = static_cast<double>(res.events) / seconds(t0, t1);
    const Arena::Stats as = sys.arenaStats();
    out.arenaPeakBytes = as.peakBytes;
    out.arenaChunks = as.chunks;
    return out;
}

/**
 * Observability wiring check (same scenario as bench_kernel's): the
 * 2-processor scripted conflict with all trace categories on, text
 * output off. Zero captured events means the instrumentation broke.
 */
std::uint64_t
tracedEventCount()
{
    using namespace tcc;
    Trace::setTextOutput(false);
    Trace::enableAll(true);
    std::uint64_t captured = 0;
    {
        SystemConfig cfg;
        cfg.numProcs = 2;
        cfg.homePolicy = HomePolicy::Interleave;
        System sys(cfg);
        const Addr x = 0x100000;
        ScriptedSource p0;
        p0.add({TxOp::compute(100), TxOp::store(x, 42)});
        ScriptedSource p1;
        p1.add({TxOp::load(x), TxOp::compute(4000),
                TxOp::storeAdd(x + 4096, 0)});
        sys.setSource(0, &p0);
        sys.setSource(1, &p1);
        sys.run();
        captured = sys.traceRecorder().captured();
    }
    Trace::enableAll(false);
    Trace::setTextOutput(true);
    return captured;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tccbench;

    bool smoke = false;
    std::string outPath = "BENCH_sweep.json";
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobs = parseJobs(argv[i] + 7);
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--smoke] [--out PATH] [--jobs=<n>]\n",
                argv[0]);
            return 2;
        }
    }
    if (jobs == 0)
        jobs = SweepRunner::defaultJobs();

    // The grid: every application at 8 and 16 CPUs (a slice of the
    // Figure 7 sweep). Smoke keeps two applications so CI only checks
    // the wiring.
    std::vector<GridCell> grid;
    std::size_t nApps = 0;
    for (const auto &app : benchApps()) {
        if (smoke && nApps >= 2)
            break;
        ++nApps;
        for (std::uint32_t p : {8u, 16u})
            grid.push_back(GridCell{app, p});
    }

    std::printf("== sweep-engine throughput (%zu runs) ==\n",
                grid.size());

    // Repeat each timed pass so the JSON carries per-run wall times
    // and the speedup gate can tell a real regression from scheduler
    // noise. The grid results are deterministic, so only the first
    // pass's outcomes are kept for the bit-identity check.
    const int passes = smoke ? 1 : 3;
    std::vector<double> serialTimes, parallelTimes;
    std::vector<RunOutcome> serial, parallel;
    for (int p = 0; p < passes; ++p) {
        const auto s0 = std::chrono::steady_clock::now();
        auto out = runGrid(grid, 1);
        const auto s1 = std::chrono::steady_clock::now();
        serialTimes.push_back(seconds(s0, s1));
        if (p == 0)
            serial = std::move(out);
    }
    for (int p = 0; p < passes; ++p) {
        const auto p0 = std::chrono::steady_clock::now();
        auto out = runGrid(grid, jobs);
        const auto p1 = std::chrono::steady_clock::now();
        parallelTimes.push_back(seconds(p0, p1));
        if (p == 0)
            parallel = std::move(out);
    }
    const WallStats serialW = wallStats(serialTimes);
    const WallStats parallelW = wallStats(parallelTimes);
    const double serialSec = serialW.minSec;
    const double parallelSec = parallelW.minSec;
    std::printf("serial   (1 job%s) : %8.3f sec "
                "(min of %d, +/-%.1f%%)\n",
                "", serialSec, passes, serialW.relStddev * 100.0);
    std::printf("parallel (%u jobs) : %8.3f sec "
                "(min of %d, +/-%.1f%%)\n",
                jobs, parallelSec, passes,
                parallelW.relStddev * 100.0);

    // Determinism gate: the parallel sweep must reproduce the serial
    // sweep bit for bit, or its timing is meaningless.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!(fingerprint(serial[i]) == fingerprint(parallel[i]))) {
            std::fprintf(stderr,
                         "MISMATCH at %s/%u: parallel run is not "
                         "bit-identical to serial\n",
                         grid[i].app.c_str(), grid[i].procs);
            return 1;
        }
    }
    std::printf("determinism        : parallel == serial "
                "(%zu/%zu runs bit-identical)\n",
                grid.size(), grid.size());

    const double speedup = serialSec / parallelSec;
    std::printf("speedup            : %8.2fx\n", speedup);

    // Observability-is-free gate: re-run one grid point with the
    // epoch sampler and the contention profiler armed. Sampling is
    // purely observational, so the fingerprint must match the plain
    // run bit for bit - any divergence means the metrics layer leaked
    // into the simulation.
    RunOptions armedOpt;
    armedOpt.procs = grid[0].procs;
    armedOpt.trace.metricsEpoch = 500;
    armedOpt.trace.contentionTopK = 16;
    const RunOutcome armed = runWorkload(grid[0].app, armedOpt);
    if (!(fingerprint(armed) == fingerprint(serial[0]))) {
        std::fprintf(stderr,
                     "MISMATCH at %s/%u: run with metrics sampler "
                     "armed is not bit-identical to the plain run\n",
                     grid[0].app.c_str(), grid[0].procs);
        return 1;
    }
    const std::uint64_t metricsEpochs = armed.metricsEpochs;
    std::printf("observability gate : armed == off (fingerprint "
                "identical, %llu epochs sampled)\n",
                (unsigned long long)metricsEpochs);

    const FlatMapResult flat =
        flatMapEventsPerSec(smoke ? 32u : 1024u);
    std::printf("flat-map e2e       : %12.0f events/sec\n",
                flat.eventsPerSec);
    std::printf("arena              : %12llu peak bytes in %llu "
                "chunks\n",
                (unsigned long long)flat.arenaPeakBytes,
                (unsigned long long)flat.arenaChunks);

    const std::uint64_t traceEvents = tracedEventCount();
    std::printf("trace wiring       : %12llu events captured "
                "(scripted conflict)\n",
                (unsigned long long)traceEvents);

    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     outPath.c_str());
        return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    auto printTimes = [f](const char *key,
                          const std::vector<double> &times) {
        std::fprintf(f, "  \"%s\": [", key);
        for (std::size_t i = 0; i < times.size(); ++i)
            std::fprintf(f, "%s%.6f", i ? ", " : "", times[i]);
        std::fprintf(f, "],\n");
    };
    std::fprintf(f, "{\n");
    printTimes("serial_runs_sec", serialTimes);
    printTimes("parallel_runs_sec", parallelTimes);
    std::fprintf(f,
                 "  \"serial_sec\": %.6f,\n"
                 "  \"parallel_sec\": %.6f,\n"
                 "  \"wall_time_rel_stddev\": %.4f,\n"
                 "  \"jobs\": %u,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"flatmap_events_per_sec\": %.0f,\n"
                 "  \"arena_peak_bytes\": %llu,\n"
                 "  \"arena_chunks\": %llu,\n"
                 "  \"trace_events_captured\": %llu,\n"
                 "  \"metrics_epochs\": %llu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"git_rev\": \"%s\",\n"
                 "  \"config\": {\n"
                 "    \"smoke\": %s,\n"
                 "    \"apps\": %zu,\n"
                 "    \"runs\": %zu,\n"
                 "    \"procs\": [8, 16]\n"
                 "  }\n"
                 "}\n",
                 serialSec, parallelSec,
                 std::max(serialW.relStddev, parallelW.relStddev),
                 jobs, speedup,
                 flat.eventsPerSec,
                 (unsigned long long)flat.arenaPeakBytes,
                 (unsigned long long)flat.arenaChunks,
                 (unsigned long long)traceEvents,
                 (unsigned long long)metricsEpochs, hw, TCC_GIT_REV,
                 smoke ? "true" : "false", nApps, grid.size());
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());

    // Regression gate: on a machine with real parallelism, a parallel
    // sweep that loses to the serial loop means the workers are
    // contending on something (allocator, false sharing) and the
    // parallel engine has regressed. Machines with one hardware
    // thread can't speed up by oversubscribing, so the gate only
    // arms when the hardware can actually run workers side by side
    // (the JSON's hardware_concurrency key says which case this was).
    if (!smoke && jobs > 1 && hw > 1 && speedup < 1.0) {
        // On a noisy machine (high run-to-run variance) a sub-1.0
        // ratio is as likely to be scheduler interference as a real
        // regression: warn, record, and let the trend file decide.
        const double noise =
            std::max(serialW.relStddev, parallelW.relStddev);
        if (noise > 0.10) {
            std::fprintf(stderr,
                         "WARN: parallel sweep slower than serial "
                         "(%.2fx with %u jobs on %u hardware threads) "
                         "but wall times vary +/-%.0f%% - not failing "
                         "on a noisy machine\n",
                         speedup, jobs, hw, noise * 100.0);
            return 0;
        }
        std::fprintf(stderr,
                     "FAIL: parallel sweep slower than serial "
                     "(%.2fx with %u jobs on %u hardware threads)\n",
                     speedup, jobs, hw);
        return 1;
    }
    return 0;
}
