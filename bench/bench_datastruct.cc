/**
 * @file
 * Data-structure / hot-key workload benchmark with a machine-readable
 * result (BENCH_datastruct.json): the ds_map engine swept across
 * Zipfian skew {0, 0.8, 0.99} x operation mix {read_mostly,
 * write_heavy} x processor count, plus one point each for the
 * flash-crowd schedule (ds_flash), the bank-transfer macrobench
 * (ds_bank), and the hot-counter queue (ds_queue).
 *
 * Per point the JSON records goodput (committed logical ops per
 * cycle - the headline metric: raw commit throughput counts aborted
 * work), the abort rate, commit-latency p50/p99 from the transaction
 * ledger, the final-memory fingerprint, and the contention profiler's
 * top-K hot words resolved back to key indices (which keys are
 * killing the system).
 *
 * Gates, all hard failures:
 *  - every point must complete, quiesce, and pass the online
 *    protocol-invariant checker;
 *  - seeded determinism: re-running a point yields a bit-identical
 *    fingerprint and cycle count;
 *  - SweepRunner identity: the whole grid re-run under jobs=N is
 *    bit-identical (cycles, commits, violations, ops, fingerprint)
 *    to the serial pass;
 *  - the flash-crowd point's abort rate must rise after the phase
 *    flip (the cold key turned hot);
 *  - the bank point must conserve the total balance: the sum over
 *    account words of the final memory image equals the initial sum.
 *
 * Usage: bench_datastruct [--smoke] [--out PATH] [--jobs=N]
 *   --smoke   procs {8} only, transactions clamped per phase
 *   --out     JSON output path (default BENCH_datastruct.json)
 *   --jobs    parallel-pass worker count (default: TCC_JOBS env,
 *             else hardware threads)
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/log.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/contention.hh"
#include "obs/tx_ledger.hh"
#include "sim/stats.hh"
#include "workload/registry.hh"

#ifndef TCC_GIT_REV
#define TCC_GIT_REV "unknown"
#endif

namespace {

using namespace tcc;

/** One requested grid point. */
struct Spec {
    std::string workload;
    double theta = 0.0;
    std::string mix;
    std::uint32_t procs = 0;
    /** Apply theta/mix as registry overrides (the ds_map grid);
     *  the special points keep their registry defaults. */
    bool overrideKnobs = false;
};

/** A hot word resolved to its key index. */
struct HotKey {
    Addr addr = 0;
    std::int64_t key = -1; ///< -1: outside the key array (e.g. queue
                           ///< head/tail counters)
    std::uint64_t conflicts = 0;
    std::uint64_t aborts = 0;
};

/** Everything one point reports and gates on. */
struct Point {
    Spec spec;
    Tick cycles = 0;
    std::uint64_t committedTxns = 0;
    std::uint64_t violations = 0;
    std::uint64_t committedOps = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t ledgerEntries = 0;
    double goodput = 0;   ///< committed ops / cycle
    double abortRate = 0; ///< violations / (commits + violations)
    double latP50 = 0, latP99 = 0;
    std::vector<HotKey> hotKeys;
    std::vector<PhaseTally> phases;
    bool bankConserved = true; ///< only meaningful for ds_bank
    bool ok = false;
};

constexpr std::uint64_t kSeed = 1;
constexpr std::size_t kTopK = 16;
constexpr std::size_t kHotKeysReported = 5;

Point
runPoint(const Spec &spec, bool smoke)
{
    SystemConfig cfg;
    cfg.numProcs = spec.procs;
    cfg.check.invariants = true;
    cfg.trace.contentionTopK = kTopK;
    // The ledger needs every commit's Proc/Commit records resident;
    // ds write-sets are small, so a fixed ring with per-node headroom
    // is plenty.
    cfg.trace.capacity =
        std::max(std::size_t{1} << 18,
                 std::size_t{spec.procs} * 8192);

    System sys(cfg);
    WorkloadParams wl;
    if (spec.overrideKnobs) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", spec.theta);
        wl.set("theta", buf).set("mix", spec.mix);
    }
    if (smoke)
        wl.set("max_txns_per_phase", "256");
    const WorkloadBundle bundle =
        makeWorkload(spec.workload, wl, kSeed, spec.procs);
    bundle.attach(sys);

    const RunResult res = sys.run();

    Point pt;
    pt.spec = spec;
    pt.cycles = res.cycles;
    pt.committedTxns = res.committedTxns;
    pt.violations = res.violations;
    pt.committedOps = bundle.committedOps();
    pt.fingerprint = sys.memory().fingerprint();
    pt.phases = bundle.phaseTallies();

    if (!res.completed || !res.quiesced) {
        std::fprintf(stderr, "FAIL: %s procs=%u did not %s\n",
                     spec.workload.c_str(), spec.procs,
                     res.completed ? "quiesce" : "complete");
        return pt;
    }
    if (!res.invariants.ok) {
        std::fprintf(stderr,
                     "FAIL: %s procs=%u invariant checker: %s\n",
                     spec.workload.c_str(), spec.procs,
                     res.invariants.error.c_str());
        return pt;
    }

    pt.goodput = pt.cycles
                     ? static_cast<double>(pt.committedOps) /
                           static_cast<double>(pt.cycles)
                     : 0.0;
    const std::uint64_t attempts = pt.committedTxns + pt.violations;
    pt.abortRate = attempts ? static_cast<double>(pt.violations) /
                                  static_cast<double>(attempts)
                            : 0.0;

    Distribution lat;
    const auto ledger = buildTxLedger(sys.traceRecorder());
    pt.ledgerEntries = ledger.size();
    for (const TxLedgerEntry &e : ledger)
        lat.sample(static_cast<double>(e.commitCycles()));
    pt.latP50 = lat.percentile(50);
    pt.latP99 = lat.percentile(99);

    if (const ContentionProfiler *prof = sys.contentionProfiler()) {
        for (const auto &hw : prof->hotWords()) {
            if (pt.hotKeys.size() >= kHotKeysReported)
                break;
            HotKey hk;
            hk.addr = hw.addr;
            hk.key = bundle.keyOf(hw.addr);
            hk.conflicts = hw.s.weight();
            hk.aborts = hw.s.aborts;
            pt.hotKeys.push_back(hk);
        }
    }

    // Bank conservation: transfers move balance, never create it. The
    // expected total is the initial image's sum over account words.
    if (spec.workload == "ds_bank") {
        std::uint64_t expected = 0, actual = 0;
        for (const auto &[addr, value] : bundle.initialWords) {
            if (bundle.keyOf(addr) < 0)
                continue;
            expected += value;
            actual += sys.memory().read(addr);
        }
        pt.bankConserved = expected == actual;
        if (!pt.bankConserved)
            std::fprintf(stderr,
                         "FAIL: ds_bank balance not conserved: "
                         "%llu != %llu\n",
                         (unsigned long long)actual,
                         (unsigned long long)expected);
    }

    pt.ok = pt.bankConserved;
    return pt;
}

bool
samePoint(const Point &a, const Point &b)
{
    return a.cycles == b.cycles &&
           a.committedTxns == b.committedTxns &&
           a.violations == b.violations &&
           a.committedOps == b.committedOps &&
           a.fingerprint == b.fingerprint;
}

std::vector<Spec>
buildGrid(bool smoke)
{
    const std::vector<double> thetas =
        smoke ? std::vector<double>{0.0, 0.99}
              : std::vector<double>{0.0, 0.8, 0.99};
    const std::vector<std::string> mixes = {"read_mostly",
                                            "write_heavy"};
    const std::vector<std::uint32_t> procsList =
        smoke ? std::vector<std::uint32_t>{8}
              : std::vector<std::uint32_t>{8, 16, 32};

    std::vector<Spec> grid;
    for (std::uint32_t procs : procsList)
        for (double theta : thetas)
            for (const auto &mix : mixes)
                grid.push_back({"ds_map", theta, mix, procs, true});

    // Special points: registry defaults, one processor count each.
    const std::uint32_t sp = smoke ? 8 : 16;
    grid.push_back({"ds_flash", 0.2, "phased", sp, false});
    grid.push_back({"ds_bank", 0.9, "transfer_heavy", sp, false});
    grid.push_back({"ds_queue", 0.0, "queue_5050", sp, false});
    return grid;
}

void
writeJson(std::FILE *f, const std::vector<Point> &points,
          bool deterministic, bool jobsIdentical, double flashPre,
          double flashPost, bool flashRising, bool bankConserved,
          unsigned jobs, bool smoke)
{
    std::fprintf(f,
                 "{\n"
                 "  \"deterministic\": %d,\n"
                 "  \"jobs_identical\": %d,\n"
                 "  \"flash_abort_pre\": %.4f,\n"
                 "  \"flash_abort_post\": %.4f,\n"
                 "  \"flash_abort_rising\": %d,\n"
                 "  \"bank_conserved\": %d,\n"
                 "  \"points_total\": %zu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"git_rev\": \"%s\",\n"
                 "  \"points\": [\n",
                 deterministic ? 1 : 0, jobsIdentical ? 1 : 0,
                 flashPre, flashPost, flashRising ? 1 : 0,
                 bankConserved ? 1 : 0, points.size(),
                 std::thread::hardware_concurrency(), TCC_GIT_REV);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &pt = points[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"theta\": %.2f, "
            "\"mix\": \"%s\", \"procs\": %u, "
            "\"cycles\": %llu, \"commits\": %llu, "
            "\"violations\": %llu, \"committed_ops\": %llu, "
            "\"goodput\": %.6f, \"abort_rate\": %.4f, "
            "\"commit_latency_p50\": %.1f, "
            "\"commit_latency_p99\": %.1f, "
            "\"ledger_entries\": %llu, "
            "\"fingerprint\": \"%016llx\",\n"
            "     \"phase_tallies\": [",
            pt.spec.workload.c_str(), pt.spec.theta,
            pt.spec.mix.c_str(), pt.spec.procs,
            (unsigned long long)pt.cycles,
            (unsigned long long)pt.committedTxns,
            (unsigned long long)pt.violations,
            (unsigned long long)pt.committedOps, pt.goodput,
            pt.abortRate, pt.latP50, pt.latP99,
            (unsigned long long)pt.ledgerEntries,
            (unsigned long long)pt.fingerprint);
        for (std::size_t p = 0; p < pt.phases.size(); ++p)
            std::fprintf(f, "{\"commits\": %llu, \"aborts\": %llu}%s",
                         (unsigned long long)pt.phases[p].commits,
                         (unsigned long long)pt.phases[p].aborts,
                         p + 1 == pt.phases.size() ? "" : ", ");
        std::fprintf(f, "],\n     \"hot_keys\": [");
        for (std::size_t k = 0; k < pt.hotKeys.size(); ++k) {
            const HotKey &hk = pt.hotKeys[k];
            std::fprintf(f,
                         "{\"addr\": \"%llx\", \"key\": %lld, "
                         "\"conflicts\": %llu, \"aborts\": %llu}%s",
                         (unsigned long long)hk.addr,
                         (long long)hk.key,
                         (unsigned long long)hk.conflicts,
                         (unsigned long long)hk.aborts,
                         k + 1 == pt.hotKeys.size() ? "" : ", ");
        }
        std::fprintf(f, "]}%s\n",
                     i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"config\": {\n"
                 "    \"smoke\": %s,\n"
                 "    \"seed\": %llu,\n"
                 "    \"jobs\": %u,\n"
                 "    \"contention_top_k\": %zu\n"
                 "  }\n"
                 "}\n",
                 smoke ? "true" : "false",
                 (unsigned long long)kSeed, jobs, kTopK);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_datastruct.json";
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobs = tccbench::parseJobs(argv[i] + 7);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out PATH] "
                         "[--jobs=N]\n",
                         argv[0]);
            return 2;
        }
    }

    // The ledger needs the Proc + Commit categories recorded
    // (structured ring only; no stderr text).
    Trace::setTextOutput(false);
    Trace::enable(TraceCat::Proc);
    Trace::enable(TraceCat::Commit);

    const std::vector<Spec> grid = buildGrid(smoke);
    std::printf("== data-structure / hot-key sweep: %zu points ==\n",
                grid.size());

    // Serial reference pass.
    std::vector<Point> points;
    for (const Spec &spec : grid) {
        Point pt = runPoint(spec, smoke);
        if (!pt.ok)
            return 1;
        std::printf("%-9s th=%.2f %-12s procs=%-3u : %9llu cycles  "
                    "goodput %.4f  abort %.3f  lat p50/p99 "
                    "%5.0f/%5.0f\n",
                    pt.spec.workload.c_str(), pt.spec.theta,
                    pt.spec.mix.c_str(), pt.spec.procs,
                    (unsigned long long)pt.cycles, pt.goodput,
                    pt.abortRate, pt.latP50, pt.latP99);
        points.push_back(std::move(pt));
    }

    // Gate: seeded determinism (same spec, same seed, same machine
    // state -> bit-identical outcome).
    const Point rerun = runPoint(grid.front(), smoke);
    const bool deterministic = rerun.ok && samePoint(rerun, points[0]);
    std::printf("determinism        : %s\n",
                deterministic ? "rerun bit-identical" : "MISMATCH");

    // Gate: the SweepRunner pass (jobs=N) is bit-identical to the
    // serial loop above, point by point.
    SweepRunner runner(jobs);
    const auto parPoints = sweepIndex<Point>(
        runner, grid.size(),
        [&](std::size_t i) { return runPoint(grid[i], smoke); });
    bool jobsIdentical = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!parPoints[i].ok || !samePoint(parPoints[i], points[i])) {
            std::fprintf(stderr,
                         "MISMATCH: jobs=%u pass differs at %s "
                         "th=%.2f %s procs=%u\n",
                         runner.jobs(),
                         grid[i].workload.c_str(), grid[i].theta,
                         grid[i].mix.c_str(), grid[i].procs);
            jobsIdentical = false;
        }
    }
    std::printf("jobs=%u identity    : %s\n", runner.jobs(),
                jobsIdentical ? "bit-identical to serial"
                              : "MISMATCH");

    // Gate: the flash crowd raises the abort rate after the phase
    // flip (phase 0 read-mostly/no flash, phase 1 write-heavy with
    // the flash override).
    double flashPre = 0, flashPost = 0;
    bool flashRising = false;
    for (const Point &pt : points) {
        if (pt.spec.workload != "ds_flash" || pt.phases.size() < 2)
            continue;
        const auto rate = [](const PhaseTally &t) {
            const std::uint64_t n = t.commits + t.aborts;
            return n ? static_cast<double>(t.aborts) /
                           static_cast<double>(n)
                     : 0.0;
        };
        flashPre = rate(pt.phases.front());
        flashPost = rate(pt.phases.back());
        flashRising = flashPost > flashPre;
    }
    std::printf("flash crowd        : abort %.3f -> %.3f  %s\n",
                flashPre, flashPost,
                flashRising ? "(rising, OK)" : "FAIL");

    bool bankConserved = true;
    for (const Point &pt : points)
        if (pt.spec.workload == "ds_bank")
            bankConserved = bankConserved && pt.bankConserved;
    std::printf("bank conservation  : %s\n",
                bankConserved ? "total balance preserved" : "FAIL");

    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     outPath.c_str());
        return 1;
    }
    writeJson(f, points, deterministic, jobsIdentical, flashPre,
              flashPost, flashRising, bankConserved, runner.jobs(),
              smoke);
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());

    return deterministic && jobsIdentical && flashRising &&
                   bankConserved
               ? 0
               : 1;
}
