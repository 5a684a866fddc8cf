/**
 * @file
 * Adversarial-network sweep: every chaos preset x a slice of the
 * paper's applications x processor counts, each point under its own
 * fault seed with BOTH correctness checkers armed (the serializability
 * replay and the online protocol-invariant engine). The protocol must
 * shrug the faults off: any violation, stall, or incompleteness fails
 * the sweep.
 *
 * The grid runs twice - serially and through SweepRunner with N
 * workers - and the two passes must be bit-identical, proving the
 * chaos stream is a pure function of (seed, config) even under
 * parallel evaluation.
 *
 * Usage: chaos_sweep [--smoke] [--out PATH] [--jobs=<n>]
 *   --smoke   presets x one application (CI wiring check)
 *   --out     JSON output path (default BENCH_chaos.json)
 *   --jobs    parallel worker count (default: TCC_JOBS env, else
 *             hardware threads)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "noc/chaos_network.hh"

#ifndef TCC_GIT_REV
#define TCC_GIT_REV "unknown"
#endif

namespace {

using namespace tccbench;

struct ChaosCell {
    std::string preset;
    std::string app;
    std::uint32_t procs;
    std::uint64_t seed;
};

std::string
cellName(const ChaosCell &c)
{
    return c.preset + "/" + c.app + "/" + std::to_string(c.procs) +
           "/s" + std::to_string(c.seed);
}

bool gSmoke = false;

RunOutcome
runCell(const ChaosCell &c)
{
    RunOptions opt;
    opt.procs = c.procs;
    opt.seed = c.seed;
    opt.network.model = NetworkConfig::Model::Chaos;
    opt.network.chaos = chaosPreset(c.preset);
    // Every grid point gets its own fault stream, decorrelated from
    // the workload seed by an odd multiplier.
    opt.network.chaos.seed = c.seed * 0x9E3779B97F4A7C15ull + 1;
    opt.check.serial = true;
    opt.check.invariants = true;
    if (gSmoke) {
        // Sanitizer builds run this fixture too: keep each point to a
        // few hundred transactions while touching every fault path.
        opt.wl.set("phases", "1").set("max_txns_per_phase", "64");
    }
    return runWorkload(c.app, opt);
}

struct Fingerprint {
    Tick cycles;
    std::uint64_t committedTxns;
    std::uint64_t violations;
    bool completed;

    bool
    operator==(const Fingerprint &o) const
    {
        return cycles == o.cycles &&
               committedTxns == o.committedTxns &&
               violations == o.violations && completed == o.completed;
    }
};

Fingerprint
fingerprint(const RunOutcome &out)
{
    return Fingerprint{out.cycles, out.committedTxns, out.violations,
                       out.completed};
}

bool
cellClean(const RunOutcome &out)
{
    return out.completed && out.serial.ok && out.invariants.ok;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_chaos.json";
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
    gSmoke = smoke;

    // The grid: every fault preset x applications x machine sizes,
    // 40 points (the acceptance floor is 32). Smoke trims to the
    // presets x one small application - still every fault model,
    // fast enough for sanitizer CI.
    const std::vector<std::string> apps =
        smoke ? std::vector<std::string>{"radix"}
              : std::vector<std::string>{"barnes", "radix",
                                         "water_spatial", "tomcatv"};
    const std::vector<std::uint32_t> procs =
        smoke ? std::vector<std::uint32_t>{4}
              : std::vector<std::uint32_t>{8, 16};

    std::vector<ChaosCell> grid;
    std::uint64_t seed = 1;
    for (const auto &preset : chaosPresetNames())
        for (const auto &app : apps)
            for (std::uint32_t p : procs)
                grid.push_back(ChaosCell{preset, app, p, seed++});

    std::printf("== chaos sweep: %zu fault-config x workload points, "
                "both checkers armed ==\n",
                grid.size());

    const auto s0 = std::chrono::steady_clock::now();
    SweepRunner serialRunner(1);
    const auto serial = sweepIndex<RunOutcome>(
        serialRunner, grid.size(),
        [&](std::size_t i) { return runCell(grid[i]); });
    const auto s1 = std::chrono::steady_clock::now();

    SweepRunner parallelRunner(jobs);
    const auto parallel = sweepIndex<RunOutcome>(
        parallelRunner, grid.size(),
        [&](std::size_t i) { return runCell(grid[i]); });
    const auto s2 = std::chrono::steady_clock::now();

    std::size_t passed = 0;
    bool deterministic = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunOutcome &out = serial[i];
        if (cellClean(out)) {
            ++passed;
        } else {
            std::fprintf(
                stderr, "FAIL %s: %s\n", cellName(grid[i]).c_str(),
                !out.completed         ? "did not complete"
                : !out.serial.ok      ? out.serial.error.c_str()
                                       : out.invariants.error.c_str());
        }
        if (!(fingerprint(serial[i]) == fingerprint(parallel[i]))) {
            deterministic = false;
            std::fprintf(stderr,
                         "MISMATCH %s: parallel run not bit-identical "
                         "to serial\n",
                         cellName(grid[i]).c_str());
        }
    }

    std::printf("passed             : %zu / %zu points\n", passed,
                grid.size());
    std::printf("determinism        : serial vs %u-job sweep %s\n",
                jobs, deterministic ? "bit-identical" : "MISMATCH");
    std::printf("serial   (1 job)   : %8.3f sec\n", seconds(s0, s1));
    std::printf("parallel (%u jobs) : %8.3f sec\n", jobs,
                seconds(s1, s2));

    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     outPath.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"chaos_configs_passed\": %zu,\n"
                 "  \"chaos_configs_total\": %zu,\n"
                 "  \"deterministic\": %d,\n"
                 "  \"jobs\": %u,\n"
                 "  \"serial_sec\": %.6f,\n"
                 "  \"parallel_sec\": %.6f,\n"
                 "  \"git_rev\": \"%s\",\n"
                 "  \"config\": {\n"
                 "    \"smoke\": %s,\n"
                 "    \"presets\": %zu,\n"
                 "    \"apps\": %zu,\n"
                 "    \"proc_counts\": %zu\n"
                 "  }\n"
                 "}\n",
                 passed, grid.size(), deterministic ? 1 : 0, jobs,
                 seconds(s0, s1), seconds(s1, s2), TCC_GIT_REV,
                 smoke ? "true" : "false", chaosPresetNames().size(),
                 apps.size(), procs.size());
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());

    return (passed == grid.size() && deterministic) ? 0 : 1;
}
