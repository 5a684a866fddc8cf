/**
 * @file
 * Scaling study example: run one of the paper's application profiles
 * across processor counts and print speedups and execution-time
 * breakdowns - a miniature version of the Figure 7 harness, intended
 * as the template for your own scaling experiments.
 *
 * Usage: splash_scaling [app] [max_procs]
 *   app        any registry workload name - Table-3 apps or ds_*
 *              data-structure workloads (default barnes)
 *   max_procs  largest power-of-two processor count (default 32)
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/report.hh"
#include "core/system.hh"
#include "workload/registry.hh"

using namespace tcc;

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "barnes";
    // The whole token must be a decimal in [1, 4096], the largest
    // machine SystemConfig accepts: a typo must not become an empty
    // or endless sweep.
    std::uint32_t max_procs = 32;
    if (argc > 2) {
        const char *end = argv[2] + std::strlen(argv[2]);
        const auto [ptr, ec] = std::from_chars(argv[2], end, max_procs);
        if (ec != std::errc() || ptr != end || max_procs == 0 ||
            max_procs > 4096) {
            std::fprintf(stderr, "invalid value '%s' for max_procs\n",
                         argv[2]);
            return 1;
        }
    }

    if (!isWorkload(app_name)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     app_name.c_str());
        return 1;
    }
    {
        const WorkloadBundle probe =
            makeWorkload(app_name, {}, /*seed=*/1, 1);
        std::printf("workload: %s (%llu expected txns, %llu data "
                    "words, %zu regions)\n",
                    app_name.c_str(),
                    (unsigned long long)probe.footprint.expectedTxns,
                    (unsigned long long)probe.footprint.dataWords,
                    probe.footprint.regions.size());
    }

    double t1 = 0;
    std::printf("%5s %12s %9s | %s\n", "cpus", "cycles", "speedup",
                breakdownHeader().c_str());
    for (std::uint32_t p = 1; p <= max_procs; p *= 2) {
        SystemConfig cfg;
        cfg.numProcs = p;
        System sys(cfg);
        const WorkloadBundle bundle =
            makeWorkload(app_name, {}, /*seed=*/1, p);
        bundle.attach(sys);
        const RunResult res = sys.run();
        if (!res.completed) {
            std::printf("%5u DID NOT COMPLETE\n", p);
            continue;
        }
        if (p == 1)
            t1 = static_cast<double>(res.cycles);
        std::printf("%5u %12llu %8.1fx | %s\n", p,
                    (unsigned long long)res.cycles,
                    t1 / static_cast<double>(res.cycles),
                    breakdownRow(app_name, res.breakdown).c_str());
    }

    std::puts("\nTable 3-style characterization at the largest size:");
    {
        SystemConfig cfg;
        cfg.numProcs = max_procs;
        System sys(cfg);
        const WorkloadBundle bundle =
            makeWorkload(app_name, {}, /*seed=*/1, max_procs);
        bundle.attach(sys);
        sys.run();
        std::puts(table3Header().c_str());
        std::puts(table3Row(characterize(sys, app_name)).c_str());
        std::puts(trafficHeader().c_str());
        std::puts(
            trafficRowText(trafficPerInstr(sys, app_name)).c_str());
    }
    return 0;
}
