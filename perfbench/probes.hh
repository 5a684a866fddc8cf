/**
 * @file
 * Isolated layer probes: each drives one simulator layer through its
 * public header, with no System around it, and reports the host cost
 * of one operation. They run only in traced mode; their figures are
 * per-layer metrics with no bound.
 */

#ifndef TCC_PERFBENCH_PROBES_HH
#define TCC_PERFBENCH_PROBES_HH

#include <string>
#include <vector>

namespace perfbench {

/** One per-layer figure: metric name, value and unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Run every probe (event-queue mix, 256-node mesh send, 1024-node tree
 * multicast, SpecCache load/store, scripted directory commit, empty
 * WindowCrew phase) with @p jobs crew workers. A probe whose scripted
 * outcome comes out wrong appends a diagnostic to @p errors.
 */
std::vector<Metric> runLayerProbes(unsigned jobs,
                                   std::vector<std::string> &errors);

} // namespace perfbench

#endif // TCC_PERFBENCH_PROBES_HH
