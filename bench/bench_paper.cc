/**
 * @file
 * Regenerates the paper's evaluation - Table 3, Figures 6-9, the
 * bus-vs-directory commit comparison and the design ablations - from
 * one grid of simulations, and gates the EXPERIMENTS.md shape claims.
 *
 * Every section declares the cells it reads; cells shared between
 * sections (Table 3, Figure 6 and Figure 9 all sit inside Figure 7's
 * grid) run once, on one SweepRunner pool. The output is each
 * section's table, then one PASS / FAIL / DEVIATION line per shape
 * claim; any FAIL makes the exit status nonzero.
 *
 * Usage: bench_paper [--jobs=<n>] [--out PATH]
 *   --jobs  concurrent simulations (default: TCC_JOBS env, else
 *           hardware threads; 1 = the serial loop)
 *   --out   JSON output path (default BENCH_paper.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "paper.hh"

#ifndef TCC_GIT_REV
#define TCC_GIT_REV "unknown"
#endif

int
main(int argc, char **argv)
{
    using namespace tccbench;

    unsigned jobs = 0;
    std::string outPath = "BENCH_paper.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobs = parseJobs(argv[i] + 7);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--jobs=<n>] [--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    // The distinct cells, in first-declared order.
    const std::vector<Cell> grid = paperGrid();
    std::vector<Cell> cells;
    std::set<Cell> seen;
    for (const Cell &c : grid)
        if (seen.insert(c).second)
            cells.push_back(c);
    const auto busCells = static_cast<std::size_t>(std::count_if(
        cells.begin(), cells.end(), [](const Cell &c) { return c.bus; }));

    SweepRunner runner(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    auto runs = sweepIndex<RunOutcome>(
        runner, cells.size(),
        [&](std::size_t i) { return runCell(cells[i]); });
    const double wallSec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    Outcomes outs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        outs.add(cells[i], std::move(runs[i]));
    const PaperReport report = renderPaper(outs);
    const std::vector<ShapeVerdict> verdicts = evaluateShapes(outs);
    std::fputs(report.text.c_str(), stdout);
    std::fputs(renderShapes(verdicts).c_str(), stdout);
    std::printf("grid: %zu cells declared, %zu distinct runs "
                "(%zu scalable + %zu bus)\n",
                grid.size(), cells.size(), cells.size() - busCells,
                busCells);

    PaperRunInfo info;
    info.gitRev = TCC_GIT_REV;
    info.hardwareConcurrency = std::thread::hardware_concurrency();
    info.jobs = runner.jobs();
    info.wallSec = wallSec;
    info.cellsDeclared = grid.size();
    info.scalableCells = cells.size() - busCells;
    info.busCells = busCells;
    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     outPath.c_str());
        return 1;
    }
    std::fputs(paperJson(report, verdicts, info).c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "%.1f s wall on %u jobs; wrote %s\n", wallSec,
                 runner.jobs(), outPath.c_str());
    return shapesExitCode(verdicts);
}
