/**
 * @file
 * The paper's evaluation as one grid: Table 3, Figures 6-9, the
 * bus-vs-directory commit comparison and the five design ablations.
 *
 * Each section declares the cells (one simulation each) it reads;
 * bench_paper runs the distinct cells once, renders every section's
 * table from the shared outcomes and evaluates the EXPERIMENTS.md
 * shape claims as named predicates. The pieces live here, apart from
 * the main, so the predicate tests can feed them hand-made outcomes.
 */

#ifndef TCC_BENCH_PAPER_HH
#define TCC_BENCH_PAPER_HH

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"

namespace tccbench {

/**
 * One simulation of the grid: a Table-3 application under the knobs
 * the sections vary, every other setting at its Table 2 default. Two
 * sections that read equal cells share one run.
 */
struct Cell {
    std::string app;
    std::uint32_t procs = 1;
    /** The bus-based, serialized-commit TCC instead of Scalable TCC
     *  (only procs applies). */
    bool bus = false;
    Tick hop = RunOptions{}.hopLatency;
    Granularity granularity = RunOptions{}.granularity;
    HomePolicy home = RunOptions{}.homePolicy;
    std::uint32_t aging = RunOptions{}.agingThreshold;
    std::uint32_t dirCacheEntries = RunOptions{}.dirCacheEntries;
    bool writeThrough = RunOptions{}.writeThroughCommit;
    /** Workload overrides, "key=value,..." (WorkloadParams::parse). */
    std::string wl;

    auto operator<=>(const Cell &) const = default;

    /** The Scalable TCC run options this cell stands for. */
    RunOptions options() const;
};

/** Run one cell on whichever machine it names. */
RunOutcome runCell(const Cell &cell);

/** Every cell the sections declare, in section order, duplicates
 *  included (bench_paper runs each distinct one once). */
std::vector<Cell> paperGrid();

/** The finished runs, looked up by cell. */
class Outcomes
{
  public:
    void add(const Cell &cell, RunOutcome out);
    /** The outcome of @p cell, or nullptr when it did not complete or
     *  was never run. */
    const RunOutcome *done(const Cell &cell) const;

  private:
    std::map<Cell, RunOutcome> runs;
};

/** One named JSON table: each row is a rendered JSON object. */
using JsonTable = std::pair<std::string, std::vector<std::string>>;

/** Every section's text (what the old per-figure mains printed, in
 *  order) and its rows as JSON tables. */
struct PaperReport {
    std::string text;
    std::vector<JsonTable> tables;
};

PaperReport renderPaper(const Outcomes &outs);

/** Outcome of one shape predicate. Deviation is a paper claim this
 *  reproduction does not meet: reported on every run, never fatal. */
enum class ShapeStatus { Pass, Fail, Deviation };

struct ShapeVerdict {
    std::string name;
    /** False for a paper claim this reproduction is known to miss: it
     *  can show DEVIATION, never a FAIL on complete runs. */
    bool gated = true;
    ShapeStatus status = ShapeStatus::Fail;
    std::string measured;
    /** The claim with its threshold, in words. */
    std::string claim;
};

/** Evaluate every EXPERIMENTS.md shape claim on @p outs. A claim whose
 *  cells did not complete FAILs. */
std::vector<ShapeVerdict> evaluateShapes(const Outcomes &outs);

/** The "=== Shape checks ===" text block for @p verdicts. */
std::string renderShapes(const std::vector<ShapeVerdict> &verdicts);

/** Run-level facts BENCH_paper.json records beside the tables. */
struct PaperRunInfo {
    std::string gitRev;
    unsigned hardwareConcurrency = 0;
    unsigned jobs = 0;
    double wallSec = 0;
    std::size_t cellsDeclared = 0;
    std::size_t scalableCells = 0;
    std::size_t busCells = 0;
};

/** The BENCH_paper.json document: run facts, every table, every
 *  shape verdict. */
std::string paperJson(const PaperReport &report,
                      const std::vector<ShapeVerdict> &verdicts,
                      const PaperRunInfo &info);

/** Process exit status: nonzero iff any verdict is a FAIL. */
int shapesExitCode(const std::vector<ShapeVerdict> &verdicts);

const char *statusName(ShapeStatus s);

} // namespace tccbench

#endif // TCC_BENCH_PAPER_HH
