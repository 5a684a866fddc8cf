#include "paper.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "busbaseline/bus_tcc.hh"

namespace tccbench {

namespace {

// ---------------------------------------------------------------------
// The cells the sections read.
// ---------------------------------------------------------------------

const std::vector<std::uint32_t> kFig7Procs = {8, 16, 32, 64};
const std::vector<Tick> kFig8Hops = {2, 4, 8};
const std::vector<std::uint32_t> kCommitProcs = {4, 8, 16, 32, 64};
const std::vector<std::string> kCommitApps = {"volrend", "equake",
                                              "barnes", "specjbb"};
/** Processor count of Figure 8 and of every design ablation. */
constexpr std::uint32_t k32 = 32;
const std::vector<std::string> kGranularityApps = {
    "cluster_ga", "water_nsquared", "volrend", "barnes"};
const std::vector<std::uint32_t> kAgings = {3, 0};
const std::vector<std::string> kWriteThroughApps = {"swim", "radix",
                                                    "barnes", "tomcatv"};
const std::vector<std::string> kDirCacheApps = {"barnes", "swim"};
/** Perfectly sized (0) first, then shrinking. */
const std::vector<std::uint32_t> kDirCacheSizes = {0, 8192, 512, 64};
const std::vector<std::string> kHomeApps = {"swim", "specjbb", "barnes",
                                            "equake"};

const std::vector<std::string> &
apps()
{
    static const std::vector<std::string> names = benchApps();
    return names;
}

Cell
scal(const std::string &app, std::uint32_t procs)
{
    Cell c;
    c.app = app;
    c.procs = procs;
    return c;
}

Cell
bus(const std::string &app, std::uint32_t procs)
{
    Cell c = scal(app, procs);
    c.bus = true;
    return c;
}

Cell
hopCell(const std::string &app, Tick hop)
{
    Cell c = scal(app, k32);
    c.hop = hop;
    return c;
}

Cell
lineCell(const std::string &app)
{
    Cell c = scal(app, k32);
    c.granularity = Granularity::Line;
    return c;
}

/** Ablation 2's high-conflict stress. */
Cell
agingCell(std::uint32_t aging)
{
    Cell c = scal("cluster_ga", k32);
    c.aging = aging;
    c.wl = "conflict_prob=0.6,hot_words=8,txns_per_phase=256,phases=2";
    return c;
}

Cell
writeThroughCell(const std::string &app)
{
    Cell c = scal(app, k32);
    c.writeThrough = true;
    return c;
}

Cell
dirCacheCell(const std::string &app, std::uint32_t entries)
{
    Cell c = scal(app, k32);
    c.dirCacheEntries = entries;
    return c;
}

Cell
interleaveCell(const std::string &app)
{
    Cell c = scal(app, k32);
    c.home = HomePolicy::Interleave;
    return c;
}

// ---------------------------------------------------------------------
// Text and JSON helpers.
// ---------------------------------------------------------------------

/** printf into a std::string. */
__attribute__((format(printf, 1, 2))) std::string
fmt(const char *f, ...)
{
    va_list ap, again;
    va_start(ap, f);
    va_copy(again, ap);
    const int n = std::vsnprintf(nullptr, 0, f, again);
    va_end(again);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, f, ap);
    va_end(ap);
    return out;
}

double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/** One flat JSON object, built field by field. */
class JsonObj
{
  public:
    JsonObj &
    str(const char *k, const std::string &v)
    {
        key(k) += '"';
        for (char c : v)
            body += c == '"' || c == '\\' ? std::string("\\") + c
                                          : std::string(1, c);
        body += '"';
        return *this;
    }
    /** A non-finite value (a ratio over a missing run) is null. */
    JsonObj &
    num(const char *k, double v)
    {
        key(k) += std::isfinite(v) ? fmt("%.12g", v) : "null";
        return *this;
    }
    JsonObj &
    raw(const char *k, const std::string &json)
    {
        key(k) += json;
        return *this;
    }
    std::string done() const { return "{" + body + "}"; }

  private:
    std::string &
    key(const char *k)
    {
        body += (body.empty() ? "\"" : ", \"") + std::string(k) + "\": ";
        return body;
    }
    std::string body;
};

/** The parts of one run every table row carries (null: the run did
 *  not complete). */
std::string
outcomeJson(const RunOutcome *o)
{
    if (!o)
        return "null";
    const Breakdown &bd = o->breakdown;
    return JsonObj()
        .num("cycles", o->cycles)
        .num("violations", o->violations)
        .num("committed_txns", o->committedTxns)
        .num("dcache_misses", o->dirCacheMisses)
        .num("useful", bd.useful)
        .num("miss", bd.miss)
        .num("idle", bd.idle)
        .num("commit", bd.commit)
        .num("violation", bd.violation)
        .done();
}

/** The breakdown line of Figures 7 and 8: buckets as shares of a bar
 *  @p height percent tall. */
std::string
barText(const Breakdown &bd, double height)
{
    return fmt("%6.1f%% %6.1f%% %6.1f%% %6.1f%% %8.1f%%",
               height * bd.fraction(bd.useful),
               height * bd.fraction(bd.miss),
               height * bd.fraction(bd.idle),
               height * bd.fraction(bd.commit),
               height * bd.fraction(bd.violation));
}

/** Appends one section's text lines and JSON rows to a report. */
struct Table {
    Table(PaperReport &report, const char *name)
        : r(report), index(report.tables.size())
    {
        r.tables.push_back({name, {}});
    }
    void line(const std::string &s) { r.text += s + '\n'; }
    void
    row(const JsonObj &j)
    {
        r.tables[index].second.push_back(j.done());
    }

    PaperReport &r;
    std::size_t index;
};

// ---------------------------------------------------------------------
// Sections: each declares its cells and renders its table.
// ---------------------------------------------------------------------

std::vector<Cell>
table3Cells()
{
    std::vector<Cell> cells;
    for (const auto &app : apps())
        cells.push_back(scal(app, 64));
    return cells;
}

void
table3(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "table3"};
    t.line("=== Table 3: application TM characteristics (64 processors) "
           "===");
    t.line(table3Header());
    for (const auto &app : apps()) {
        const RunOutcome *o = outs.done(scal(app, 64));
        JsonObj row;
        row.str("app", app).raw("run", outcomeJson(o));
        if (o) {
            const AppCharacterization &c = o->characterization;
            t.line(table3Row(c));
            row.num("txn_size", c.txnSize90)
                .num("wr_set_kb", c.writeSetKB90)
                .num("rd_set_kb", c.readSetKB90)
                .num("ops_per_word", c.opsPerWordWritten90)
                .num("dirs_per_commit", c.dirsPerCommit90)
                .num("dir_working_set", c.dirWorkingSet90)
                .num("dir_occupancy", c.dirOccupancy90);
        } else {
            t.line(fmt("%-16s DID NOT COMPLETE", app.c_str()));
        }
        t.row(row);
    }
}

std::vector<Cell>
fig6Cells()
{
    std::vector<Cell> cells;
    for (const auto &app : apps())
        cells.push_back(scal(app, 1));
    return cells;
}

void
fig6(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "fig6"};
    t.line("=== Figure 6: single-processor execution time breakdown ===");
    t.line(breakdownHeader());
    double worstCommit = 0;
    for (const auto &app : apps()) {
        const RunOutcome *o = outs.done(scal(app, 1));
        t.row(JsonObj().str("app", app).raw("run", outcomeJson(o)));
        if (!o) {
            t.line(fmt("%-20s DID NOT COMPLETE", app.c_str()));
            continue;
        }
        t.line(breakdownRow(app, o->breakdown));
        worstCommit = std::max(
            worstCommit, o->breakdown.fraction(o->breakdown.commit));
    }
    t.line(fmt("\nmax commit overhead on 1 CPU: %.1f%% (paper: ~1%% on "
               "average)",
               100.0 * worstCommit));
}

std::vector<Cell>
fig7Cells()
{
    std::vector<Cell> cells;
    for (const auto &app : apps()) {
        cells.push_back(scal(app, 1));
        for (std::uint32_t p : kFig7Procs)
            cells.push_back(scal(app, p));
    }
    return cells;
}

void
fig7(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "fig7"};
    t.line("=== Figure 7: execution time vs processor count (normalized "
           "to 1 CPU) ===");
    t.line(fmt("%-16s %5s %9s %9s | %7s %7s %7s %7s %9s  (%% of 1-CPU "
               "time)",
               "application", "cpus", "speedup", "norm_time", "useful",
               "miss", "idle", "commit", "violation"));
    for (const auto &app : apps()) {
        const RunOutcome *uni = outs.done(scal(app, 1));
        if (!uni)
            t.line(fmt("%-16s 1-CPU run DID NOT COMPLETE", app.c_str()));
        for (std::uint32_t p : kFig7Procs) {
            const RunOutcome *o = outs.done(scal(app, p));
            JsonObj row;
            row.str("app", app).num("procs", p).raw("run", outcomeJson(o));
            if (uni && o) {
                const double t1 = static_cast<double>(uni->cycles);
                const double tp = static_cast<double>(o->cycles);
                const double height = 100.0 * tp / t1;
                t.line(fmt("%-16s %5u %8.1fx %8.1f%% | ", app.c_str(), p,
                           t1 / tp, height) +
                       barText(o->breakdown, height));
                row.num("speedup", t1 / tp).num("norm_time", height);
            } else if (uni) {
                t.line(fmt("%-16s %5u DID NOT COMPLETE", app.c_str(), p));
            }
            t.row(row);
        }
    }
}

std::vector<Cell>
fig8Cells()
{
    std::vector<Cell> cells;
    for (const auto &app : apps())
        for (Tick hop : kFig8Hops)
            cells.push_back(hopCell(app, hop));
    return cells;
}

void
fig8(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "fig8"};
    t.line("=== Figure 8: communication latency sensitivity (32 "
           "processors) ===");
    t.line(fmt("%-16s %10s %11s | %7s %7s %7s %7s %9s", "application",
               "cyc/hop", "norm_time", "useful", "miss", "idle", "commit",
               "violation"));
    for (const auto &app : apps()) {
        // Bars are normalized to the lowest-latency run: a row is only
        // as complete as that baseline.
        const RunOutcome *base = outs.done(hopCell(app, kFig8Hops[0]));
        for (Tick hop : kFig8Hops) {
            const RunOutcome *o = outs.done(hopCell(app, hop));
            const auto h = static_cast<unsigned long long>(hop);
            JsonObj row;
            row.str("app", app).num("hop", hop).raw("run", outcomeJson(o));
            if (base && o) {
                const double height =
                    100.0 * static_cast<double>(o->cycles) /
                    static_cast<double>(base->cycles);
                t.line(fmt("%-16s %10llu %10.1f%% | ", app.c_str(), h,
                           height) +
                       barText(o->breakdown, height));
                row.num("norm_time", height);
            } else {
                t.line(fmt("%-16s %10llu DID NOT COMPLETE", app.c_str(),
                           h));
            }
            t.row(row);
        }
    }
}

/** Per-node MB/s at 2 GHz implied by @p bytesPerInstr at 64 CPUs (the
 *  figure the paper quotes next to Figure 9). */
double
mbpsPerNode(double bytesPerInstr)
{
    return bytesPerInstr * 2e9 / 64.0 / 1e6;
}

void
fig9(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "fig9"};
    t.line("=== Figure 9: remote traffic (bytes/instr, 64 processors) "
           "===");
    t.line(trafficHeader());
    for (const auto &app : apps()) {
        const RunOutcome *o = outs.done(scal(app, 64));
        JsonObj row;
        row.str("app", app).raw("run", outcomeJson(o));
        if (o) {
            const TrafficRow &tr = o->traffic;
            t.line(trafficRowText(tr));
            t.line(fmt("%-16s   -> %.1f MB/s per node at 2 GHz",
                       app.c_str(), mbpsPerNode(tr.total())));
            row.num("overhead", tr.overhead)
                .num("miss", tr.miss)
                .num("writeback", tr.writeBack)
                .num("shared", tr.shared)
                .num("total", tr.total())
                .num("mbps_per_node", mbpsPerNode(tr.total()));
        } else {
            t.line(fmt("%-16s DID NOT COMPLETE", app.c_str()));
        }
        t.row(row);
    }
}

std::vector<Cell>
commitCells()
{
    std::vector<Cell> cells;
    for (const auto &app : kCommitApps) {
        cells.push_back(bus(app, 1));
        cells.push_back(scal(app, 1));
        for (std::uint32_t p : kCommitProcs) {
            cells.push_back(bus(app, p));
            cells.push_back(scal(app, p));
        }
    }
    return cells;
}

void
commitAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_commit"};
    t.line("=== Ablation: parallel commit (Scalable TCC) vs serialized "
           "commit (bus TCC) ===");
    t.line(fmt("%-16s %5s %14s %14s %12s", "application", "cpus",
               "bus_speedup", "scal_speedup", "scal/bus"));
    for (const auto &app : kCommitApps) {
        const RunOutcome *busBase = outs.done(bus(app, 1));
        const RunOutcome *scalBase = outs.done(scal(app, 1));
        for (std::uint32_t p : kCommitProcs) {
            const RunOutcome *b = outs.done(bus(app, p));
            const RunOutcome *s = outs.done(scal(app, p));
            JsonObj row;
            row.str("app", app).num("procs", p)
                .raw("bus", outcomeJson(b)).raw("scal", outcomeJson(s));
            if (busBase && b && scalBase && s) {
                const double busSpeedup =
                    static_cast<double>(busBase->cycles) /
                    static_cast<double>(b->cycles);
                const double scalSpeedup =
                    static_cast<double>(scalBase->cycles) /
                    static_cast<double>(s->cycles);
                t.line(fmt("%-16s %5u %13.1fx %13.1fx %11.2fx",
                           app.c_str(), p, busSpeedup, scalSpeedup,
                           scalSpeedup / busSpeedup));
                row.num("bus_speedup", busSpeedup)
                    .num("scal_speedup", scalSpeedup);
            } else {
                t.line(fmt("%-16s %5u %14s %14s %12s", app.c_str(), p,
                           busBase && b ? "-" : "DID NOT COMPLETE",
                           scalBase && s ? "-" : "DID NOT COMPLETE",
                           "-"));
            }
            t.row(row);
        }
    }
}

/** Cells of an A/B ablation: each app's default 32-CPU run and its
 *  run under @p variant. */
std::vector<Cell>
abCells(const std::vector<std::string> &names,
        Cell (*variant)(const std::string &))
{
    std::vector<Cell> cells;
    for (const auto &app : names) {
        cells.push_back(scal(app, k32));
        cells.push_back(variant(app));
    }
    return cells;
}

std::vector<Cell>
granularityCells()
{
    return abCells(kGranularityApps, lineCell);
}

void
granularityAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_granularity"};
    t.line("=== Ablation 1: word vs line conflict granularity (32 CPUs) "
           "===");
    t.line(fmt("%-16s %14s %14s %12s %12s", "application", "word_cycles",
               "line_cycles", "word_viol", "line_viol"));
    for (const auto &app : kGranularityApps) {
        const RunOutcome *word = outs.done(scal(app, k32));
        const RunOutcome *line = outs.done(lineCell(app));
        t.row(JsonObj().str("app", app)
                  .raw("word", outcomeJson(word))
                  .raw("line", outcomeJson(line)));
        if (!word || !line) {
            t.line(fmt("%-16s DID NOT COMPLETE", app.c_str()));
            continue;
        }
        t.line(fmt("%-16s %14llu %14llu %12llu %12llu", app.c_str(),
                   (unsigned long long)word->cycles,
                   (unsigned long long)line->cycles,
                   (unsigned long long)word->violations,
                   (unsigned long long)line->violations));
    }
}

std::vector<Cell>
agingCells()
{
    std::vector<Cell> cells;
    for (std::uint32_t aging : kAgings)
        cells.push_back(agingCell(aging));
    return cells;
}

void
agingAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_aging"};
    t.line("\n=== Ablation 2: TID aging under high conflict (32 CPUs) "
           "===");
    t.line(fmt("%-16s %14s %14s %12s %12s", "config", "cycles",
               "violations", "committed", "completed"));
    for (std::uint32_t aging : kAgings) {
        const RunOutcome *o = outs.done(agingCell(aging));
        t.row(JsonObj().num("aging", aging).raw("run", outcomeJson(o)));
        if (!o) {
            t.line(fmt("aging=%-10u DID NOT COMPLETE", aging));
            continue;
        }
        t.line(fmt("aging=%-10u %14llu %14llu %12llu %12s", aging,
                   (unsigned long long)o->cycles,
                   (unsigned long long)o->violations,
                   (unsigned long long)o->committedTxns, "yes"));
    }
}

std::vector<Cell>
writeThroughCells()
{
    return abCells(kWriteThroughApps, writeThroughCell);
}

void
writeThroughAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_write_through"};
    t.line("\n=== Ablation 3: write-back vs write-through commit (32 "
           "CPUs) ===");
    t.line(fmt("%-16s %14s %14s %16s %16s", "application", "wb_cycles",
               "wt_cycles", "wb_bytes/instr", "wt_bytes/instr"));
    for (const auto &app : kWriteThroughApps) {
        const RunOutcome *wb = outs.done(scal(app, k32));
        const RunOutcome *wt = outs.done(writeThroughCell(app));
        JsonObj row;
        row.str("app", app)
            .raw("wb", outcomeJson(wb))
            .raw("wt", outcomeJson(wt));
        if (wb && wt) {
            t.line(fmt("%-16s %14llu %14llu %16.4f %16.4f", app.c_str(),
                       (unsigned long long)wb->cycles,
                       (unsigned long long)wt->cycles,
                       wb->traffic.total(), wt->traffic.total()));
            row.num("wb_bytes_per_instr", wb->traffic.total())
                .num("wt_bytes_per_instr", wt->traffic.total());
        } else {
            t.line(fmt("%-16s DID NOT COMPLETE", app.c_str()));
        }
        t.row(row);
    }
}

std::vector<Cell>
dirCacheCells()
{
    std::vector<Cell> cells;
    for (const auto &app : kDirCacheApps)
        for (std::uint32_t entries : kDirCacheSizes)
            cells.push_back(dirCacheCell(app, entries));
    return cells;
}

void
dirCacheAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_dir_cache"};
    t.line("\n=== Ablation 4: directory cache size (32 CPUs) ===");
    t.line(fmt("%-16s %12s %14s %14s", "application", "entries", "cycles",
               "dcache_misses"));
    for (const auto &app : kDirCacheApps) {
        for (std::uint32_t entries : kDirCacheSizes) {
            const RunOutcome *o = outs.done(dirCacheCell(app, entries));
            t.row(JsonObj().str("app", app).num("entries", entries)
                      .raw("run", outcomeJson(o)));
            if (!o) {
                t.line(fmt("%-16s %12u DID NOT COMPLETE", app.c_str(),
                           entries));
                continue;
            }
            t.line(fmt("%-16s %12u %14llu %14llu", app.c_str(), entries,
                       (unsigned long long)o->cycles,
                       (unsigned long long)o->dirCacheMisses));
        }
    }
}

std::vector<Cell>
homeCells()
{
    return abCells(kHomeApps, interleaveCell);
}

void
homeAblation(const Outcomes &outs, PaperReport &r)
{
    Table t{r, "ablation_homes"};
    t.line("\n=== Ablation 5: first-touch vs interleaved homes (32 "
           "CPUs) ===");
    t.line(fmt("%-16s %16s %16s %10s", "application", "firsttouch",
               "interleave", "slowdown"));
    for (const auto &app : kHomeApps) {
        const RunOutcome *ft = outs.done(scal(app, k32));
        const RunOutcome *il = outs.done(interleaveCell(app));
        t.row(JsonObj().str("app", app)
                  .raw("firsttouch", outcomeJson(ft))
                  .raw("interleave", outcomeJson(il)));
        if (!ft || !il) {
            t.line(fmt("%-16s DID NOT COMPLETE", app.c_str()));
            continue;
        }
        t.line(fmt("%-16s %16llu %16llu %9.2fx", app.c_str(),
                   (unsigned long long)ft->cycles,
                   (unsigned long long)il->cycles,
                   static_cast<double>(il->cycles) /
                       static_cast<double>(ft->cycles)));
    }
}

struct Section {
    std::vector<Cell> (*cells)();
    void (*render)(const Outcomes &, PaperReport &);
};

/** The paper's evaluation in print order. Figure 9 reads the cells of
 *  Table 3. */
const Section kSections[] = {
    {table3Cells, table3},
    {fig6Cells, fig6},
    {fig7Cells, fig7},
    {fig8Cells, fig8},
    {table3Cells, fig9},
    {commitCells, commitAblation},
    {granularityCells, granularityAblation},
    {agingCells, agingAblation},
    {writeThroughCells, writeThroughAblation},
    {dirCacheCells, dirCacheAblation},
    {homeCells, homeAblation},
};

// ---------------------------------------------------------------------
// Shape predicates.
// ---------------------------------------------------------------------

/** A predicate's view of the outcomes: a cell it reads that did not
 *  complete is remembered, and turns the verdict into a FAIL. */
class Probe
{
  public:
    explicit Probe(const Outcomes &o) : outs(o) {}

    const RunOutcome &
    operator()(const Cell &c)
    {
        if (const RunOutcome *o = outs.done(c))
            return *o;
        missing.insert(fmt("%s/%u%s%s", c.app.c_str(), c.procs,
                           c.bus ? " bus" : "",
                           c == scal(c.app, c.procs) || c.bus
                               ? ""
                               : " (ablation variant)"));
        static const RunOutcome kNone;
        return kNone;
    }

    double
    cycles(const Cell &c)
    {
        return static_cast<double>((*this)(c).cycles);
    }

    /** Speedup of @p app at @p p CPUs over its 1-CPU run. */
    double
    speedup(const std::string &app, std::uint32_t p)
    {
        return ratio(cycles(scal(app, 1)), cycles(scal(app, p)));
    }

    double
    busSpeedup(const std::string &app, std::uint32_t p)
    {
        return ratio(cycles(bus(app, 1)), cycles(bus(app, p)));
    }

    std::set<std::string> missing;

  private:
    const Outcomes &outs;
};

using Metric = double (*)(Probe &, const std::string &);

/** Every Table-3 app by @p metric, largest first. */
struct Ranking {
    std::vector<std::pair<double, std::string>> byValue;

    Ranking(Probe &in, Metric metric)
    {
        for (const auto &app : apps())
            byValue.emplace_back(metric(in, app), app);
        std::stable_sort(byValue.begin(), byValue.end(),
                         [](const auto &a, const auto &b) {
                             return a.first > b.first;
                         });
    }

    double top() const { return byValue.front().first; }
    double bottom() const { return byValue.back().first; }

    /** Whether ranks [from, to) hold exactly @p names. Negative
     *  indices count from the bottom. */
    bool
    holds(int from, int to, std::set<std::string> names) const
    {
        for (int i = from; i < to; ++i)
            names.erase(at(i).second);
        return names.empty();
    }

    /** "app value, ..." for ranks [from, to). */
    std::string
    list(int from, int to, const char *f) const
    {
        std::string s;
        for (int i = from; i < to; ++i)
            s += (s.empty() ? "" : ", ") + at(i).second + " " +
                 fmt(f, at(i).first);
        return s;
    }

  private:
    const std::pair<double, std::string> &
    at(int i) const
    {
        return byValue[i < 0 ? byValue.size() + i : i];
    }
};

/** Checks @p ok on @p metric for each of @p names, listing every value
 *  in @p m. */
template <typename Ok>
bool
each(Probe &in, std::string &m, const std::vector<std::string> &names,
     Metric metric, Ok ok, const char *f)
{
    bool all = true;
    for (const auto &app : names) {
        const double v = metric(in, app);
        m += (m.empty() ? "" : ", ") + app + " " + fmt(f, v);
        all = ok(v) && all;
    }
    return all;
}

const AppCharacterization &
t3(Probe &in, const std::string &app)
{
    return in(scal(app, 64)).characterization;
}

const TrafficRow &
traffic(Probe &in, const std::string &app)
{
    return in(scal(app, 64)).traffic;
}

double
speedup64(Probe &in, const std::string &app)
{
    return in.speedup(app, 64);
}

/** Figure 8: cycles at 8 over 2 cycles per hop. */
double
hopSlowdown(Probe &in, const std::string &app)
{
    return ratio(in.cycles(hopCell(app, 8)), in.cycles(hopCell(app, 2)));
}

/** Scalable over bus speedup at 64 CPUs. */
double
scalOverBus64(Probe &in, const std::string &app)
{
    return ratio(in.speedup(app, 64), in.busSpeedup(app, 64));
}

/** Share of @p app's 64-CPU time in commit + violation, over that
 *  run's own time or, with @p ofOneCpu, over its 1-CPU run's time
 *  (the scale of the Fig 7 bars). */
double
commitViolationPct(Probe &in, const std::string &app, bool ofOneCpu)
{
    const RunOutcome &o = in(scal(app, 64));
    const Breakdown &bd = o.breakdown;
    const double share =
        100.0 * (bd.fraction(bd.commit) + bd.fraction(bd.violation));
    return ofOneCpu ? share * ratio(static_cast<double>(o.cycles),
                                    in.cycles(scal(app, 1)))
                    : share;
}

/** Cluster GA's violation time at @p p CPUs, as a share of its 1-CPU
 *  run's time. */
double
clusterGaViolationPct(Probe &in, std::uint32_t p)
{
    const RunOutcome &o = in(scal("cluster_ga", p));
    return 100.0 * o.breakdown.fraction(o.breakdown.violation) *
           ratio(static_cast<double>(o.cycles),
                 in.cycles(scal("cluster_ga", 1)));
}

/**
 * One EXPERIMENTS.md claim. holds() fills in what it measured and says
 * whether the claim holds. A gated claim that does not hold FAILs; a
 * paper claim this reproduction does not meet (gated = false) prints
 * DEVIATION instead, on every run.
 */
struct Shape {
    const char *name;
    bool gated;
    const char *claim;
    bool (*holds)(Probe &in, std::string &m);
};

const Shape kShapes[] = {
    {"table3.txn_size_paper_range", false,
     "90th-pct txn sizes reach down to the paper's 200 and up to its "
     "45,000 instructions",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return t3(p, a).txnSize90;
         });
         m = r.list(-1, 0, "%.0f") + " to " + r.list(0, 1, "%.0f");
         return r.bottom() <= 200 && r.top() >= 45000;
     }},
    {"table3.set_sizes_single_digit_kb", true,
     "every app: read set < 10 KB, write set < 6 KB",
     [](Probe &in, std::string &m) {
         const Ranking rd(in, [](Probe &p, const std::string &a) {
             return t3(p, a).readSetKB90;
         });
         const Ranking wr(in, [](Probe &p, const std::string &a) {
             return t3(p, a).writeSetKB90;
         });
         m = "largest read " + rd.list(0, 1, "%.2f KB") + ", write " +
             wr.list(0, 1, "%.2f KB");
         return rd.top() < 10 && wr.top() < 6;
     }},
    {"table3.set_sizes_paper", false,
     "every app but swim and tomcatv: read set < 5 KB, write set < 2 KB",
     [](Probe &in, std::string &m) {
         const Metric over = [](Probe &p, const std::string &a) {
             const AppCharacterization &c = t3(p, a);
             const bool stencil = a == "swim" || a == "tomcatv";
             return stencil ? 0.0
                            : std::max(c.readSetKB90 / 5,
                                       c.writeSetKB90 / 2);
         };
         const Ranking r(in, over);
         m = "largest multiple of the bound: " + r.list(0, 2, "%.2fx");
         return r.top() < 1;
     }},
    {"table3.volrend_lowest_ops_per_word", true,
     "volrend has the lowest ops per word written",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return t3(p, a).opsPerWordWritten90;
         });
         m = "lowest " + r.list(-2, 0, "%.1f");
         return r.holds(-1, 0, {"volrend"});
     }},
    {"table3.specjbb_highest_ops_per_word", false,
     "specjbb has the highest ops per word written",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return t3(p, a).opsPerWordWritten90;
         });
         m = "highest " + r.list(0, 2, "%.1f");
         return r.holds(0, 1, {"specjbb"});
     }},
    {"table3.radix_touches_most_dirs", true,
     "radix touches the most directories per commit, every other app "
     "<= 2",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return t3(p, a).dirsPerCommit90;
         });
         m = r.list(0, 2, "%.0f");
         return r.holds(0, 1, {"radix"}) && r.byValue[1].first <= 2;
     }},
    {"table3.radix_touches_all_dirs", false,
     "radix touches all 64 directories per commit",
     [](Probe &in, std::string &m) {
         m = fmt("radix %.0f", t3(in, "radix").dirsPerCommit90);
         return t3(in, "radix").dirsPerCommit90 >= 64;
     }},
    {"table3.dir_working_set_hundreds", true,
     "every app's directory working set < 1,000 entries",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return t3(p, a).dirWorkingSet90;
         });
         m = "largest " + r.list(0, 1, "%.0f");
         return r.top() < 1000;
     }},
    {"table3.dir_occupancy_small", true,
     "every app: directory occupancy per commit < 1/4 of its txn size",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return ratio(t3(p, a).dirOccupancy90, t3(p, a).txnSize90);
         });
         m = "largest " + r.list(0, 1, "%.3f");
         return r.top() < 0.25;
     }},
    {"fig6.commit_about_1pct", true,
     "1-CPU commit time averages <= 1 % over the apps",
     [](Probe &in, std::string &m) {
         double sum = 0;
         for (const auto &app : apps()) {
             const Breakdown &bd = in(scal(app, 1)).breakdown;
             sum += 100.0 * bd.fraction(bd.commit);
         }
         m = fmt("mean %.2f %%", sum / apps().size());
         return sum / apps().size() <= 1.0;
     }},
    {"fig6.no_violations_on_1cpu", true,
     "no app spends a cycle in violations on 1 CPU",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return static_cast<double>(
                 p(scal(a, 1)).breakdown.violation);
         });
         m = "largest " + r.list(0, 1, "%.0f cycles");
         return r.top() == 0;
     }},
    {"fig7.specjbb_top_speedup_at_64", true,
     "specjbb has the highest speedup at 64 CPUs",
     [](Probe &in, std::string &m) {
         const Ranking r(in, speedup64);
         m = r.list(0, 2, "%.1fx");
         return r.holds(0, 1, {"specjbb"});
     }},
    {"fig7.next_tier_at_64", true,
     "svm_classify, swim, tomcatv, water_spatial are ranks 2-5 at 64 "
     "CPUs",
     [](Probe &in, std::string &m) {
         const Ranking r(in, speedup64);
         m = r.list(1, 6, "%.1fx");
         return r.holds(1, 5,
                        {"svm_classify", "swim", "tomcatv",
                         "water_spatial"});
     }},
    {"fig7.volrend_equake_lowest_at_64", true,
     "volrend and equake have the two lowest speedups at 64 CPUs",
     [](Probe &in, std::string &m) {
         const Ranking r(in, speedup64);
         m = r.list(-3, 0, "%.1fx");
         return r.holds(-2, 0, {"equake", "volrend"});
     }},
    {"fig7.water_spatial_beats_nsquared_at_64", true,
     "water_spatial's speedup > water_nsquared's at 64 CPUs",
     [](Probe &in, std::string &m) {
         return each(in, m, {"water_spatial", "water_nsquared"},
                     speedup64, [](double) { return true; }, "%.1fx") &&
                speedup64(in, "water_spatial") >
                    speedup64(in, "water_nsquared");
     }},
    {"fig7.speedup_paper_range", false,
     "every app's speedup is within the paper's 11-32 at 32 CPUs and "
     "16-57 at 64 CPUs",
     [](Probe &in, std::string &m) {
         const Ranking r32(in, [](Probe &p, const std::string &a) {
             return p.speedup(a, 32);
         });
         const Ranking r64(in, speedup64);
         m = fmt("32 CPUs %.1f-%.1fx, 64 CPUs %.1f-%.1fx", r32.bottom(),
                 r32.top(), r64.bottom(), r64.top());
         return r32.bottom() >= 11 && r32.top() <= 32 &&
                r64.bottom() >= 16 && r64.top() <= 57;
     }},
    {"fig7.commit_violation_lt_5pct_of_1cpu_time", true,
     "every app at 64 CPUs: commit + violation < 5 % of the 1-CPU run's "
     "time (the Fig 7 bar scale)",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return commitViolationPct(p, a, true);
         });
         m = "largest " + r.list(0, 1, "%.1f %%");
         return r.top() < 5;
     }},
    {"fig7.commit_violation_lt_5pct_of_own_time", false,
     "every app at 64 CPUs: commit + violation < 5 % of its own run's "
     "time",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return commitViolationPct(p, a, false);
         });
         m = "largest " + r.list(0, 3, "%.1f %%");
         return r.top() < 5;
     }},
    {"fig7.cluster_ga_violations_fade", true,
     "cluster_ga's violation time (share of its 1-CPU time) is > 0 at "
     "8 CPUs and smaller at 64",
     [](Probe &in, std::string &m) {
         const double v8 = clusterGaViolationPct(in, 8);
         const double v64 = clusterGaViolationPct(in, 64);
         m = fmt("8 CPUs %.3f %%, 64 CPUs %.3f %%", v8, v64);
         return v8 > 0 && v64 < v8;
     }},
    {"fig8.equake_volrend_most_sensitive", true,
     "equake and volrend slow down the most from 2 to 8 cycles/hop",
     [](Probe &in, std::string &m) {
         const Ranking r(in, hopSlowdown);
         m = r.list(0, 3, "%.3fx");
         return r.holds(0, 2, {"equake", "volrend"});
     }},
    {"fig8.low_comm_apps_flat", true,
     "specjbb, swim, svm_classify slow down <= 5 % from 2 to 8 "
     "cycles/hop",
     [](Probe &in, std::string &m) {
         return each(in, m, {"specjbb", "swim", "svm_classify"},
                     hopSlowdown, [](double v) { return v <= 1.05; },
                     "%.3fx");
     }},
    {"fig8.degradation_up_to_50pct", false,
     "the most sensitive app slows down by the paper's 50 % at 8 "
     "cycles/hop",
     [](Probe &in, std::string &m) {
         const Ranking r(in, hopSlowdown);
         m = "worst " + r.list(0, 1, "%.3fx");
         return r.top() >= 1.5;
     }},
    {"fig9.per_node_mbps_paper_range", true,
     "every app's per-node bandwidth at 2 GHz is within the paper's "
     "2.5-160 MB/s",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return mbpsPerNode(traffic(p, a).total());
         });
         m = r.list(-1, 0, "%.1f") + " to " + r.list(0, 1, "%.1f MB/s");
         return r.bottom() >= 2.5 && r.top() <= 160;
     }},
    {"fig9.bytes_per_instr_paper_range", false,
     "every app's traffic is within the paper's 0.01-0.6 bytes/instr",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return traffic(p, a).total();
         });
         m = r.list(-1, 0, "%.2f") + " to " + r.list(0, 3, "%.2f");
         return r.bottom() >= 0.01 && r.top() <= 0.6;
     }},
    {"fig9.overhead_and_miss_dominate", true,
     "every app: overhead + miss > 50 % of its traffic",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             const TrafficRow &t = traffic(p, a);
             return ratio(t.overhead + t.miss, t.total());
         });
         m = "smallest share " + r.list(-1, 0, "%.2f");
         return r.bottom() > 0.5;
     }},
    {"fig9.writeback_visible_for_stencils", true,
     "swim and tomcatv have the two largest write-back shares",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return ratio(traffic(p, a).writeBack, traffic(p, a).total());
         });
         m = r.list(0, 3, "%.3f");
         return r.holds(0, 2, {"swim", "tomcatv"});
     }},
    {"fig9.shared_in_communication_codes", true,
     "equake, volrend, radix have the three largest shared "
     "(cache-to-cache) components",
     [](Probe &in, std::string &m) {
         const Ranking r(in, [](Probe &p, const std::string &a) {
             return traffic(p, a).shared;
         });
         m = r.list(0, 4, "%.4f");
         return r.holds(0, 3, {"equake", "volrend", "radix"});
     }},
    {"commit.bus_competitive_to_32", true,
     "at 4-32 CPUs the bus design's speedup >= Scalable TCC's",
     [](Probe &in, std::string &m) {
         double worst = 0;
         for (const auto &app : kCommitApps)
             for (std::uint32_t p : {4u, 8u, 16u, 32u}) {
                 const double s =
                     ratio(in.speedup(app, p), in.busSpeedup(app, p));
                 if (s > worst)
                     m = fmt("largest scal/bus %.2fx (%s, %u CPUs)", s,
                             app.c_str(), p);
                 worst = std::max(worst, s);
             }
         return worst <= 1;
     }},
    {"commit.bus_flattens_32_to_64", true,
     "volrend, equake: bus speedup at 64 CPUs <= at 32, while Scalable "
     "TCC's grows",
     [](Probe &in, std::string &m) {
         bool ok = true;
         for (const char *app : {"volrend", "equake"}) {
             const double b32 = in.busSpeedup(app, 32);
             const double b64 = in.busSpeedup(app, 64);
             const double s32 = in.speedup(app, 32);
             const double s64 = in.speedup(app, 64);
             m += fmt("%s%s bus %.1f->%.1fx, scal %.1f->%.1fx",
                      m.empty() ? "" : "; ", app, b32, b64, s32, s64);
             ok = ok && b64 <= b32 && s64 > s32;
         }
         return ok;
     }},
    {"commit.scalable_beats_bus_at_64", true,
     "volrend, equake: scal/bus > 1 at 64 CPUs",
     [](Probe &in, std::string &m) {
         return each(in, m, {"volrend", "equake"}, scalOverBus64,
                     [](double v) { return v > 1; }, "%.2fx");
     }},
    {"ablation1.line_violations_ge_word", true,
     "line granularity gives >= the violations of word granularity",
     [](Probe &in, std::string &m) {
         return each(
             in, m, kGranularityApps,
             [](Probe &p, const std::string &a) {
                 return ratio(p(lineCell(a)).violations,
                              p(scal(a, k32)).violations);
             },
             [](double v) { return v >= 1; }, "%.2fx");
     }},
    {"ablation2.completes_with_and_without_aging", true,
     "the high-conflict run completes with and without aging and "
     "commits the same transactions",
     [](Probe &in, std::string &m) {
         const auto on = in(agingCell(3)).committedTxns;
         const auto off = in(agingCell(0)).committedTxns;
         m = fmt("committed %llu with aging, %llu without",
                 (unsigned long long)on, (unsigned long long)off);
         return on == off && on > 0;
     }},
    {"ablation3.write_through_near_tie", true,
     "write-through commit is within 5 % of write-back's cycles",
     [](Probe &in, std::string &m) {
         return each(
             in, m, kWriteThroughApps,
             [](Probe &p, const std::string &a) {
                 return ratio(p.cycles(writeThroughCell(a)),
                              p.cycles(scal(a, k32)));
             },
             [](double v) { return std::abs(v - 1) <= 0.05; }, "%.3fx");
     }},
    {"ablation4.smaller_dir_cache_never_faster", true,
     "shrinking the directory cache never lowers cycles",
     [](Probe &in, std::string &m) {
         return each(
             in, m, kDirCacheApps,
             [](Probe &p, const std::string &a) {
                 double prev = 0;
                 bool monotone = true;
                 for (std::uint32_t entries : kDirCacheSizes) {
                     const double c = p.cycles(dirCacheCell(a, entries));
                     monotone = monotone && c >= prev;
                     prev = c;
                 }
                 // Slowdown at the smallest size; negative when the
                 // sweep was not monotone.
                 const double s = ratio(prev, p.cycles(scal(a, k32)));
                 return monotone ? s : -s;
             },
             [](double v) { return v >= 1; },
             "%.3fx at the smallest size");
     }},
    {"ablation5.first_touch_faster", true,
     "first-touch homes are faster than interleaved homes",
     [](Probe &in, std::string &m) {
         return each(
             in, m, kHomeApps,
             [](Probe &p, const std::string &a) {
                 return ratio(p.cycles(interleaveCell(a)),
                              p.cycles(scal(a, k32)));
             },
             [](double v) { return v > 1; }, "%.2fx");
     }},
};

} // namespace

RunOptions
Cell::options() const
{
    RunOptions opt;
    opt.procs = procs;
    opt.hopLatency = hop;
    opt.granularity = granularity;
    opt.homePolicy = home;
    opt.agingThreshold = aging;
    opt.dirCacheEntries = dirCacheEntries;
    opt.writeThroughCommit = writeThrough;
    opt.wl = WorkloadParams::parse(wl);
    return opt;
}

RunOutcome
runCell(const Cell &cell)
{
    if (!cell.bus)
        return runWorkload(cell.app, cell.options());
    // The registry attaches the same workload bundle to either machine;
    // the bus baseline reports cycles and completion only.
    BusConfig cfg;
    cfg.numProcs = cell.procs;
    BusTcc machine(cfg);
    const WorkloadBundle bundle =
        makeWorkload(cell.app, {}, RunOptions{}.seed, cell.procs);
    bundle.attach(machine);
    const RunResult res = machine.run();
    RunOutcome out;
    out.app = cell.app;
    out.procs = cell.procs;
    out.cycles = res.cycles;
    out.completed = res.completed;
    return out;
}

std::vector<Cell>
paperGrid()
{
    std::vector<Cell> grid;
    for (const Section &s : kSections)
        for (Cell &c : s.cells())
            grid.push_back(std::move(c));
    return grid;
}

void
Outcomes::add(const Cell &cell, RunOutcome out)
{
    runs[cell] = std::move(out);
}

const RunOutcome *
Outcomes::done(const Cell &cell) const
{
    const auto it = runs.find(cell);
    return it != runs.end() && it->second.completed ? &it->second
                                                    : nullptr;
}

PaperReport
renderPaper(const Outcomes &outs)
{
    PaperReport report;
    for (const Section &s : kSections)
        s.render(outs, report);
    return report;
}

std::vector<ShapeVerdict>
evaluateShapes(const Outcomes &outs)
{
    std::vector<ShapeVerdict> verdicts;
    for (const Shape &s : kShapes) {
        Probe in(outs);
        ShapeVerdict v{s.name, s.gated, ShapeStatus::Fail, "", s.claim};
        const bool holds = s.holds(in, v.measured);
        if (!in.missing.empty()) {
            v.measured = "DID NOT COMPLETE:";
            for (const auto &c : in.missing)
                v.measured += " " + c;
        } else if (holds) {
            v.status = ShapeStatus::Pass;
        } else if (!s.gated) {
            v.status = ShapeStatus::Deviation;
        }
        verdicts.push_back(std::move(v));
    }
    return verdicts;
}

const char *
statusName(ShapeStatus s)
{
    switch (s) {
    case ShapeStatus::Pass:
        return "PASS";
    case ShapeStatus::Fail:
        return "FAIL";
    case ShapeStatus::Deviation:
        return "DEVIATION";
    }
    return "?";
}

std::string
renderShapes(const std::vector<ShapeVerdict> &verdicts)
{
    std::string out = "\n=== Shape checks (EXPERIMENTS.md claims) ===\n";
    std::size_t n[3] = {0, 0, 0};
    for (const ShapeVerdict &v : verdicts) {
        ++n[static_cast<int>(v.status)];
        out += fmt("%-9s %s\n", statusName(v.status), v.name.c_str()) +
               "          measured: " + v.measured +
               "\n          claim: " + v.claim + "\n";
    }
    out += fmt("shape checks: %zu PASS, %zu FAIL, %zu DEVIATION\n", n[0],
               n[1], n[2]);
    return out;
}

std::string
paperJson(const PaperReport &report,
          const std::vector<ShapeVerdict> &verdicts,
          const PaperRunInfo &info)
{
    std::size_t n[3] = {0, 0, 0};
    std::vector<std::string> shapes;
    for (const ShapeVerdict &v : verdicts) {
        ++n[static_cast<int>(v.status)];
        shapes.push_back(JsonObj()
                             .str("name", v.name)
                             .str("status", statusName(v.status))
                             .raw("gated", v.gated ? "true" : "false")
                             .str("measured", v.measured)
                             .str("claim", v.claim)
                             .done());
    }
    // One top-level key per line, one table row per line.
    std::string out = "{\n  " + JsonObj()
        .str("git_rev", info.gitRev)
        .num("hardware_concurrency", info.hardwareConcurrency)
        .num("jobs", info.jobs)
        .num("wall_sec", info.wallSec)
        .num("cells_declared", info.cellsDeclared)
        .num("scalable_cells", info.scalableCells)
        .num("bus_cells", info.busCells)
        .num("shapes_passed", n[0])
        .num("shapes_failed", n[1])
        .num("shapes_deviation", n[2])
        .raw("config", JsonObj()
                           .num("apps", apps().size())
                           .num("seed", RunOptions{}.seed)
                           .done())
        .done().substr(1);
    out.pop_back();
    auto array = [&out](const std::string &name,
                        const std::vector<std::string> &rows) {
        out += ",\n  \"" + name + "\": [";
        for (std::size_t i = 0; i < rows.size(); ++i)
            out += (i ? ",\n    " : "\n    ") + rows[i];
        out += "\n  ]";
    };
    for (const auto &[name, rows] : report.tables)
        array(name, rows);
    array("shapes", shapes);
    return out + "\n}\n";
}

int
shapesExitCode(const std::vector<ShapeVerdict> &verdicts)
{
    for (const ShapeVerdict &v : verdicts)
        if (v.status == ShapeStatus::Fail)
            return 1;
    return 0;
}

} // namespace tccbench
