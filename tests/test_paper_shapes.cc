/**
 * @file
 * Strength of bench_paper's shape predicates: fed a hand-made outcome
 * table that meets every claim, each gated predicate passes; fed a
 * deliberately wrong one, it FAILs and the exit status turns nonzero.
 * A grid cell that did not complete prints DID NOT COMPLETE in the
 * rows that depend on it and FAILs the predicates that read it.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "paper.hh"

namespace tccbench {
namespace {

using Twist = std::function<void(const Cell &, RunOutcome &)>;

Cell
plain(const std::string &app, std::uint32_t procs)
{
    Cell c;
    c.app = app;
    c.procs = procs;
    return c;
}

bool
is(const Cell &c, const std::string &app, std::uint32_t procs)
{
    return c == plain(app, procs);
}

/** Scalable TCC speedup of the model: per-app parallel efficiency. */
double
modelSpeedup(const std::string &app, std::uint32_t p)
{
    double eff = 0.4;
    if (app == "specjbb")
        eff = 0.65;
    else if (app == "svm_classify" || app == "swim" || app == "tomcatv" ||
             app == "water_spatial")
        eff = 0.55;
    else if (app == "equake")
        eff = 0.24;
    else if (app == "volrend")
        eff = 0.18;
    return 1 + eff * (p - 1);
}

/** Cycles of one cell in a world where every EXPERIMENTS.md claim
 *  holds. */
double
modelCycles(const Cell &c)
{
    if (c.bus) {
        // Ahead of Scalable TCC up to 32 CPUs, flat from 32 to 64.
        const double s = c.procs == 1   ? 1.0
                         : c.procs <= 32 ? 1.05 * modelSpeedup(c.app, c.procs)
                                         : 0.99 * modelSpeedup(c.app, 32);
        return 1e6 / s;
    }
    double cycles = 1e6 / modelSpeedup(c.app, c.procs);
    if (c.hop != plain(c.app, c.procs).hop) {
        double perHop = 0.01;
        if (c.app == "equake" || c.app == "volrend")
            perHop = 0.04;
        else if (c.app == "specjbb" || c.app == "swim" ||
                 c.app == "svm_classify")
            perHop = 0.002;
        cycles *= 1 + perHop * static_cast<double>(c.hop - 2);
    }
    if (c.granularity == Granularity::Line)
        cycles *= 1.02;
    if (c.home == HomePolicy::Interleave)
        cycles *= 1.2;
    if (c.writeThrough)
        cycles *= 1.01;
    if (c.dirCacheEntries != 0)
        cycles *= 1 + 100.0 / c.dirCacheEntries;
    return cycles;
}

RunOutcome
modelOutcome(const Cell &c)
{
    RunOutcome o;
    o.app = c.app;
    o.procs = c.procs;
    o.completed = true;
    o.cycles = static_cast<Tick>(modelCycles(c));
    o.committedTxns = 512;
    o.violations = c.granularity == Granularity::Line ? 150 : 100;
    Breakdown &bd = o.breakdown;
    if (c.procs == 1) {
        bd.useful = 900;
        bd.miss = 97;
        bd.commit = 3;
    } else {
        bd.useful = 800;
        bd.miss = 170;
        bd.idle = 10;
        bd.commit = 10;
        bd.violation = 10;
    }
    AppCharacterization &t3 = o.characterization;
    t3.name = c.app;
    t3.txnSize90 = 5000;
    t3.writeSetKB90 = 1;
    t3.readSetKB90 = 3;
    t3.opsPerWordWritten90 = c.app == "volrend"   ? 10
                             : c.app == "specjbb" ? 500
                                                  : 100;
    t3.dirsPerCommit90 = c.app == "radix" ? 40 : 2;
    t3.dirWorkingSet90 = 500;
    t3.dirOccupancy90 = 100;
    TrafficRow &t = o.traffic;
    t.name = c.app;
    t.overhead = 0.1;
    t.miss = 0.2;
    t.writeBack = c.app == "swim" || c.app == "tomcatv" ? 0.1 : 0.01;
    t.shared = c.app == "equake" || c.app == "volrend" || c.app == "radix"
                   ? 0.05
                   : 0.001;
    return o;
}

Outcomes
table(const Twist &twist = {})
{
    Outcomes outs;
    for (const Cell &c : paperGrid()) {
        RunOutcome o = modelOutcome(c);
        if (twist)
            twist(c, o);
        outs.add(c, o);
    }
    return outs;
}

std::string
statusOf(const std::vector<ShapeVerdict> &verdicts, const std::string &name)
{
    for (const ShapeVerdict &v : verdicts)
        if (v.name == name)
            return statusName(v.status);
    return "no predicate named " + name;
}

TEST(PaperShapes, GridRunsEachDistinctCellOnce)
{
    const std::vector<Cell> grid = paperGrid();
    const std::set<Cell> distinct(grid.begin(), grid.end());
    std::size_t bus = 0;
    for (const Cell &c : distinct)
        bus += c.bus;
    EXPECT_EQ(grid.size(), 203u);
    EXPECT_EQ(distinct.size() - bus, 112u);
    EXPECT_EQ(bus, 24u);
}

TEST(PaperShapes, ModelTableMeetsEveryGatedClaim)
{
    const Outcomes outs = table();
    const auto verdicts = evaluateShapes(outs);
    for (const ShapeVerdict &v : verdicts)
        EXPECT_NE(v.status, ShapeStatus::Fail)
            << v.name << ": " << v.measured;
    EXPECT_EQ(verdicts.size(), 35u);
    EXPECT_EQ(shapesExitCode(verdicts), 0);
    const std::string text = renderPaper(outs).text;
    EXPECT_EQ(text.find("DID NOT COMPLETE"), std::string::npos);
}

/** A gated predicate and a twist of the model table that breaks its
 *  claim. */
struct WrongTable {
    const char *predicate;
    Twist twist;
};

TEST(PaperShapes, EveryGatedPredicateFailsOnAWrongTable)
{
    auto scale = [](const char *app, std::uint32_t procs, double f) {
        return [=](const Cell &c, RunOutcome &o) {
            if (is(c, app, procs))
                o.cycles = static_cast<Tick>(o.cycles * f);
        };
    };
    auto variant = [](const char *app, auto pick, double f) {
        return [=](const Cell &c, RunOutcome &o) {
            if (c.app == app && pick(c))
                o.cycles = static_cast<Tick>(o.cycles * f);
        };
    };
    auto at64 = [](const char *app, auto edit) {
        return [=](const Cell &c, RunOutcome &o) {
            if (is(c, app, 64))
                edit(o);
        };
    };
    const WrongTable cases[] = {
        {"table3.set_sizes_single_digit_kb",
         at64("swim", [](RunOutcome &o) {
             o.characterization.readSetKB90 = 12;
         })},
        {"table3.volrend_lowest_ops_per_word",
         at64("volrend", [](RunOutcome &o) {
             o.characterization.opsPerWordWritten90 = 1000;
         })},
        {"table3.radix_touches_most_dirs",
         at64("barnes", [](RunOutcome &o) {
             o.characterization.dirsPerCommit90 = 50;
         })},
        {"table3.dir_working_set_hundreds",
         at64("radix", [](RunOutcome &o) {
             o.characterization.dirWorkingSet90 = 5000;
         })},
        {"table3.dir_occupancy_small",
         at64("volrend", [](RunOutcome &o) {
             o.characterization.dirOccupancy90 = 5000;
         })},
        {"fig6.commit_about_1pct",
         [](const Cell &c, RunOutcome &o) {
             if (c.procs == 1)
                 o.breakdown.commit = 50;
         }},
        {"fig6.no_violations_on_1cpu",
         [](const Cell &c, RunOutcome &o) {
             if (is(c, "barnes", 1))
                 o.breakdown.violation = 10;
         }},
        {"fig7.specjbb_top_speedup_at_64", scale("specjbb", 64, 2)},
        {"fig7.next_tier_at_64", scale("swim", 64, 3)},
        {"fig7.volrend_equake_lowest_at_64", scale("volrend", 64, 0.2)},
        {"fig7.water_spatial_beats_nsquared_at_64",
         scale("water_spatial", 64, 3)},
        {"fig7.commit_violation_lt_5pct_of_1cpu_time",
         [](const Cell &c, RunOutcome &o) {
             if (is(c, "radix", 64)) {
                 o.cycles = 1000000;
                 o.breakdown.commit = 900;
             }
         }},
        {"fig7.cluster_ga_violations_fade",
         at64("cluster_ga",
              [](RunOutcome &o) { o.breakdown.violation = 500; })},
        {"fig8.equake_volrend_most_sensitive",
         variant("barnes", [](const Cell &c) { return c.hop == 8; }, 2)},
        {"fig8.low_comm_apps_flat",
         variant("swim", [](const Cell &c) { return c.hop == 8; }, 1.2)},
        {"fig9.per_node_mbps_paper_range",
         at64("volrend", [](RunOutcome &o) { o.traffic.miss = 10; })},
        {"fig9.overhead_and_miss_dominate",
         at64("swim", [](RunOutcome &o) { o.traffic.shared = 5; })},
        {"fig9.writeback_visible_for_stencils",
         at64("barnes", [](RunOutcome &o) { o.traffic.writeBack = 1; })},
        {"fig9.shared_in_communication_codes",
         at64("barnes", [](RunOutcome &o) { o.traffic.shared = 1; })},
        {"commit.bus_competitive_to_32",
         variant("barnes",
                 [](const Cell &c) { return c.bus && c.procs == 16; }, 2)},
        {"commit.bus_flattens_32_to_64",
         variant("volrend",
                 [](const Cell &c) { return c.bus && c.procs == 64; },
                 0.5)},
        {"commit.scalable_beats_bus_at_64",
         variant("equake",
                 [](const Cell &c) { return c.bus && c.procs == 64; },
                 0.3)},
        {"ablation1.line_violations_ge_word",
         [](const Cell &c, RunOutcome &o) {
             if (c.app == "barnes" && c.granularity == Granularity::Line)
                 o.violations = 50;
         }},
        {"ablation2.completes_with_and_without_aging",
         [](const Cell &c, RunOutcome &o) {
             if (c.aging == 0)
                 o.committedTxns = 500;
         }},
        {"ablation3.write_through_near_tie",
         variant("radix", [](const Cell &c) { return c.writeThrough; },
                 1.2)},
        {"ablation4.smaller_dir_cache_never_faster",
         variant("swim",
                 [](const Cell &c) { return c.dirCacheEntries == 64; },
                 0.3)},
        {"ablation5.first_touch_faster",
         variant("equake",
                 [](const Cell &c) {
                     return c.home == HomePolicy::Interleave;
                 },
                 0.8)},
    };
    std::set<std::string> covered;
    for (const WrongTable &w : cases) {
        const auto verdicts = evaluateShapes(table(w.twist));
        EXPECT_EQ(statusOf(verdicts, w.predicate), "FAIL")
            << w.predicate;
        EXPECT_NE(shapesExitCode(verdicts), 0) << w.predicate;
        covered.insert(w.predicate);
    }
    // Every gated predicate has a wrong table above.
    for (const ShapeVerdict &v : evaluateShapes(table()))
        if (v.gated && !covered.count(v.name))
            ADD_FAILURE() << v.name << " has no wrong-table case";
}

TEST(PaperShapes, UnmetPaperClaimIsADeviationNotAFailure)
{
    // Radix touching 42 of 64 directories misses the paper's "all
    // directories": reported, but the run still exits 0.
    const auto verdicts = evaluateShapes(table(
        [](const Cell &c, RunOutcome &o) {
            if (is(c, "radix", 64))
                o.characterization.dirsPerCommit90 = 42;
        }));
    EXPECT_EQ(statusOf(verdicts, "table3.radix_touches_all_dirs"),
              "DEVIATION");
    EXPECT_EQ(shapesExitCode(verdicts), 0);
}

TEST(PaperShapes, IncompleteBaselineRowsAndPredicatesFail)
{
    // The 2-cycle Fig 8 run and the 1-CPU Fig 7 run are the baselines
    // their rows divide by.
    const Outcomes outs = table([](const Cell &c, RunOutcome &o) {
        if ((c.app == "equake" && c.procs == 32 && c.hop == 2) ||
            is(c, "radix", 1))
            o.completed = false;
    });
    const std::string text = renderPaper(outs).text;
    EXPECT_NE(text.find("equake                    2 DID NOT COMPLETE"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("equake                    8 DID NOT COMPLETE"),
              std::string::npos);
    EXPECT_NE(text.find("radix            1-CPU run DID NOT COMPLETE"),
              std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos) << text;
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;

    const auto verdicts = evaluateShapes(outs);
    for (const char *name :
         {"fig8.equake_volrend_most_sensitive",
          "fig8.degradation_up_to_50pct", "fig7.specjbb_top_speedup_at_64",
          "fig7.volrend_equake_lowest_at_64"})
        EXPECT_EQ(statusOf(verdicts, name), "FAIL") << name;
    EXPECT_EQ(statusOf(verdicts, "fig9.per_node_mbps_paper_range"),
              "PASS");
    EXPECT_NE(shapesExitCode(verdicts), 0);
}

} // namespace
} // namespace tccbench
