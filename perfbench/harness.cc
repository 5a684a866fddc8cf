/**
 * @file
 * tccperf: the repository benchmark harness.
 *
 * One invocation builds one workload's inputs from a seed, runs it
 * repeatedly for a fixed number of seconds through the library's
 * public calls (makeWorkload, System::System, WorkloadBundle::attach,
 * System::run, SweepRunner::submit/wait), checks every run and prints
 * its metrics. The last line of stdout is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics (host speed and simulated
 * outcome). --trace 1 is a separate invocation that alternates plain
 * and traced repetitions, records one span per public call, reads
 * per-layer counts through public getters after run(), runs the
 * isolated layer probes (probes.hh), the observability and PDES
 * side-runs, and reports the per-layer metrics plus its own overhead.
 *
 * Usage:
 *   tccperf --workload swim256|hotmap32|checked_sweep --seed N
 *           --seconds S --trace 0|1 [--ledger FILE] [--spans FILE]
 *           [--rev REV] [--src-digest HEX]
 *
 * Exit status: 0 when every run passed the correctness gate, 1 when
 * one failed (metrics are still printed), 2 on bad usage, 3 when the
 * build is not comparable (sanitized or unoptimized).
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"
#include "noc/chaos_network.hh"
#include "probes.hh"
#include "workload/registry.hh"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif
#ifndef PERF_CXX_FLAGS
#define PERF_CXX_FLAGS "unknown"
#endif
#ifndef PERF_COMPILER
#define PERF_COMPILER "unknown"
#endif

namespace {

using namespace tcc;
using perfbench::Metric;
using Clock = std::chrono::steady_clock;

const Clock::time_point gOrigin = Clock::now();

/** Seconds since process start (span timestamps). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - gOrigin).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** One simulation: a registry workload on one machine configuration. */
struct Cell {
    std::string label;
    std::string app;
    std::uint32_t procs = 0;
    std::uint64_t seed = 0;
    WorkloadParams wl;
    SystemConfig cfg;
};

struct BenchWorkload {
    std::vector<Cell> cells;
    /** SweepRunner workers (1 runs every cell inline). */
    unsigned jobs = 1;
    /** Run the PDES side-run in traced mode. */
    bool pdesProbe = false;
};

Cell
makeCell(std::string label, std::string app, std::uint32_t procs,
         std::uint64_t seed)
{
    Cell c;
    c.label = std::move(label);
    c.app = std::move(app);
    c.procs = procs;
    c.seed = seed;
    c.cfg.numProcs = procs;
    return c;
}

/**
 * The three benchmark workloads; every input derives from @p seed.
 * All are closed-loop batches: each processor starts its next
 * transaction only when the previous one committed, and the run ends
 * when every source is drained. Simulated caches start cold and the
 * statistics include warm-up.
 */
bool
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  unsigned nproc, BenchWorkload &w)
{
    if (name == "swim256") {
        // Streaming stencil on a 256-node mesh, flat multicast, serial
        // engine; 9 phases make one run last a few seconds. It fails
        // the committed == expected gate (README.md), so BENCHMARK.json
        // does not list it.
        Cell c = makeCell("swim/256", "swim", 256, seed);
        c.wl.set("phases", "9");
        w.cells.push_back(std::move(c));
        w.pdesProbe = true;
    } else if (name == "hotmap32") {
        // Short write-heavy transactions on Zipf(0.99) hot keys: eight
        // independent 32-proc machines of 1024 transactions each. The
        // hot keys' homes follow the seed's key scramble, and one
        // layout alone swings the median commit latency by a third;
        // pooling eight layouts keeps the simulated figures steady
        // across seeds.
        for (std::uint64_t j = 0; j < 8; ++j) {
            Cell c = makeCell("ds_map/32#" + std::to_string(j), "ds_map",
                              32, seed * 8 + j);
            c.wl.set("theta", "0.99")
                .set("mix", "write_heavy")
                .set("txns", "1024");
            w.cells.push_back(std::move(c));
        }
        w.pdesProbe = true;
    } else if (name == "checked_sweep") {
        // The Table-3 apps x {8, 16} procs, each cell on the next
        // chaos preset with both checkers armed, one job per core.
        const auto &presets = chaosPresetNames();
        for (const auto &info : workloadInfos()) {
            if (info.kind != "table3")
                continue;
            for (std::uint32_t procs : {8u, 16u}) {
                const std::size_t i = w.cells.size();
                const std::string &preset = presets[i % presets.size()];
                Cell c = makeCell(preset + "/" + info.name + "/" +
                                      std::to_string(procs),
                                  info.name, procs, seed * 100 + i);
                c.cfg.network.model = NetworkConfig::Model::Chaos;
                c.cfg.network.chaos = chaosPreset(preset);
                c.cfg.network.chaos.seed =
                    c.seed * 0x9E3779B97F4A7C15ull + 1;
                c.cfg.check.serial = true;
                c.cfg.check.invariants = true;
                w.cells.push_back(std::move(c));
            }
        }
        w.jobs = nproc;
    } else {
        return false;
    }
    return true;
}

// ------------------------------------------------------------------
// One cell run
// ------------------------------------------------------------------

/** Outcome of one cell: span boundaries (seconds since process
 *  start), the correctness verdict, the fingerprint and, for traced
 *  runs, the per-layer counts. */
struct CellRun {
    double start = 0, made = 0, built = 0, attached = 0, ran = 0,
           verified = 0, end = 0;
    /** Empty when the run passed the correctness gate. */
    std::string failure;

    Tick cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t commits = 0;
    std::uint64_t violations = 0;
    std::uint64_t memory = 0;
    std::uint64_t pdesPhases = 0;
    /** Commit latency pooled over every processor. */
    Distribution latency;

    // Traced runs only.
    std::map<std::string, double> counts;
    Distribution occupancy;
    double arenaPeakMb = 0;

    double makeS() const { return made - start; }
    double constructS() const { return built - made; }
    double attachS() const { return attached - built; }
    double setupS() const { return attached - start; }
    double runS() const { return ran - attached; }
    double verifyS() const { return verified - ran; }
    /** The whole job, teardown included. */
    double jobS() const { return end - start; }

    std::string
    fingerprint() const
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%016llx",
                      (unsigned long long)cycles,
                      (unsigned long long)commits,
                      (unsigned long long)violations,
                      (unsigned long long)memory);
        return buf;
    }
};

/** Per-layer counts read through public getters after run(). */
void
readCounts(const System &sys, const RunResult &res, CellRun &r)
{
    auto &k = r.counts;
    k["proc.commits"] += res.committedTxns;
    k["proc.violations"] += res.violations;
    k["proc.overflows"] += res.overflows;
    k["proc.tids_issued"] += sys.vendor().issued();
    k["bd.useful"] += res.breakdown.useful;
    k["bd.miss"] += res.breakdown.miss;
    k["bd.commit"] += res.breakdown.commit;
    k["bd.idle"] += res.breakdown.idle;
    k["bd.violation"] += res.breakdown.violation;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        const SpecCache::Stats &cs = sys.proc(n).cache().stats();
        k["cache.loads"] += cs.loads;
        k["cache.stores"] += cs.stores;
        k["cache.l1_hits"] += cs.l1Hits;
        k["cache.misses"] += cs.misses;
        k["cache.dirty_evictions"] += cs.dirtyEvictions;
        const Directory::Stats &ds = sys.directory(n).stats();
        k["directory.loads_served"] += ds.loadsServed;
        k["directory.loads_stalled"] += ds.loadsStalled;
        k["directory.commits_served"] += ds.commitsServed;
        k["directory.skips_received"] += ds.skipsReceived;
        k["directory.marks_received"] += ds.marksReceived;
        k["directory.probes_deferred"] += ds.probesDeferred;
        k["directory.invalidations_sent"] += ds.invalidationsSent;
        k["directory.writebacks_dropped"] += ds.writeBacksDropped;
        k["directory.busy_cycles"] += ds.busyCycles;
        r.occupancy.merge(ds.commitOccupancy);
    }
    const NetworkStats &ns = sys.network().stats();
    k["noc.messages"] += ns.messages;
    k["noc.bytes"] += ns.totalBytes;
    k["noc.hops"] += ns.totalHops;
    k["noc.multicast_nic_events"] += ns.multicastNicEvents;
    k["check.serial_txns_replayed"] += res.serial.checks;
    k["check.invariant_checks"] += res.invariants.checks;
    r.arenaPeakMb = sys.arenaStats().peakBytes / (1024.0 * 1024.0);
}

/** The correctness gate of one run (empty string = passed). */
std::string
gate(const RunResult &res, const WorkloadBundle &bundle,
     const CheckConfig &armed)
{
    if (!res.completed)
        return "did not complete";
    if (!res.quiesced)
        return "protocol did not quiesce";
    if (res.committedTxns != bundle.footprint.expectedTxns)
        return "committed " + std::to_string(res.committedTxns) +
               " of " + std::to_string(bundle.footprint.expectedTxns) +
               " expected transactions";
    if (armed.serial && !(res.serial.checked && res.serial.ok))
        return "serializability: " + res.serial.error;
    if (armed.invariants && !(res.invariants.checked && res.invariants.ok))
        return "invariants: " + res.invariants.error;
    return "";
}

CellRun
runCell(const Cell &c, bool traced)
{
    CellRun r;
    r.start = now();
    const WorkloadBundle bundle =
        makeWorkload(c.app, c.wl, c.seed, c.procs);
    r.made = now();
    System sys(c.cfg);
    r.built = now();
    bundle.attach(sys);
    r.attached = now();
    const RunResult res = sys.run();
    r.ran = r.verified = now();

    r.failure = gate(res, bundle, c.cfg.check);
    if (traced && c.cfg.check.serial) {
        // The oracle once more on the recorded log: its cost is the
        // check layer's per-layer time.
        const SerialChecker::Result v = sys.commitLog().verify();
        r.verified = now();
        if (r.failure.empty() &&
            (!v.ok || v.txnsChecked != res.serial.checks))
            r.failure = "serial re-verify disagrees with the run";
    }
    r.cycles = res.cycles;
    r.events = res.events;
    r.commits = res.committedTxns;
    r.violations = res.violations;
    r.memory = sys.memory().fingerprint();
    r.pdesPhases = res.pdes.phases;
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        r.latency.merge(sys.proc(p).stats().commitLatency);
    if (traced)
        readCounts(sys, res, r);
    return r;
}

// ------------------------------------------------------------------
// One repetition: every cell through the SweepRunner
// ------------------------------------------------------------------

struct Rep {
    bool traced = false;
    bool parallel = false;
    double start = 0, submitted = 0, end = 0;
    double peakRssMb = 0;
    std::vector<CellRun> cells;

    double makespan() const { return end - start; }

    /** wall_s: the summed System::run time when the cells run one
     *  after another, else the makespan from the first submit to
     *  wait() returning. */
    double
    wall() const
    {
        return parallel ? makespan() : sum(&CellRun::runS);
    }

    /** Sum of @p f (a CellRun member or callable) over the cells. */
    template <typename F>
    double
    sum(F f) const
    {
        double s = 0;
        for (const auto &c : cells)
            s += std::invoke(f, c);
        return s;
    }
};

Rep
runSweep(const std::vector<Cell> &cells, SweepRunner &runner,
         bool traced)
{
    Rep rep;
    rep.traced = traced;
    rep.parallel = runner.jobs() > 1;
    rep.cells.resize(cells.size());
    rep.start = now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // Each job writes only its own pre-sized slot; the end stamp
        // is taken after runCell returned, so it covers teardown.
        runner.submit([&rep, &cells, i, traced] {
            rep.cells[i] = runCell(cells[i], traced);
            rep.cells[i].end = now();
        });
    }
    rep.submitted = now();
    runner.wait();
    rep.end = now();
    return rep;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

struct Span {
    std::uint64_t id = 0, parent = 0, run = 0;
    std::string name;
    double start = 0, end = 0;
};

/** Spans of the traced repetitions: rep -> submit/wait; submit ->
 *  cell job -> one span per public call. A cell's spans share a run
 *  id; sweep-level spans carry run 0. */
std::vector<Span>
collectSpans(const std::vector<Rep> &reps)
{
    std::vector<Span> spans;
    std::uint64_t run = 0;
    auto add = [&spans](std::uint64_t parent, std::uint64_t run_id,
                        const char *name, double s, double e) {
        spans.push_back(Span{spans.size() + 1, parent, run_id, name, s, e});
        return spans.back().id;
    };
    for (const Rep &rep : reps) {
        if (!rep.traced)
            continue;
        const auto root = add(0, 0, "rep", rep.start, rep.end);
        const auto submit =
            add(root, 0, "SweepRunner::submit", rep.start, rep.submitted);
        add(root, 0, "SweepRunner::wait", rep.submitted, rep.end);
        for (const CellRun &c : rep.cells) {
            ++run;
            const auto job = add(submit, run, "job", c.start, c.end);
            add(job, run, "makeWorkload", c.start, c.made);
            add(job, run, "System::System", c.made, c.built);
            add(job, run, "WorkloadBundle::attach", c.built, c.attached);
            add(job, run, "System::run", c.attached, c.ran);
            if (c.verifyS() > 0)
                add(job, run, "SerialChecker::verify", c.ran, c.verified);
        }
    }
    return spans;
}

/** Per span name: count, total and self seconds (duration minus the
 *  union of its children's intervals clipped to it). */
void
printSelfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.start, s.end);
    struct Row {
        std::uint64_t n = 0;
        double total = 0, self = 0;
    };
    std::map<std::string, Row> rows;
    for (const Span &s : spans) {
        auto iv = kids[s.id];
        std::sort(iv.begin(), iv.end());
        double covered = 0, lo = s.start, hi = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > hi) {
                covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += hi - lo;
        Row &r = rows[s.name];
        ++r.n;
        r.total += s.end - s.start;
        r.self += (s.end - s.start) - covered;
    }
    std::printf("spans (name, count, total s, self s):\n");
    for (const auto &[name, r] : rows)
        std::printf("  %-24s %6llu %12.6f %12.6f\n", name.c_str(),
                    (unsigned long long)r.n, r.total, r.self);
}

bool
writeSpans(const std::string &path, const std::string &header,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"header\": %s,\n \"spans\": [", header.c_str());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %llu, \"parent\": %llu, \"run\": "
                     "%llu, \"name\": \"%s\", \"start_us\": %.3f, "
                     "\"end_us\": %.3f}",
                     i ? "," : "", (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     (unsigned long long)s.run, s.name.c_str(),
                     s.start * 1e6, s.end * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ------------------------------------------------------------------
// Fingerprint ledger: a run must match every earlier run of the same
// (workload, seed) made by the same binary.
// ------------------------------------------------------------------

void
checkLedger(const std::string &path, const std::string &workload,
            std::uint64_t seed, std::vector<Rep> &reps)
{
    if (path.empty() || reps.empty())
        return;
    std::map<std::string, std::string> known;
    {
        std::ifstream in(path);
        std::string key_w, fp;
        std::uint64_t key_s = 0, key_i = 0;
        while (in >> key_w >> key_s >> key_i >> fp)
            known[key_w + " " + std::to_string(key_s) + " " +
                  std::to_string(key_i)] = fp;
    }
    std::ofstream out(path, std::ios::app);
    const auto &first = reps[0].cells;
    for (std::size_t i = 0; i < first.size(); ++i) {
        const std::string key = workload + " " + std::to_string(seed) +
                                " " + std::to_string(i);
        const auto it = known.find(key);
        if (it == known.end()) {
            out << key << " " << first[i].fingerprint() << "\n";
            continue;
        }
        for (Rep &rep : reps) {
            CellRun &c = rep.cells[i];
            if (c.failure.empty() && c.fingerprint() != it->second)
                c.failure = "fingerprint " + c.fingerprint() +
                            " differs from an earlier run's " + it->second;
        }
    }
}

// ------------------------------------------------------------------
// Run header
// ------------------------------------------------------------------

unsigned
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** Optimized and unsanitized: only such builds give comparable
 *  timings. */
bool
comparableBuild()
{
    bool ok = true;
#if !defined(__OPTIMIZE__)
    ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    ok = false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    ok = false;
#endif
#endif
    const std::string flags = PERF_CXX_FLAGS;
    if (flags.find("-fsanitize") != std::string::npos ||
        flags.find("-O0") != std::string::npos)
        ok = false;
    return ok;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string ledger, spans, rev = "unknown", srcDigest = "unknown";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload swim256|hotmap32|checked_sweep "
                 "--seed N --seconds S --trace 0|1 [--ledger FILE] "
                 "[--spans FILE] [--rev REV] [--src-digest HEX]\n",
                 argv0);
    std::exit(2);
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    if (*s < '0' || *s > '9')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0';
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_secs = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed" && parseUnsigned(v, n)) {
            o.seed = n;
            have_seed = true;
        } else if (a == "--seconds" && parseUnsigned(v, n) && n > 0 &&
                   n <= 3600) {
            o.seconds = static_cast<double>(n);
            have_secs = true;
        } else if (a == "--trace" && parseUnsigned(v, n) && n <= 1) {
            o.trace = n == 1;
            have_trace = true;
        } else if (a == "--ledger") {
            o.ledger = v;
        } else if (a == "--spans") {
            o.spans = v;
        } else if (a == "--rev") {
            o.rev = v;
        } else if (a == "--src-digest") {
            o.srcDigest = v;
        } else {
            usage(argv[0]);
        }
    }
    if (o.workload.empty() || !have_seed || !have_secs || !have_trace)
        usage(argv[0]);
    return o;
}

/** Hand freed heap back to the kernel and restart the resident
 *  high-water mark, so the next repetition's peak is its own rather
 *  than a leftover of the one before. */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident high-water mark since the last resetPeakRss() (the
 *  lifetime peak where the kernel cannot reset it). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0;
    while (status >> key) {
        if (key == "VmHWM:" && status >> kib)
            return kib / 1024.0;
        status.ignore(4096, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Runs attempted and failed; every failure is reported on stderr. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const CellRun &c, const std::string &label)
    {
        ++attempted;
        if (!c.failure.empty())
            fail(label + ": " + c.failure);
    }

    void
    fail(const std::string &what)
    {
        ++failed;
        std::fprintf(stderr, "FAIL %s\n", what.c_str());
    }
};

/** The simulated outcome of one repetition, summed over its cells. */
struct Outcome {
    std::uint64_t events = 0, commits = 0, violations = 0, memory = 0;
    Tick cycles = 0;
    Distribution latency;

    explicit Outcome(const Rep &rep)
    {
        for (const CellRun &c : rep.cells) {
            events += c.events;
            commits += c.commits;
            violations += c.violations;
            cycles += c.cycles;
            latency.merge(c.latency);
            memory = memory * 0x100000001b3ull ^ c.memory;
        }
    }
};

/** Median over @p reps (plain or traced ones) of @p f. */
template <typename F>
double
medianOver(const std::vector<Rep> &reps, bool traced, F f)
{
    std::vector<double> v;
    for (const Rep &rep : reps)
        if (rep.traced == traced)
            v.push_back(f(rep));
    return median(v);
}

double
plainWall(const std::vector<Rep> &reps)
{
    return medianOver(reps, false, [](const Rep &r) { return r.wall(); });
}

std::vector<Metric>
endToEndMetrics(const std::vector<Rep> &reps)
{
    const Outcome o(reps[0]);
    const double wall = plainWall(reps);
    return {
        {"wall_s", wall, "s"},
        {"events_per_s", ratio(o.events, wall), "events/s"},
        {"setup_s",
         medianOver(reps, false,
                    [](const Rep &r) { return r.sum(&CellRun::setupS); }),
         "s"},
        {"peak_rss_mb",
         medianOver(reps, false, [](const Rep &r) { return r.peakRssMb; }),
         "MiB"},
        {"sim_cycles", static_cast<double>(o.cycles), "cycles"},
        {"commit_latency_p50_cycles", o.latency.percentile(50), "cycles"},
        {"commit_latency_p99_cycles", o.latency.percentile(99), "cycles"},
        {"abort_rate", ratio(o.violations, o.commits + o.violations),
         "ratio"},
    };
}

/** Figures of the traced-mode side-runs (0 where one does not
 *  apply to the workload). */
struct SideRuns {
    double obsOverhead = 0;
    double invariantsOverhead = 0;
    double pdesWallRatio = 0, pdesPhases = 0, pdesEventsPerPhase = 0;
};

/** A side-run that must reproduce @p ref's fingerprint. */
void
expectSame(CellRun &run, const CellRun &ref, const char *what)
{
    if (run.failure.empty() && run.fingerprint() != ref.fingerprint())
        run.failure = what;
}

SideRuns
runSideRuns(const BenchWorkload &w, const std::vector<Rep> &reps,
            SweepRunner &runner, unsigned nproc, Tally &tally)
{
    SideRuns s;
    const Cell &first = w.cells[0];

    // Observability armed vs off on one solo run of the first cell:
    // purely observational, so the fingerprint must not move.
    Cell armed = first;
    armed.cfg.trace.metricsEpoch = 1000;
    armed.cfg.trace.contentionTopK = 16;
    const CellRun obsOff = runCell(first, false);
    CellRun obsOn = runCell(armed, false);
    expectSame(obsOn, obsOff, "armed observability changed the run");
    tally.add(obsOff, first.label + " (obs off)");
    tally.add(obsOn, first.label + " (obs armed)");
    s.obsOverhead = ratio(obsOn.runS(), obsOff.runS()) - 1;

    // The invariant checker off vs on, where it is armed: it is
    // observational too.
    if (first.cfg.check.invariants) {
        std::vector<Cell> off = w.cells;
        for (Cell &c : off)
            c.cfg.check.invariants = false;
        Rep offRep = runSweep(off, runner, false);
        for (std::size_t i = 0; i < off.size(); ++i) {
            expectSame(offRep.cells[i], reps[0].cells[i],
                       "the invariant checker changed the run");
            tally.add(offRep.cells[i], off[i].label + " (invariants off)");
        }
        const double on = medianOver(reps, false, [](const Rep &r) {
            return r.sum(&CellRun::runS);
        });
        s.invariantsOverhead = ratio(on, offRep.sum(&CellRun::runS)) - 1;
    }

    // PDES: 4 domains at jobs=1 and jobs=N must agree. PDES needs
    // interleaved homes, so its reference is a serial-engine run with
    // interleaved homes too.
    if (w.pdesProbe) {
        Cell pdes = first;
        pdes.cfg.homePolicy = HomePolicy::Interleave;
        const CellRun serial = runCell(pdes, false);
        pdes.cfg.pdes.domains = 4;
        pdes.cfg.pdes.jobs = 1;
        const CellRun one = runCell(pdes, false);
        pdes.cfg.pdes.jobs = std::min(4u, nproc);
        CellRun many = runCell(pdes, false);
        expectSame(many, one, "PDES jobs=N differs from jobs=1");
        tally.add(serial, pdes.label + " (serial, interleaved homes)");
        tally.add(one, pdes.label + " (PDES jobs=1)");
        tally.add(many, pdes.label + " (PDES jobs=" +
                            std::to_string(pdes.cfg.pdes.jobs) + ")");
        s.pdesWallRatio = ratio(many.runS(), serial.runS());
        s.pdesPhases = static_cast<double>(many.pdesPhases);
        s.pdesEventsPerPhase = ratio(many.events, many.pdesPhases);
    }
    return s;
}

std::vector<Metric>
layerMetrics(const BenchWorkload &w, const std::vector<Rep> &reps,
             const SideRuns &side, const std::vector<Metric> &probes)
{
    // Counts are deterministic: the first traced repetition's serve.
    const Rep &tr = *std::find_if(reps.begin(), reps.end(),
                                  [](const Rep &r) { return r.traced; });
    const Outcome o(tr);
    std::map<std::string, double> k;
    double arenaPeak = 0;
    Distribution occupancy;
    for (const CellRun &c : tr.cells) {
        for (const auto &[name, v] : c.counts)
            k[name] += v;
        arenaPeak = std::max(arenaPeak, c.arenaPeakMb);
        occupancy.merge(c.occupancy);
    }
    auto traced = [&reps](double (CellRun::*f)() const) {
        return medianOver(reps, true, [f](const Rep &r) { return r.sum(f); });
    };
    auto probe = [&probes](const std::string &name) {
        for (const Metric &m : probes)
            if (m.name == name)
                return m;
        return Metric{name, 0.0, "?"};
    };
    std::vector<double> jobTimes;
    for (const Rep &rep : reps)
        if (rep.traced)
            for (const CellRun &c : rep.cells)
                jobTimes.push_back(c.jobS());
    const double efficiency = medianOver(reps, true, [&w](const Rep &r) {
        return ratio(r.sum(&CellRun::jobS), w.jobs * r.makespan());
    });
    const double time = k["bd.useful"] + k["bd.miss"] + k["bd.commit"] +
                        k["bd.idle"] + k["bd.violation"];
    const double commits = k["proc.commits"], violations =
                                                  k["proc.violations"];

    std::vector<Metric> m = {
        {"workload.make_s", traced(&CellRun::makeS), "s"},
        {"core.construct_s", traced(&CellRun::constructS), "s"},
        {"core.arena_peak_mb", arenaPeak, "MiB"},
        {"core.sweep_job_s_p50", median(jobTimes), "s"},
        {"core.sweep_efficiency", efficiency, "ratio"},
        {"mem.attach_s", traced(&CellRun::attachS), "s"},
        {"core.run_s", traced(&CellRun::runS), "s"},
        {"sim.events", static_cast<double>(o.events), "count"},
        {"sim.events_per_kcycle", ratio(1000.0 * o.events, o.cycles),
         "events/kcycle"},
        probe("sim.kernel_events_per_s"),
        {"sim.pdes_wall_ratio", side.pdesWallRatio, "ratio"},
        {"sim.pdes_phases", side.pdesPhases, "count"},
        {"sim.pdes_events_per_phase", side.pdesEventsPerPhase,
         "events/phase"},
        probe("sim.pdes_barrier_us"),
        {"proc.commits", commits, "count"},
        {"proc.violations", violations, "count"},
        {"proc.commit_success_ratio", ratio(commits, commits + violations),
         "ratio"},
        {"proc.overflows", k["proc.overflows"], "count"},
        {"proc.useful_frac", ratio(k["bd.useful"], time), "ratio"},
        {"proc.miss_frac", ratio(k["bd.miss"], time), "ratio"},
        {"proc.commit_frac", ratio(k["bd.commit"], time), "ratio"},
        {"proc.idle_frac", ratio(k["bd.idle"], time), "ratio"},
        {"proc.violation_frac", ratio(k["bd.violation"], time), "ratio"},
        {"proc.tids_issued", k["proc.tids_issued"], "count"},
        {"cache.loads", k["cache.loads"], "count"},
        {"cache.stores", k["cache.stores"], "count"},
        {"cache.l1_hit_ratio",
         ratio(k["cache.l1_hits"], k["cache.loads"] + k["cache.stores"]),
         "ratio"},
        {"cache.misses", k["cache.misses"], "count"},
        {"cache.dirty_evictions", k["cache.dirty_evictions"], "count"},
        probe("cache.load_hit_ns"),
        probe("cache.store_ns"),
    };
    for (const char *name :
         {"directory.loads_served", "directory.loads_stalled",
          "directory.commits_served", "directory.skips_received",
          "directory.marks_received", "directory.probes_deferred",
          "directory.invalidations_sent", "directory.writebacks_dropped"})
        m.push_back({name, k[name], "count"});
    const std::vector<Metric> rest = {
        {"directory.busy_cycles", k["directory.busy_cycles"], "cycles"},
        {"directory.occupancy_p50_cycles", occupancy.percentile(50),
         "cycles"},
        probe("directory.commit_service_ns"),
        {"noc.messages", k["noc.messages"], "count"},
        {"noc.bytes", k["noc.bytes"], "bytes"},
        {"noc.hops", k["noc.hops"], "count"},
        {"noc.multicast_nic_events", k["noc.multicast_nic_events"], "count"},
        probe("noc.mesh_send_ns"),
        probe("noc.tree_mcast_ns"),
        {"check.verify_s", traced(&CellRun::verifyS), "s"},
        {"check.invariants_overhead_frac", side.invariantsOverhead, "ratio"},
        {"check.serial_txns_replayed", k["check.serial_txns_replayed"],
         "count"},
        {"check.invariant_checks", k["check.invariant_checks"], "count"},
        {"obs.armed_overhead_frac", side.obsOverhead, "ratio"},
        {"trace.overhead_frac",
         ratio(medianOver(reps, true, [](const Rep &r) { return r.wall(); }),
               plainWall(reps)) - 1,
         "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

std::string
runHeader(const Options &opt, unsigned nproc, unsigned jobs,
          bool comparable)
{
#ifdef TCC_MUTATE
    const bool mutate = true;
#else
    const bool mutate = false;
#endif
    return "{\"git_rev\": \"" + jsonEscape(opt.rev) +
           "\", \"src_digest\": \"" + jsonEscape(opt.srcDigest) +
           "\", \"nproc\": " + std::to_string(nproc) +
           ", \"jobs\": " + std::to_string(jobs) +
           ", \"build_type\": \"" + jsonEscape(PERF_BUILD_TYPE) +
           "\", \"cxx_flags\": \"" + jsonEscape(PERF_CXX_FLAGS) +
           "\", \"compiler\": \"" + jsonEscape(PERF_COMPILER) +
           "\", \"tcc_mutate\": " + (mutate ? "true" : "false") +
           ", \"comparable\": " + (comparable ? "true" : "false") +
           ", \"workload\": \"" + jsonEscape(opt.workload) +
           "\", \"seed\": " + std::to_string(opt.seed) +
           ", \"seconds\": " + number(opt.seconds) +
           ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::printf("run_fail_rate %.6f ratio (%llu of %llu runs failed)\n",
                ratio(tally.failed, tally.attempted),
                (unsigned long long)tally.failed,
                (unsigned long long)tally.attempted);
    for (const Metric &m : metrics)
        std::printf("%-34s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string line = std::string("{\"correct\": ") +
                       (tally.failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    // A fixed mmap threshold (glibc otherwise raises it as large blocks
    // are freed) gives every arena chunk back to the kernel when its
    // System is destroyed, so each repetition sees the allocator as a
    // fresh process does and its resident peak is its own footprint,
    // not heap left behind by the repetitions before it.
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    const Options opt = parseArgs(argc, argv);
    const unsigned nproc = onlineCpus();
    BenchWorkload w;
    if (!makeBenchWorkload(opt.workload, opt.seed, nproc, w)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        usage(argv[0]);
    }
    const bool comparable = comparableBuild();
    const std::string header = runHeader(opt, nproc, w.jobs, comparable);
    std::printf("header %s\n", header.c_str());
    if (!comparable)
        std::fprintf(stderr, "warning: sanitized or unoptimized build; "
                             "these figures are NOT comparable\n");
    std::fflush(stdout);

    // Plain repetitions (traced: alternating with traced ones) until
    // the measuring time is spent.
    SweepRunner runner(w.jobs);
    std::vector<Rep> reps;
    const double t0 = now();
    do {
        resetPeakRss();
        reps.push_back(runSweep(w.cells, runner, false));
        reps.back().peakRssMb = peakRssMb();
        if (opt.trace)
            reps.push_back(runSweep(w.cells, runner, true));
    } while (now() - t0 < opt.seconds);

    // Every repetition must reproduce the first, cell by cell, and
    // every earlier invocation of this (workload, seed).
    for (Rep &rep : reps)
        for (std::size_t i = 0; i < rep.cells.size(); ++i)
            expectSame(rep.cells[i], reps[0].cells[i],
                       "fingerprint differs between repetitions");
    checkLedger(opt.ledger, opt.workload, opt.seed, reps);

    Tally tally;
    for (const Rep &rep : reps)
        for (std::size_t i = 0; i < rep.cells.size(); ++i)
            tally.add(rep.cells[i], w.cells[i].label);

    const Outcome o(reps[0]);
    std::printf("fingerprint %s seed=%llu sim_cycles=%llu commits=%llu "
                "violations=%llu memory=%016llx\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)o.cycles, (unsigned long long)o.commits,
                (unsigned long long)o.violations,
                (unsigned long long)o.memory);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = endToEndMetrics(reps);
    } else {
        const SideRuns side = runSideRuns(w, reps, runner, nproc, tally);
        std::vector<std::string> probeErrors;
        const auto probes =
            perfbench::runLayerProbes(std::min(4u, nproc), probeErrors);
        ++tally.attempted; // the probe suite counts as one run
        if (!probeErrors.empty())
            tally.fail(probeErrors.front());
        metrics = layerMetrics(w, reps, side, probes);

        const auto spans = collectSpans(reps);
        printSelfTimes(spans);
        if (!opt.spans.empty() && !writeSpans(opt.spans, header, spans))
            std::fprintf(stderr, "cannot write spans to %s\n",
                         opt.spans.c_str());
    }
    printResult(tally, metrics);
    if (tally.failed != 0)
        return 1;
    return comparable ? 0 : 3;
}
