/**
 * @file
 * SweepRunner: a work-stealing thread pool for running many
 * *independent* simulations concurrently.
 *
 * The simulator's evaluation methodology (Figures 6-9 of the paper,
 * our bench_* drivers and stress sweeps) is embarrassingly parallel:
 * dozens of System instances that share nothing, each fully
 * deterministic on its own event queue. SweepRunner exploits that
 * shape. Every job is a closure; workers pop from the front of their
 * own deque and steal from the back of others', so a worker that
 * drains its share of short runs migrates to help with the long ones
 * (the 64-processor points dominate a sweep's critical path).
 *
 * Determinism contract: a sweep's *results* are a pure function of
 * its configs. Each System is thread-confined to whichever worker
 * runs it (see DESIGN.md section 7), so running jobs concurrently
 * cannot perturb their event ordering, and sweepIndex() returns
 * results in submission order regardless of completion order. A
 * parallel sweep is bit-identical to the serial loop it replaced.
 *
 * jobs == 1 degenerates to exactly the serial loop: submit() runs the
 * closure inline on the calling thread, no worker threads are
 * created.
 */

#ifndef TCC_CORE_SWEEP_HH
#define TCC_CORE_SWEEP_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tcc {

class SweepRunner
{
  public:
    /**
     * @param jobs Worker count; 0 means defaultJobs(). 1 runs every
     *             job inline on the submitting thread.
     */
    explicit SweepRunner(unsigned jobs = 0);

    /** Joins the workers; pending jobs are completed first. */
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Largest worker count a --jobs flag or TCC_JOBS may ask for. */
    static constexpr unsigned kMaxJobs = 1024;

    /**
     * Worker count chosen when the constructor gets jobs == 0: the
     * TCC_JOBS environment variable if it is a plain decimal in
     * [1, kMaxJobs], else std::thread::hardware_concurrency(), else 1.
     */
    static unsigned defaultJobs();

    /** Number of workers this runner executes jobs on (>= 1). */
    unsigned jobs() const { return numJobs; }

    /**
     * Enqueue one job. Jobs must be independent: they may not touch
     * shared mutable state (each should own its System outright).
     * With jobs() == 1 the closure runs before submit() returns.
     */
    void submit(std::function<void()> fn);

    /**
     * Block until every submitted job has finished; the calling
     * thread steals and executes queued jobs while it waits. If any
     * job threw, rethrows the first exception (in submission order of
     * capture) after the queue drains. The runner is reusable after
     * wait() returns.
     */
    void wait();

  private:
    /**
     * Cache-line aligned so two workers' mutexes and deque headers
     * never share a line: each worker's hot pop path touches only its
     * own line, and steals pay one coherence miss instead of
     * ping-ponging a shared one.
     */
    struct alignas(64) Worker {
        std::mutex mtx;
        std::deque<std::function<void()>> queue;
    };

    void workerLoop(unsigned self);
    bool runOneJob(unsigned self);
    bool popJob(unsigned self, std::function<void()> &out);
    void finishJob(std::exception_ptr err);

    unsigned numJobs;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;

    std::mutex stateMtx;
    std::condition_variable stateCv;
    std::size_t pending = 0;   ///< submitted but not yet finished
    std::size_t queued = 0;    ///< submitted but not yet popped
    std::exception_ptr firstError;
    bool shuttingDown = false;
    unsigned nextWorker = 0;   ///< round-robin submission cursor
};

/**
 * Run @p fn(i) for i in [0, n) on @p runner and return the results in
 * index order. T must be default-constructible and movable
 * (RunOutcome and friends are). This is the one-liner the bench
 * drivers use:
 *
 *   auto rows = sweepIndex<Row>(runner, configs.size(),
 *                               [&](std::size_t i) { return runOne(configs[i]); });
 */
template <typename T, typename Fn>
std::vector<T>
sweepIndex(SweepRunner &runner, std::size_t n, Fn fn)
{
    // Each in-flight result gets its own cache line; adjacent jobs
    // finishing on different workers would otherwise false-share one
    // line of the results vector when they store their outcome.
    struct alignas(64) Padded {
        T value{};
    };
    std::vector<Padded> slots(n);
    for (std::size_t i = 0; i < n; ++i)
        runner.submit([&slots, fn, i]() { slots[i].value = fn(i); });
    runner.wait();
    std::vector<T> results;
    results.reserve(n);
    for (auto &s : slots)
        results.push_back(std::move(s.value));
    return results;
}

} // namespace tcc

#endif // TCC_CORE_SWEEP_HH
