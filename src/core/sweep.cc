#include "core/sweep.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace tcc {

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("TCC_JOBS")) {
        const char *end = env + std::strlen(env);
        unsigned n = 0;
        const auto [ptr, ec] = std::from_chars(env, end, n);
        if (ec == std::errc() && ptr == end && n > 0 && n <= kMaxJobs)
            return n;
        warn("ignoring malformed TCC_JOBS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : numJobs(jobs > 0 ? jobs : defaultJobs())
{
    if (numJobs <= 1) {
        numJobs = 1;
        return; // inline mode: no queues, no threads
    }
    workers.reserve(numJobs);
    for (unsigned i = 0; i < numJobs; ++i)
        workers.push_back(std::make_unique<Worker>());
    threads.reserve(numJobs);
    for (unsigned i = 0; i < numJobs; ++i)
        threads.emplace_back([this, i]() { workerLoop(i); });
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lk(stateMtx);
        shuttingDown = true;
    }
    stateCv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
SweepRunner::submit(std::function<void()> fn)
{
    if (numJobs == 1) {
        // Degenerate case: behave exactly like the serial loop this
        // runner replaced, except that errors are still delivered
        // through wait() like in the parallel case.
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lk(stateMtx);
            if (!firstError)
                firstError = std::current_exception();
        }
        return;
    }
    unsigned target;
    {
        std::lock_guard<std::mutex> lk(stateMtx);
        ++pending;
        ++queued;
        target = nextWorker;
        nextWorker = (nextWorker + 1) % numJobs;
    }
    {
        std::lock_guard<std::mutex> lk(workers[target]->mtx);
        workers[target]->queue.push_back(std::move(fn));
    }
    stateCv.notify_all();
}

void
SweepRunner::wait()
{
    if (numJobs > 1) {
        // The submitting thread is an extra worker while it waits: it
        // steals from the back of the per-worker deques (slot index
        // numJobs has no deque of its own).
        for (;;) {
            if (runOneJob(numJobs))
                continue;
            std::unique_lock<std::mutex> lk(stateMtx);
            if (pending == 0)
                break;
            if (queued > 0)
                continue; // a job appeared between pop and lock
            stateCv.wait(lk, [this]() {
                return pending == 0 || queued > 0;
            });
            if (pending == 0)
                break;
        }
    }
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(stateMtx);
        err = firstError;
        firstError = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
SweepRunner::workerLoop(unsigned self)
{
    for (;;) {
        if (runOneJob(self))
            continue;
        std::unique_lock<std::mutex> lk(stateMtx);
        if (shuttingDown && queued == 0)
            return;
        stateCv.wait(lk, [this]() {
            return shuttingDown || queued > 0;
        });
        if (shuttingDown && queued == 0)
            return;
    }
}

bool
SweepRunner::runOneJob(unsigned self)
{
    std::function<void()> job;
    if (!popJob(self, job))
        return false;
    std::exception_ptr err;
    try {
        job();
    } catch (...) {
        err = std::current_exception();
    }
    finishJob(err);
    return true;
}

bool
SweepRunner::popJob(unsigned self, std::function<void()> &out)
{
    // Own queue first, front-out: a worker consumes its round-robin
    // share in submission order.
    if (self < workers.size()) {
        std::lock_guard<std::mutex> lk(workers[self]->mtx);
        if (!workers[self]->queue.empty()) {
            out = std::move(workers[self]->queue.front());
            workers[self]->queue.pop_front();
            std::lock_guard<std::mutex> slk(stateMtx);
            --queued;
            return true;
        }
    }
    // Then steal from the back of everyone else's, so a drained
    // worker picks up the jobs its victim would reach last.
    for (unsigned off = 1; off <= numJobs; ++off) {
        const unsigned victim = (self + off) % numJobs;
        if (victim == self)
            continue;
        std::lock_guard<std::mutex> lk(workers[victim]->mtx);
        if (workers[victim]->queue.empty())
            continue;
        out = std::move(workers[victim]->queue.back());
        workers[victim]->queue.pop_back();
        std::lock_guard<std::mutex> slk(stateMtx);
        --queued;
        return true;
    }
    return false;
}

void
SweepRunner::finishJob(std::exception_ptr err)
{
    {
        std::lock_guard<std::mutex> lk(stateMtx);
        if (err && !firstError)
            firstError = err;
        --pending;
    }
    stateCv.notify_all();
}

} // namespace tcc
