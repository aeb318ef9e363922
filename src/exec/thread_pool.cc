#include "exec/thread_pool.hh"

#include <unistd.h>

#include <exception>

#include "util/logging.hh"

namespace sbn {

ThreadPool::ThreadPool(unsigned threads) : ownerPid_(getpid())
{
    sbn_assert(threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    // Fork safety: in a forked child (shard --spawn workers, death
    // tests) the worker threads do not exist - only the forking
    // thread survives fork() - and the mutex/condvar state is
    // whatever the parent's threads left mid-flight. Joining the
    // phantom std::thread handles would deadlock, so detach them and
    // skip the join; the parent still owns and joins the real
    // threads. This does not make destruction safe: the members'
    // destructors still run, and destroying a condition variable the
    // vanished workers were waiting on blocks forever. A child must
    // therefore never destroy an inherited pool, which is why the
    // shared runners (sharedParallelRunner) are never destroyed.
    if (getpid() != ownerPid_) {
        for (auto &worker : workers_)
            worker.detach();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sbn_assert(!stopping_, "post on a stopping thread pool");
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        // A raw posted task must not take the worker (and with it the
        // whole process) down: constructs that need failure reporting
        // catch inside the task and propagate to their waiter
        // (ParallelRunner does). Anything escaping to here is logged
        // and dropped so the pool stays usable.
        try {
            task();
        } catch (const std::exception &e) {
            sbn_warn("thread-pool task threw: ", e.what());
        } catch (...) {
            sbn_warn("thread-pool task threw a non-std exception");
        }
    }
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

} // namespace sbn
