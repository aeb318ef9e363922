/**
 * @file
 * Fixed-size worker thread pool for the execution layer.
 *
 * The pool is deliberately minimal: a shared FIFO of type-erased
 * tasks drained by a fixed set of workers. Scheduling order carries no
 * semantic weight anywhere in the library - every parallel construct
 * built on top (ParallelRunner) derives its inputs up front and
 * collects results by index, so task interleaving never changes
 * results.
 */

#ifndef SBN_EXEC_THREAD_POOL_HH
#define SBN_EXEC_THREAD_POOL_HH

#include <sys/types.h>

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sbn {

/**
 * Fixed set of worker threads draining a shared task queue.
 *
 * Destruction drains every task already posted, then joins the
 * workers; post() after shutdown began is a programming error.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers. @pre threads >= 1 */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Runs all posted tasks to completion, then joins the workers. */
    ~ThreadPool();

    /** Enqueue a task for execution on some worker. */
    void post(std::function<void()> task);

    /** Hardware concurrency, never reported as less than 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    pid_t ownerPid_; //!< fork detection; see ~ThreadPool()
};

} // namespace sbn

#endif // SBN_EXEC_THREAD_POOL_HH
