#include "exec/parallel_runner.hh"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>

#include "stats/accumulator.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace sbn {

namespace {

std::atomic<unsigned> g_default_threads_override{0};

unsigned
threadsFromEnvironment()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("SBN_THREADS");
        if (env == nullptr)
            return 1u;
        const unsigned parsed = parseThreadsSpec(env, "SBN_THREADS");
        return parsed != 0 ? parsed : ThreadPool::hardwareThreads();
    }();
    return cached;
}

} // namespace

unsigned
parseThreadsSpec(const char *spec, const char *source)
{
    if (spec == nullptr)
        sbn_fatal(source, ": null thread-count spec");

    const char *cursor = spec;
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (*cursor == '\0')
        sbn_fatal(source, ": empty value (expected a thread count)");

    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(cursor, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t'))
        ++end;
    if (end == cursor || end == nullptr || *end != '\0')
        sbn_fatal(source, ": '", spec,
                  "' is not a number (expected a decimal thread count)");
    if (errno == ERANGE || parsed > 4096)
        sbn_fatal(source, ": '", spec,
                  "' is out of range (max 4096 worker threads)");
    if (parsed < 0)
        sbn_fatal(source, ": '", spec,
                  "' is negative (expected >= 0; 0 = all hardware "
                  "threads)");
    return static_cast<unsigned>(parsed);
}

unsigned
defaultExecThreads()
{
    const unsigned override_value =
        g_default_threads_override.load(std::memory_order_relaxed);
    return override_value != 0 ? override_value
                               : threadsFromEnvironment();
}

void
setDefaultExecThreads(unsigned threads)
{
    g_default_threads_override.store(threads,
                                     std::memory_order_relaxed);
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads : ThreadPool::hardwareThreads())
{
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_ - 1);
}

ParallelRunner::~ParallelRunner() = default;

void
ParallelRunner::forEachIndex(std::size_t count,
                             const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (threads_ == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Shared fan-out state: workers (pool + calling thread) claim
    // indices from an atomic cursor; the calling thread then waits for
    // the posted drainers to retire.
    struct FanOut
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::mutex mutex;
        std::condition_variable done;
        std::size_t pending = 0;
        std::exception_ptr error;
    } state;

    auto drain = [&] {
        while (!state.failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                state.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state.mutex);
                if (!state.error)
                    state.error = std::current_exception();
                state.failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const std::size_t helpers =
        std::min<std::size_t>(threads_ - 1, count - 1);
    state.pending = helpers;
    for (std::size_t w = 0; w < helpers; ++w) {
        pool_->post([&] {
            drain();
            std::lock_guard<std::mutex> lock(state.mutex);
            if (--state.pending == 0)
                state.done.notify_one();
        });
    }

    drain();

    std::unique_lock<std::mutex> lock(state.mutex);
    state.done.wait(lock, [&] { return state.pending == 0; });
    if (state.error)
        std::rethrow_exception(state.error);
}

Estimate
ParallelRunner::runReplications(
    const std::function<double(std::uint64_t)> &experiment,
    unsigned replications, std::uint64_t master_seed, double level)
{
    sbn_assert(replications >= 1, "need at least one replication");

    // Derive every replication seed up front, in the exact stream
    // order the serial path uses; the parallel phase then only maps
    // seed[i] -> value[i], and the reduction below runs in index
    // order. This is what makes results thread-count invariant.
    RandomGenerator seeder(master_seed);
    std::vector<std::uint64_t> seeds(replications);
    for (auto &seed : seeds)
        seed = seeder.deriveSeed();

    const std::vector<double> values = map<double>(
        replications,
        [&](std::size_t i) { return experiment(seeds[i]); });

    Accumulator acc;
    for (double value : values)
        acc.add(value);

    Estimate e;
    e.mean = acc.mean();
    e.halfWidth =
        replications >= 2 ? acc.confidenceHalfWidth(level) : 0.0;
    e.samples = acc.count();
    return e;
}

ParallelRunner &
sharedParallelRunner(unsigned threads)
{
    // Never destroyed: a forked child (shard worker, death test) that
    // leaves through std::exit would otherwise run the destructors of
    // pools whose threads did not survive fork() and block forever on
    // their condition variable.
    static std::mutex registry_mutex;
    static auto &registry =
        *new std::map<unsigned, std::unique_ptr<ParallelRunner>>();

    const unsigned resolved =
        threads != 0 ? threads : ThreadPool::hardwareThreads();
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto &slot = registry[resolved];
    if (!slot)
        slot = std::make_unique<ParallelRunner>(resolved);
    return *slot;
}

} // namespace sbn
