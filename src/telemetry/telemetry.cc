#include "telemetry/telemetry.hh"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

const char *const kCounterNames[kTelemetryCounterCount] = {
    "ctr.sim.runs",
    "ctr.sim.heap_events",
    "ctr.sim.calendar_drains",
    "ctr.sim.think_draws",
    "ctr.sim.requests_issued",
    "ctr.sim.requests_completed",
    "ctr.exec.adaptive_rounds_grown",
    "ctr.shard.records_written",
    "ctr.shard.records_merged",
    "ctr.shard.records_deduped",
    "ctr.supervisor.respawns",
    "ctr.supervisor.steals",
    "ctr.supervisor.hang_kills",
};

const char *const kTimerNames[kTelemetryTimerCount] = {
    "tmr.sim.run",
    "tmr.shard.merge",
};

/**
 * Registry of live thread blocks plus the retired totals of exited
 * threads. Construct-on-first-use and deliberately leaked: worker
 * thread_local destructors may run after a static registry would have
 * been destroyed.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<detail::TelemetryBlock *> live;
    std::uint64_t retiredCounters[kTelemetryCounterCount] = {};
    std::uint64_t retiredTimerNs[kTelemetryTimerCount] = {};
    std::uint64_t retiredTimerCount[kTelemetryTimerCount] = {};
};

Registry &
registry()
{
    static Registry *instance = new Registry;
    return *instance;
}

/** Thread-exit hook: merge this thread's block and unregister it. */
struct BlockOwner
{
    detail::TelemetryBlock block;

    BlockOwner()
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.live.push_back(&block);
    }

    ~BlockOwner()
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
            reg.retiredCounters[i] +=
                block.counters[i].load(std::memory_order_relaxed);
        for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
            reg.retiredTimerNs[i] +=
                block.timerNs[i].load(std::memory_order_relaxed);
            reg.retiredTimerCount[i] +=
                block.timerCount[i].load(std::memory_order_relaxed);
        }
        for (auto it = reg.live.begin(); it != reg.live.end(); ++it) {
            if (*it == &block) {
                reg.live.erase(it);
                break;
            }
        }
    }
};

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

namespace detail {

std::atomic<bool> g_telemetryEnabled{false};

TelemetryBlock &
telemetryBlock()
{
    thread_local BlockOwner owner;
    return owner.block;
}

} // namespace detail

const char *
telemetryCounterName(TelemetryCounter counter)
{
    return kCounterNames[static_cast<unsigned>(counter)];
}

const char *
telemetryTimerName(TelemetryTimer timer)
{
    return kTimerNames[static_cast<unsigned>(timer)];
}

void
setTelemetryEnabled(bool enabled)
{
    detail::g_telemetryEnabled.store(enabled,
                                     std::memory_order_relaxed);
}

void
telemetryReset()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        reg.retiredCounters[i] = 0;
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        reg.retiredTimerNs[i] = 0;
        reg.retiredTimerCount[i] = 0;
    }
    for (detail::TelemetryBlock *block : reg.live) {
        for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
            block->counters[i].store(0, std::memory_order_relaxed);
        for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
            block->timerNs[i].store(0, std::memory_order_relaxed);
            block->timerCount[i].store(0, std::memory_order_relaxed);
        }
    }
}

void
telemetryAddTimer(TelemetryTimer timer, std::uint64_t ns)
{
    if (!telemetryEnabled())
        return;
    detail::TelemetryBlock &block = detail::telemetryBlock();
    const auto i = static_cast<unsigned>(timer);
    block.timerNs[i].fetch_add(ns, std::memory_order_relaxed);
    block.timerCount[i].fetch_add(1, std::memory_order_relaxed);
}

TelemetryTimerScope::TelemetryTimerScope(TelemetryTimer timer)
    : timer_(timer), armed_(telemetryEnabled())
{
    if (armed_)
        startNs_ = monotonicNs();
}

TelemetryTimerScope::~TelemetryTimerScope()
{
    if (armed_)
        telemetryAddTimer(timer_, monotonicNs() - startNs_);
}

TelemetrySnapshot
telemetrySnapshot()
{
    TelemetrySnapshot out;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        out.counters[i] = reg.retiredCounters[i];
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        out.timerNs[i] = reg.retiredTimerNs[i];
        out.timerCount[i] = reg.retiredTimerCount[i];
    }
    for (const detail::TelemetryBlock *block : reg.live) {
        for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
            out.counters[i] +=
                block->counters[i].load(std::memory_order_relaxed);
        for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
            out.timerNs[i] +=
                block->timerNs[i].load(std::memory_order_relaxed);
            out.timerCount[i] +=
                block->timerCount[i].load(std::memory_order_relaxed);
        }
    }
    return out;
}

std::string
formatTelemetrySnapshot(const TelemetrySnapshot &snapshot,
                        bool include_timers)
{
    FlatWriter out;
    out.string("type", "sbn.telemetry.v1");
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        out.unsignedInt(kCounterNames[i], snapshot.counters[i]);
    if (include_timers) {
        for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
            const std::string name = kTimerNames[i];
            out.unsignedInt(name + "_ns", snapshot.timerNs[i])
                .unsignedInt(name + "_count", snapshot.timerCount[i]);
        }
    }
    return out.finish();
}

void
writeTelemetryDump(const std::string &path, bool include_timers)
{
    const std::string line =
        formatTelemetrySnapshot(telemetrySnapshot(), include_timers) +
        '\n';
    if (path.empty() || path == "-") {
        std::fputs(line.c_str(), stderr);
        return;
    }
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        sbn_fatal("cannot open telemetry dump file '", path, "'");
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size()
        || std::fclose(file) != 0)
        sbn_fatal("cannot write telemetry dump file '", path, "'");
}

} // namespace sbn
