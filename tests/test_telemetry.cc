/**
 * @file
 * Tests for the run-telemetry registry (src/telemetry): enable/reset
 * semantics, dump format, and the headline determinism contract -
 * the same config and seed produce byte-identical counter dumps at
 * any thread count, because kernels flush locally-accumulated counts
 * once per run and adaptive-round decisions happen in the serial
 * finalization phase.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/experiment.hh"
#include "exec/thread_pool.hh"
#include "telemetry/telemetry.hh"
#include "util/flatjson.hh"

namespace sbn {
namespace {

/** RAII: leave telemetry disabled and zeroed however a test exits. */
struct TelemetryGuard
{
    TelemetryGuard()
    {
        setTelemetryEnabled(false);
        telemetryReset();
    }
    ~TelemetryGuard()
    {
        setTelemetryEnabled(false);
        telemetryReset();
    }
};

TEST(Telemetry, NamesAreCanonicalAndDistinct)
{
    std::set<std::string> seen;
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i) {
        const std::string name =
            telemetryCounterName(static_cast<TelemetryCounter>(i));
        EXPECT_EQ(name.rfind("ctr.", 0), 0u) << name;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate counter name " << name;
    }
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        const std::string name =
            telemetryTimerName(static_cast<TelemetryTimer>(i));
        EXPECT_EQ(name.rfind("tmr.", 0), 0u) << name;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate timer name " << name;
    }
}

TEST(Telemetry, DisabledAddsAreDropped)
{
    TelemetryGuard guard;
    EXPECT_FALSE(telemetryEnabled());
    telemetryAdd(TelemetryCounter::SimRuns, 5);
    const TelemetrySnapshot snap = telemetrySnapshot();
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        EXPECT_EQ(snap.counters[i], 0u);
}

TEST(Telemetry, CountersAccumulateAndResetZeroes)
{
    TelemetryGuard guard;
    setTelemetryEnabled(true);
    telemetryAdd(TelemetryCounter::SimRuns, 2);
    telemetryAdd(TelemetryCounter::SimRuns, 3);
    telemetryAdd(TelemetryCounter::ShardRecordsWritten, 1);
    TelemetrySnapshot snap = telemetrySnapshot();
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  TelemetryCounter::SimRuns)],
              5u);
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  TelemetryCounter::ShardRecordsWritten)],
              1u);

    telemetryReset();
    snap = telemetrySnapshot();
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        EXPECT_EQ(snap.counters[i], 0u);
}

TEST(Telemetry, DumpIsFlatJsonWithEveryCounterKey)
{
    TelemetryGuard guard;
    setTelemetryEnabled(true);
    telemetryAdd(TelemetryCounter::SimThinkDraws, 7);
    telemetryAddTimer(TelemetryTimer::SimRun, 1234);

    const TelemetrySnapshot snap = telemetrySnapshot();
    const std::string with_timers =
        formatTelemetrySnapshot(snap, /*include_timers=*/true);
    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(with_timers, fields, error))
        << error;
    EXPECT_EQ(fields.at("type").text, "sbn.telemetry.v1");
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i) {
        const char *name =
            telemetryCounterName(static_cast<TelemetryCounter>(i));
        ASSERT_TRUE(fields.count(name)) << "missing key " << name;
    }
    EXPECT_EQ(std::stod(fields
                            .at(std::string(telemetryCounterName(
                                TelemetryCounter::SimThinkDraws)))
                            .text),
              7.0);
    const std::string run_ns =
        std::string(telemetryTimerName(TelemetryTimer::SimRun)) +
        "_ns";
    EXPECT_TRUE(fields.count(run_ns));

    // Counters-only form: timer keys absent, counter keys intact.
    const std::string counters_only =
        formatTelemetrySnapshot(snap, /*include_timers=*/false);
    FlatObject counters;
    ASSERT_TRUE(parseFlatObject(counters_only, counters, error))
        << error;
    EXPECT_FALSE(counters.count(run_ns));
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        EXPECT_TRUE(counters.count(
            telemetryCounterName(static_cast<TelemetryCounter>(i))));
}

/** A simulation run with telemetry disabled must leave the registry
 *  untouched (the kernels' flush is gated, not merely zero). */
TEST(Telemetry, DisabledSimulationLeavesRegistryUntouched)
{
    TelemetryGuard guard;
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 2000;
    (void)runOnce(cfg);
    const TelemetrySnapshot snap = telemetrySnapshot();
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        EXPECT_EQ(snap.counters[i], 0u);
}

/** Run one adaptive estimate at @p threads and return the
 *  counters-only dump it produced. */
std::string
adaptiveCounterDump(unsigned threads)
{
    telemetryReset();
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 4;
    cfg.requestProbability = 0.7;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 5000;
    cfg.seed = 20260808;

    PrecisionTarget target;
    target.relative = 0.002; // tight: forces extra adaptive rounds
    RoundSchedule schedule;
    schedule.initial = 4;
    schedule.growth = 2.0;
    schedule.cap = 16;
    (void)replicateToPrecision(
        cfg, target, [](const Metrics &m) { return m.ebw; }, schedule,
        threads);
    return formatTelemetrySnapshot(telemetrySnapshot(),
                                   /*include_timers=*/false);
}

/**
 * The determinism headline: same config + seed => byte-identical
 * counter dumps at 1, 4, and all hardware threads. Timer keys are
 * wall time and excluded by the counters-only format.
 */
TEST(Telemetry, CounterDumpByteIdenticalAcrossThreadCounts)
{
    TelemetryGuard guard;
    setTelemetryEnabled(true);

    const std::string serial = adaptiveCounterDump(1);

    // Sanity: the serial run actually moved the kernel counters.
    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(serial, fields, error)) << error;
    EXPECT_GT(std::stod(fields.at(std::string(telemetryCounterName(
                      TelemetryCounter::SimRuns))).text),
              0.0);
    EXPECT_GT(std::stod(fields.at(std::string(telemetryCounterName(
                      TelemetryCounter::SimRequestsCompleted))).text),
              0.0);

    for (const unsigned threads :
         {4u, ThreadPool::hardwareThreads()}) {
        const std::string parallel = adaptiveCounterDump(threads);
        EXPECT_EQ(parallel, serial) << threads << " threads";
    }
}

/** FastStat flushes through the same registry: its counter totals are
 *  thread-invariant too (and independent replications again produce
 *  identical dumps). */
TEST(Telemetry, FastStatCounterDumpRepeatsExactly)
{
    TelemetryGuard guard;
    setTelemetryEnabled(true);

    SystemConfig cfg;
    cfg.kernel = KernelKind::FastStat;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 4;
    cfg.requestProbability = 0.7;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 5000;
    cfg.seed = 3;

    telemetryReset();
    (void)runOnce(cfg);
    const std::string first = formatTelemetrySnapshot(
        telemetrySnapshot(), /*include_timers=*/false);

    telemetryReset();
    (void)runOnce(cfg);
    const std::string second = formatTelemetrySnapshot(
        telemetrySnapshot(), /*include_timers=*/false);

    EXPECT_EQ(first, second);
    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(first, fields, error)) << error;
    EXPECT_GT(std::stod(fields.at(std::string(telemetryCounterName(
                      TelemetryCounter::SimThinkDraws))).text),
              0.0);
}

} // namespace
} // namespace sbn
