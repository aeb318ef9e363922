/**
 * @file
 * Tests for the experiment runners (replication intervals over
 * simulator metrics).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "estimate_util.hh"

namespace sbn {
namespace {

SystemConfig
quickConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 8;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 30000;
    return cfg;
}

TEST(Experiment, ReplicateEbwIsDeterministic)
{
    const auto a = replicateEbw(quickConfig(), 4);
    const auto b = replicateEbw(quickConfig(), 4);
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.halfWidth, b.halfWidth);
    EXPECT_EQ(a.samples, 4u);
}

TEST(Experiment, ReplicationIntervalIsTight)
{
    // Long windows and several replications must produce a small CI
    // relative to the mean.
    const auto est = replicateEbw(quickConfig(), 5);
    EXPECT_GT(est.mean, 1.0);
    EXPECT_LT(est.halfWidth / est.mean, 0.03);
}

TEST(Experiment, SingleRunFallsInsideInterval)
{
    const auto est = replicateEbw(quickConfig(), 6);
    SystemConfig cfg = quickConfig();
    cfg.seed = 777;
    EXPECT_TRUE(covers(est, runEbw(cfg), 0.05 * est.mean));
}

TEST(Experiment, ArbitraryMetricExtractor)
{
    const auto est =
        replicate(quickConfig(), 3,
                  [](const Metrics &m) { return m.busUtilization; });
    EXPECT_GT(est.mean, 0.5);
    EXPECT_LE(est.mean, 1.0);
}

TEST(Experiment, ReplicateToPrecisionBitIdenticalAcrossThreads)
{
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;

    const auto serial =
        replicateEbwToPrecision(quickConfig(), target, schedule, 1);
    EXPECT_GE(serial.estimate.samples, 2u);
    EXPECT_LE(serial.estimate.samples, 8u);

    for (unsigned threads : {2u, 8u}) {
        const auto parallel = replicateEbwToPrecision(
            quickConfig(), target, schedule, threads);
        EXPECT_EQ(parallel.estimate.mean, serial.estimate.mean)
            << threads << " threads";
        EXPECT_EQ(parallel.estimate.halfWidth,
                  serial.estimate.halfWidth)
            << threads << " threads";
        EXPECT_EQ(parallel.estimate.samples, serial.estimate.samples);
        EXPECT_EQ(parallel.rounds, serial.rounds);
        EXPECT_EQ(parallel.converged, serial.converged);
    }
}

TEST(Experiment, ReplicateToPrecisionMatchesFixedCountReplicate)
{
    // The adaptive run must reproduce replicate() bit for bit at the
    // replication count it ends with (same seed-derivation stream).
    PrecisionTarget target;
    target.relative = 0.05;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;

    const auto adaptive =
        replicateEbwToPrecision(quickConfig(), target, schedule, 1);
    const auto fixed = replicateEbw(
        quickConfig(),
        static_cast<unsigned>(adaptive.estimate.samples), 1);
    EXPECT_EQ(adaptive.estimate.mean, fixed.mean);
    EXPECT_EQ(adaptive.estimate.halfWidth, fixed.halfWidth);
    EXPECT_EQ(adaptive.estimate.samples, fixed.samples);
}

TEST(Experiment, RunOnceMatchesSystemRun)
{
    SystemConfig cfg = quickConfig();
    const Metrics a = runOnce(cfg);
    SingleBusSystem system(cfg);
    const Metrics b = system.run();
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_DOUBLE_EQ(a.ebw, b.ebw);
    EXPECT_DOUBLE_EQ(runEbw(cfg), a.ebw);
}

} // namespace
} // namespace sbn
