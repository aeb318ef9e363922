/**
 * @file
 * Basic behavioural tests of the single-bus simulator: closed-form
 * degenerate cases, determinism, measurement identities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/experiment.hh"

namespace sbn {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 8;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 100000;
    return cfg;
}

TEST(SystemBasic, SingleProcessorIsUncontended)
{
    // n = 1: every request takes exactly r+2 cycles -> EBW = 1.
    // Within the cycle, the request is granted at issue, the access
    // starts one bus cycle later and the response is delivered r + 2
    // cycles after issue, in both kernels.
    for (KernelKind kernel : {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (int r : {1, 4, 9}) {
            for (bool buffered : {false, true}) {
                SystemConfig cfg = baseConfig();
                cfg.kernel = kernel;
                cfg.numProcessors = 1;
                cfg.memoryRatio = r;
                cfg.buffered = buffered;
                cfg.collectLatency = true;
                const Metrics m = runOnce(cfg);
                const std::string where =
                    std::string(kernel == KernelKind::FastStat
                                    ? "FastStat"
                                    : "CycleSkip") +
                    " r=" + std::to_string(r) +
                    " buffered=" + std::to_string(buffered);
                EXPECT_NEAR(m.ebw, 1.0, 1e-2) << where;
                EXPECT_NEAR(m.meanWaitCycles, 0.0, 1e-9) << where;
                ASSERT_TRUE(m.latencyWait && m.latencyResidence) << where;
                EXPECT_EQ(m.latencyWait->mean(), 1.0) << where;
                EXPECT_EQ(m.latencyWait->maxSample(), 1.0) << where;
                EXPECT_EQ(m.latencyResidence->mean(), r + 2.0) << where;
                EXPECT_EQ(m.latencyResidence->maxSample(), r + 2.0)
                    << where;
            }
        }
    }
}

TEST(SystemBasic, SingleModuleUnbufferedSerializes)
{
    // m = 1 unbuffered: the module turns around one request per r+2
    // cycles -> EBW = 1 exactly, independent of n.
    for (int n : {2, 4, 8}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = n;
        cfg.numModules = 1;
        const Metrics m = runOnce(cfg);
        EXPECT_NEAR(m.ebw, 1.0, 1e-2) << "n=" << n;
    }
}

TEST(SystemBasic, SingleModuleBufferedPipelines)
{
    // m = 1 buffered: the module works back-to-back -> one service per
    // max(r, 2) bus cycles (bus needs 2 cycles per service), i.e.
    // EBW = (r+2)/max(r, 2) once n >= 2 keeps the queue fed.
    for (int r : {1, 2, 4, 9}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = 6;
        cfg.numModules = 1;
        cfg.memoryRatio = r;
        cfg.buffered = true;
        const Metrics m = runOnce(cfg);
        const double expect =
            (r + 2.0) / std::max(static_cast<double>(r), 2.0);
        EXPECT_NEAR(m.ebw, expect, 0.02) << "r=" << r;
    }
}

TEST(SystemBasic, ZeroRequestProbabilityIsSilent)
{
    SystemConfig cfg = baseConfig();
    cfg.requestProbability = 0.0;
    const Metrics m = runOnce(cfg);
    EXPECT_EQ(m.completedRequests, 0u);
    EXPECT_EQ(m.issuedRequests, 0u);
    EXPECT_DOUBLE_EQ(m.ebw, 0.0);
    EXPECT_DOUBLE_EQ(m.busUtilization, 0.0);
}

TEST(SystemBasic, DeterministicForFixedSeed)
{
    SystemConfig cfg = baseConfig();
    cfg.seed = 12345;
    const Metrics a = runOnce(cfg);
    const Metrics b = runOnce(cfg);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.perProcessorCompletions, b.perProcessorCompletions);
    EXPECT_DOUBLE_EQ(a.ebw, b.ebw);
}

TEST(SystemBasic, SeedsProduceIndependentRuns)
{
    SystemConfig cfg = baseConfig();
    cfg.seed = 1;
    const Metrics a = runOnce(cfg);
    cfg.seed = 2;
    const Metrics b = runOnce(cfg);
    // Same steady state but different trajectories.
    EXPECT_NE(a.completedRequests, b.completedRequests);
    EXPECT_NEAR(a.ebw, b.ebw, 0.1);
}

TEST(SystemBasic, EbwIdentityWithBusUtilization)
{
    // EBW = Pb * (r+2) / 2 up to window boundary effects.
    for (bool buffered : {false, true}) {
        for (auto policy : {ArbitrationPolicy::ProcessorPriority,
                            ArbitrationPolicy::MemoryPriority}) {
            SystemConfig cfg = baseConfig();
            cfg.buffered = buffered;
            cfg.policy = policy;
            const Metrics m = runOnce(cfg);
            EXPECT_NEAR(m.ebw, m.ebwFromBusUtilization,
                        0.01 * m.ebw + 1e-6)
                << "buffered=" << buffered;
        }
    }
}

TEST(SystemBasic, MaxEbwRespected)
{
    for (int r : {1, 2, 8}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = 16;
        cfg.numModules = 16;
        cfg.memoryRatio = r;
        cfg.buffered = true;
        const Metrics m = runOnce(cfg);
        EXPECT_LE(m.ebw, cfg.maxEbw() * 1.005) << "r=" << r;
        EXPECT_LE(m.busUtilization, 1.0 + 1e-12);
    }
}

TEST(SystemBasic, SaturatesWithAmpleParallelism)
{
    // Conclusion: max EBW (r+2)/2 attainable when r < min(n, m).
    SystemConfig cfg = baseConfig();
    cfg.numProcessors = 12;
    cfg.numModules = 12;
    cfg.memoryRatio = 4;
    const Metrics m = runOnce(cfg);
    EXPECT_GT(m.busUtilization, 0.97);
}

TEST(SystemBasic, WaitTimesNonNegativeAndConsistent)
{
    SystemConfig cfg = baseConfig();
    cfg.numProcessors = 12;
    cfg.numModules = 4;
    const Metrics m = runOnce(cfg);
    EXPECT_GE(m.waitStats.min(), 0.0);
    EXPECT_NEAR(m.meanServiceCycles,
                m.meanWaitCycles + cfg.processorCycle(), 1e-9);
    EXPECT_GT(m.meanWaitCycles, 0.0); // 12 procs on 4 modules queue up
}

TEST(SystemBasic, RoughFairnessAcrossProcessors)
{
    SystemConfig cfg = baseConfig();
    cfg.measureCycles = 200000;
    const Metrics m = runOnce(cfg);
    const double mean = static_cast<double>(m.completedRequests) /
                        cfg.numProcessors;
    for (auto c : m.perProcessorCompletions)
        EXPECT_NEAR(static_cast<double>(c), mean, 0.1 * mean);
}

TEST(SystemBasic, IssuedMatchesCompletedUpToInFlight)
{
    SystemConfig cfg = baseConfig();
    const Metrics m = runOnce(cfg);
    // Every issued request either completed or is one of <= n
    // in-flight ones (plus <= n issued before the window started).
    const auto slack = static_cast<std::uint64_t>(cfg.numProcessors);
    EXPECT_LE(m.completedRequests, m.issuedRequests + slack);
    EXPECT_LE(m.issuedRequests, m.completedRequests + slack);
}

TEST(SystemBasic, ProcessorEfficiencyDefinition)
{
    SystemConfig cfg = baseConfig();
    const Metrics m = runOnce(cfg);
    EXPECT_NEAR(m.processorEfficiency, m.ebw / cfg.numProcessors, 1e-12);
    EXPECT_LE(m.processorEfficiency, 1.0 + 1e-9);
}

TEST(SystemBasic, RunIsSingleShot)
{
    SystemConfig cfg = baseConfig();
    cfg.measureCycles = 1000;
    SingleBusSystem system(cfg);
    (void)system.run();
    EXPECT_DEATH((void)system.run(), "run may only be called once");
}

} // namespace
} // namespace sbn
