/**
 * @file
 * Latency-distribution tests (config.collectLatency): passivity of
 * the collection, determinism of the flat-JSON render across thread
 * counts and shard/serial merge order, internal consistency of the
 * wait/residence histograms against the scalar wait statistics, the
 * record-carried quantile summary, and a golden pin of every bin.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "exec/parallel_runner.hh"
#include "golden_util.hh"
#include "stats/accumulator.hh"

namespace sbn {
namespace {

/** A saturated config: demand far beyond what the bus can serve, so
 *  waits are long and the distribution has a pronounced right tail. */
SystemConfig
saturatedConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 16;
    cfg.numModules = 4;
    cfg.memoryRatio = 8;
    cfg.requestProbability = 0.9;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 30000;
    cfg.collectLatency = true;
    cfg.seed = 41;
    return cfg;
}

/** Per-replication configs with deterministically distinct seeds. */
std::vector<SystemConfig>
replicationConfigs(const SystemConfig &base, std::size_t count)
{
    std::vector<SystemConfig> configs(count, base);
    for (std::size_t i = 0; i < count; ++i)
        configs[i].seed = base.seed + 1000 * (i + 1);
    return configs;
}

TEST(Latency, CollectionIsPassive)
{
    // Enabling collectLatency must not perturb the simulation: every
    // other metric is bit-identical with and without it, in both
    // kernels.
    for (KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        SystemConfig off = saturatedConfig();
        off.kernel = kernel;
        off.collectLatency = false;
        SystemConfig on = off;
        on.collectLatency = true;

        const Metrics a = runOnce(off);
        const Metrics b = runOnce(on);
        EXPECT_EQ(a.ebw, b.ebw);
        EXPECT_EQ(a.completedRequests, b.completedRequests);
        EXPECT_EQ(a.meanWaitCycles, b.meanWaitCycles);
        EXPECT_EQ(a.meanServiceCycles, b.meanServiceCycles);
        EXPECT_FALSE(a.latencyWait.has_value());
        ASSERT_TRUE(b.latencyWait.has_value());
        ASSERT_TRUE(b.latencyResidence.has_value());
        EXPECT_GT(b.latencyWait->count(), 0u);
    }
}

TEST(Latency, ResidenceHistogramMatchesServiceStats)
{
    // Residence samples (issue -> delivery) are the same multiset as
    // the service-time accumulator, so the histogram's exact mean
    // reproduces meanServiceCycles, and the wait histogram (issue ->
    // service start) sits strictly inside it.
    const Metrics m = runOnce(saturatedConfig());
    ASSERT_TRUE(m.latencyResidence.has_value());
    ASSERT_TRUE(m.latencyWait.has_value());
    EXPECT_EQ(m.latencyResidence->count(), m.completedRequests);
    EXPECT_EQ(m.latencyWait->count(), m.completedRequests);
    EXPECT_NEAR(m.latencyResidence->mean(), m.meanServiceCycles,
                1e-9 * m.meanServiceCycles);
    EXPECT_LT(m.latencyWait->mean(), m.latencyResidence->mean());
}

TEST(Latency, FlatJsonByteIdenticalAcrossThreads)
{
    // The acceptance contract: merged latency histograms render
    // byte-identically at 1, 4, and hardware thread counts, and when
    // the replications are split across shards and merged the other
    // way around. Integer cycle samples make the running sum exact,
    // so merge order cannot leak into the bytes.
    const auto configs = replicationConfigs(saturatedConfig(), 8);

    auto mergedRender = [&](unsigned threads) {
        ParallelRunner &runner = sharedParallelRunner(
            threads != 0 ? threads : defaultExecThreads());
        const std::vector<Metrics> runs = runner.map<Metrics>(
            configs.size(),
            [&](std::size_t i) { return runOnce(configs[i]); });
        Histogram wait = makeLatencyHistogram();
        Histogram residence = makeLatencyHistogram();
        for (const Metrics &m : runs) {
            wait.merge(*m.latencyWait);
            residence.merge(*m.latencyResidence);
        }
        return wait.renderFlatJson() + "\n" +
               residence.renderFlatJson();
    };

    const std::string serial = mergedRender(1);
    EXPECT_EQ(mergedRender(4), serial);
    EXPECT_EQ(mergedRender(0), serial); // hardware thread count

    // Shard-style merge: two disjoint halves merged independently,
    // then folded together - the path sharded sweeps take.
    Histogram shardWait[2] = {makeLatencyHistogram(),
                              makeLatencyHistogram()};
    for (std::size_t i = 0; i < configs.size(); ++i)
        shardWait[i % 2].merge(*runOnce(configs[i]).latencyWait);
    shardWait[0].merge(shardWait[1]);
    EXPECT_EQ(shardWait[0].renderFlatJson(),
              serial.substr(0, serial.find('\n')));
}

TEST(Latency, SaturatedWaitQuantilesConsistentWithMean)
{
    // On a saturated config the merged wait distribution must be
    // self-consistent: its exact mean lies within the replication
    // confidence interval of the per-run means, and the right tail
    // dominates (p99 >= mean >= p50, max >= p99).
    const auto configs = replicationConfigs(saturatedConfig(), 8);

    Histogram wait = makeLatencyHistogram();
    Accumulator perRunMeans;
    for (const SystemConfig &cfg : configs) {
        const Metrics m = runOnce(cfg);
        wait.merge(*m.latencyWait);
        perRunMeans.add(m.latencyWait->mean());
    }

    const double mean = wait.mean();
    const double half = perRunMeans.confidenceHalfWidth(0.95);
    EXPECT_NEAR(mean, perRunMeans.mean(), half);

    const double p50 = wait.quantile(0.50);
    const double p99 = wait.quantile(0.99);
    EXPECT_GE(p99, mean);
    EXPECT_GE(mean, p50);
    EXPECT_GE(wait.maxSample(), p99 - 1e-9);
    EXPECT_GT(p99, p50); // a saturated tail is visibly spread out
}

TEST(Latency, PointSampleSummaryMatchesHistograms)
{
    // The record-carried summary is exactly summarizeLatency() of the
    // run's histograms - the sweep path adds nothing of its own.
    const SystemConfig cfg = saturatedConfig();
    const PointSample sample = runPointSample(cfg);
    const Metrics m = runOnce(cfg);

    ASSERT_TRUE(sample.hasLatency);
    const LatencySummary expect =
        summarizeLatency(*m.latencyWait, *m.latencyResidence);
    EXPECT_EQ(sample.latency.samples, expect.samples);
    EXPECT_EQ(sample.latency.waitP50, expect.waitP50);
    EXPECT_EQ(sample.latency.waitP99, expect.waitP99);
    EXPECT_EQ(sample.latency.waitMax, expect.waitMax);
    EXPECT_EQ(sample.latency.residenceP50, expect.residenceP50);
    EXPECT_EQ(sample.latency.residenceP99, expect.residenceP99);
    EXPECT_EQ(sample.latency.residenceMax, expect.residenceMax);

    // And without the flag, no summary rides along.
    SystemConfig off = cfg;
    off.collectLatency = false;
    EXPECT_FALSE(runPointSample(off).hasLatency);
}

TEST(GoldenLatencyBins, PinnedWaitAndResidenceHistograms)
{
    // The full wait and residence histograms, every bin's count, of
    // one unbuffered and one buffered config per kernel. The sweep
    // records carry only counts and bin-granularity quantiles, so
    // this is what catches a sample landing one bin off.
    std::vector<golden::GoldenLine> computed;
    for (KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (bool buffered : {false, true}) {
            SystemConfig cfg;
            cfg.kernel = kernel;
            cfg.buffered = buffered;
            cfg.numProcessors = 8;
            cfg.numModules = 4;
            cfg.memoryRatio = 6;
            cfg.requestProbability = 0.5;
            cfg.warmupCycles = 1000;
            cfg.measureCycles = 20000;
            cfg.collectLatency = true;
            cfg.seed = 5;
            const Metrics m = runOnce(cfg);
            const std::string label =
                std::string(kernel == KernelKind::FastStat ? "faststat"
                                                           : "cycleskip") +
                (buffered ? " buffered" : " unbuffered");
            computed.push_back(
                {label + " wait", m.latencyWait->renderFlatJson()});
            computed.push_back({label + " residence",
                                m.latencyResidence->renderFlatJson()});
        }
    }
    golden::checkExactGolden("latency_bins", computed);
}

} // namespace
} // namespace sbn
