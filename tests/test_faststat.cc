/**
 * @file
 * FastStat kernel validation: statistical equivalence to the exact
 * CycleSkip kernel, analytic anchors, determinism, and the structural
 * properties (O(1) think draws, fingerprint separation) the kernel's
 * design promises.
 *
 * FastStat is deliberately not bit-compatible with CycleSkip, so the
 * regression net here is a CI-overlap procedure: K replications of
 * each kernel per configuration (seeds fixed, so every verdict is
 * deterministic) must produce overlapping 95% confidence intervals
 * on EBW. A non-overlap is strong evidence the two kernels simulate
 * different processes - correctness, not noise (docs/testing.md
 * "Statistical equivalence").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/faststat.hh"
#include "core/fingerprint.hh"
#include "core/system.hh"
#include "stats/accumulator.hh"
#include "workload/analytic.hh"

namespace sbn {
namespace {

/** Replications per kernel per grid point. */
constexpr int kReps = 8;

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 8;
    cfg.requestProbability = 1.0;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 30000;
    cfg.seed = 1;
    return cfg;
}

/** K replication EBWs of one kernel (seeds 1..K, deterministic). */
std::vector<double>
ebwSamples(SystemConfig cfg, KernelKind kind)
{
    cfg.kernel = kind;
    std::vector<double> out;
    out.reserve(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
        cfg.seed = static_cast<std::uint64_t>(rep + 1);
        out.push_back(runEbw(cfg));
    }
    return out;
}

/** One kernel's replication sample, summarized. */
struct CiSummary
{
    double mean = 0.0;
    double halfWidth = 0.0;    //!< Student-t 95% CI half-width
    double meanVariance = 0.0; //!< variance / count
};

CiSummary
summarize(const std::vector<double> &values)
{
    Accumulator acc;
    for (double v : values)
        acc.add(v);
    return {acc.mean(), acc.confidenceHalfWidth(0.95),
            acc.variance() / static_cast<double>(acc.count())};
}

/** The two kernels' 95% CIs on EBW must intersect; the Welch t in
 *  the message shows how far apart a failing pair is. */
void
expectEquivalent(const SystemConfig &cfg, const std::string &label)
{
    const CiSummary a = summarize(ebwSamples(cfg, KernelKind::CycleSkip));
    const CiSummary b = summarize(ebwSamples(cfg, KernelKind::FastStat));
    EXPECT_TRUE(a.mean - a.halfWidth <= b.mean + b.halfWidth &&
                b.mean - b.halfWidth <= a.mean + a.halfWidth)
        << label << ": " << a.mean << " +/- " << a.halfWidth << " vs "
        << b.mean << " +/- " << b.halfWidth << ", Welch t="
        << (a.mean - b.mean) / std::sqrt(a.meanVariance + b.meanVariance);
}

// --------------------------------------- CI-overlap equivalence grid

TEST(FastStatEquivalence, SaturatedUnbuffered)
{
    expectEquivalent(baseConfig(), "saturated n=8 m=8 r=8");
}

TEST(FastStatEquivalence, LowRequestProbability)
{
    SystemConfig cfg = baseConfig();
    cfg.requestProbability = 0.1;
    expectEquivalent(cfg, "low p=0.1");
    cfg.requestProbability = 0.02;
    expectEquivalent(cfg, "very low p=0.02");
}

TEST(FastStatEquivalence, PolicyAndSelectionVariants)
{
    SystemConfig cfg = baseConfig();
    cfg.requestProbability = 0.5;
    cfg.policy = ArbitrationPolicy::MemoryPriority;
    expectEquivalent(cfg, "memory priority");
    cfg.policy = ArbitrationPolicy::ProcessorPriority;
    cfg.selection = SelectionRule::OldestFirst;
    expectEquivalent(cfg, "oldest-first selection");
}

TEST(FastStatEquivalence, AsymmetricShapes)
{
    SystemConfig cfg = baseConfig();
    cfg.numProcessors = 4;
    cfg.numModules = 16;
    cfg.requestProbability = 0.7;
    expectEquivalent(cfg, "n=4 m=16");
    cfg.numProcessors = 16;
    cfg.numModules = 4;
    expectEquivalent(cfg, "n=16 m=4");
}

TEST(FastStatEquivalence, Buffered)
{
    SystemConfig cfg = baseConfig();
    cfg.buffered = true;
    cfg.requestProbability = 0.5;
    expectEquivalent(cfg, "buffered unbounded");
}

TEST(FastStatEquivalence, BufferedCapacityLimited)
{
    SystemConfig cfg = baseConfig();
    cfg.buffered = true;
    cfg.inputCapacity = 2;
    cfg.outputCapacity = 1;
    expectEquivalent(cfg, "buffered capacity in=2 out=1");
}

TEST(FastStatEquivalence, HotSpotWorkload)
{
    SystemConfig cfg = baseConfig();
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotFraction = 0.4;
    cfg.workload.hotModule = 2;
    expectEquivalent(cfg, "hotspot h=0.4");
}

TEST(FastStatEquivalence, WeightedWorkload)
{
    SystemConfig cfg = baseConfig();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights.assign(
        static_cast<std::size_t>(cfg.numModules), 1.0);
    cfg.workload.moduleWeights[0] = 4.0;
    expectEquivalent(cfg, "weighted 4:1");
}

TEST(FastStatEquivalence, FavoriteWorkload)
{
    SystemConfig cfg = baseConfig();
    cfg.workload.pattern = ReferencePattern::Favorite;
    cfg.workload.favoriteFraction = 0.5;
    cfg.requestProbability = 0.6;
    expectEquivalent(cfg, "favorite f=0.5");
}

TEST(FastStatEquivalence, TwoClassThink)
{
    SystemConfig cfg = baseConfig();
    cfg.workload.think = ThinkModel::TwoClass;
    cfg.workload.fastCount = 4;
    cfg.workload.fastProbability = 1.0;
    cfg.workload.slowProbability = 0.1;
    expectEquivalent(cfg, "two-class 4 fast / 4 slow");
}

// -------------------------------------------------- analytic anchors

/**
 * At p = 1 under MemoryPriority the exact occupancy-chain solution is
 * available; FastStat must land on it with the same finite-window
 * bias band the exact kernel is held to (test_workload.cc).
 */
TEST(FastStatAnalytic, MatchesExactMemprioEbw)
{
    // Small shapes only: the weighted occupancy-chain solver guards
    // against the state-space blowup past n = m = 4 (analytic.cc).
    for (const int n : {2, 4}) {
        for (const int r : {2, 8}) {
            SystemConfig cfg = baseConfig();
            cfg.numProcessors = n;
            cfg.numModules = n;
            cfg.memoryRatio = r;
            cfg.policy = ArbitrationPolicy::MemoryPriority;
            cfg.warmupCycles = 10000;
            cfg.measureCycles = 300000;
            cfg.kernel = KernelKind::FastStat;

            const double sim = runEbw(cfg);
            const double exact_ebw =
                workloadExactMemprioEbw(n, n, r, WorkloadConfig{});
            EXPECT_LT(sim / exact_ebw, 1.04)
                << "n=" << n << " r=" << r;
            EXPECT_GT(sim / exact_ebw, 0.99)
                << "n=" << n << " r=" << r;
        }
    }
}

// ---------------------------------------------------- reproducibility

/** Same config -> bit-identical metrics, every time. */
TEST(FastStatDeterminism, RepeatedRunsAreIdentical)
{
    SystemConfig cfg = baseConfig();
    cfg.kernel = KernelKind::FastStat;
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotFraction = 0.3;

    const Metrics a = runOnce(cfg);
    const Metrics b = runOnce(cfg);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.issuedRequests, b.issuedRequests);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.ebw, b.ebw);
    EXPECT_EQ(a.meanWaitCycles, b.meanWaitCycles);
    EXPECT_EQ(a.meanServiceCycles, b.meanServiceCycles);
    EXPECT_EQ(a.perProcessorCompletions, b.perProcessorCompletions);
}

/** Different seeds must re-key every stream (different trajectory). */
TEST(FastStatDeterminism, SeedChangesTrajectory)
{
    SystemConfig cfg = baseConfig();
    cfg.kernel = KernelKind::FastStat;
    const Metrics a = runOnce(cfg);
    cfg.seed = 2;
    const Metrics b = runOnce(cfg);
    EXPECT_NE(a.completedRequests, b.completedRequests);
}

// ------------------------------------------------ structural claims

/**
 * The kernel's O(1) think-interval contract: at low p the exact
 * kernel performs one Bernoulli per processor cycle while FastStat
 * draws one geometric per interval, so FastStat's draw count must be
 * a small fraction of CycleSkip's.
 */
TEST(FastStatStructure, GeometricThinkBatching)
{
    SystemConfig cfg = baseConfig();
    cfg.requestProbability = 0.05;

    cfg.kernel = KernelKind::FastStat;
    FastStatSystem fast(cfg);
    fast.run();

    cfg.kernel = KernelKind::CycleSkip;
    SingleBusSystem exact(cfg);
    exact.run();

    EXPECT_LT(fast.thinkDraws() * 5, exact.thinkDraws())
        << "fast=" << fast.thinkDraws()
        << " exact=" << exact.thinkDraws();
}

/**
 * Kernel choice is part of the config identity: FastStat results can
 * never merge with (or satisfy a resume of) an exact-kernel sweep.
 * CycleSkip must keep the fingerprint it had before the kernel field
 * existed, so every golden pin stays valid.
 */
TEST(FastStatStructure, KernelChangesConfigFingerprint)
{
    SystemConfig cfg = baseConfig();
    cfg.kernel = KernelKind::CycleSkip;
    const std::uint64_t exact_fp = configFingerprint(cfg);
    cfg.kernel = KernelKind::FastStat;
    const std::uint64_t fast_fp = configFingerprint(cfg);
    EXPECT_NE(exact_fp, fast_fp);
}

} // namespace
} // namespace sbn
