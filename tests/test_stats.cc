/**
 * @file
 * Unit tests for the statistics package: accumulator moments, merge,
 * Student-t intervals, batch means and the histogram.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "estimate_util.hh"
#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/replication.hh"
#include "util/random.hh"

namespace sbn {
namespace {

TEST(Accumulator, EmptyDefaults)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_TRUE(std::isinf(a.confidenceHalfWidth()));
}

TEST(Accumulator, KnownMoments)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.add(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    // Sample variance with Bessel correction: sum sq dev = 32, /7.
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.sum(), 40.0, 1e-12);
}

TEST(Accumulator, MergeMatchesSequential)
{
    RandomGenerator rng(99);
    Accumulator whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal() * 10.0 - 3.0;
        whole.add(v);
        (i < 400 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty)
{
    Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(StudentT, TableValues)
{
    EXPECT_NEAR(studentTQuantile(1, 0.95), 12.706, 1e-3);
    EXPECT_NEAR(studentTQuantile(4, 0.95), 2.776, 1e-3);
    EXPECT_NEAR(studentTQuantile(10, 0.90), 1.812, 1e-3);
    EXPECT_NEAR(studentTQuantile(30, 0.99), 2.750, 1e-3);
    EXPECT_NEAR(studentTQuantile(100000, 0.95), 1.960, 1e-3);
}

TEST(StudentT, DecreasesWithDof)
{
    for (double level : {0.90, 0.95, 0.99}) {
        double prev = studentTQuantile(1, level);
        for (std::uint64_t dof : {2u, 5u, 10u, 30u, 50u, 200u}) {
            const double cur = studentTQuantile(dof, level);
            EXPECT_LE(cur, prev) << "dof=" << dof << " level=" << level;
            prev = cur;
        }
    }
}

TEST(Estimate, CoversItsMean)
{
    Estimate e;
    e.mean = 5.0;
    e.halfWidth = 0.5;
    EXPECT_TRUE(covers(e, 5.4));
    EXPECT_TRUE(covers(e, 4.6));
    EXPECT_FALSE(covers(e, 5.6));
    EXPECT_FALSE(covers(e, 4.4));
    EXPECT_TRUE(covers(e, 5.6, 0.2));
}

TEST(Histogram, BinningAndCounts)
{
    Histogram h(0.0, 10.0, 10);
    for (double v : {0.0, 0.5, 1.0, 5.5, 9.99})
        h.add(v);
    h.add(-1.0);  // underflow
    h.add(10.0);  // overflow (hi is exclusive)
    h.add(100.0); // overflow

    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, MeanTracksAllSamples)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(2.5);
    EXPECT_NEAR(h.mean(), 1.5, 1e-12);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(0.0, 100.0, 100);
    RandomGenerator rng(123);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.uniformReal() * 100.0);
    const double q25 = h.quantile(0.25);
    const double q50 = h.quantile(0.50);
    const double q90 = h.quantile(0.90);
    EXPECT_LE(q25, q50);
    EXPECT_LE(q50, q90);
    EXPECT_NEAR(q50, 50.0, 3.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.binCount(0), 0u);
}

TEST(Histogram, LogScaleBinsArePowers)
{
    // logScale(1, 1024, 10) puts bin edges at exact powers of two.
    Histogram h = Histogram::logScale(1.0, 1024.0, 10);
    for (std::size_t i = 0; i <= 10; ++i)
        EXPECT_NEAR(h.binLow(i), std::pow(2.0, static_cast<double>(i)),
                    1e-9)
            << "edge " << i;

    h.add(1.0);    // first bin, inclusive lower edge
    h.add(1.99);   // still [1, 2)
    h.add(2.0);    // [2, 4)
    h.add(3.0);    // [2, 4)
    h.add(512.0);  // last bin [512, 1024)
    h.add(1023.0); // last bin
    h.add(0.5);    // below lo -> underflow
    h.add(1024.0); // hi is exclusive -> overflow

    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, QuantileOfEmptyIsNaN)
{
    const Histogram h(0.0, 1.0, 4);
    EXPECT_TRUE(std::isnan(h.quantile(0.0)));
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(1.0)));
    EXPECT_TRUE(std::isnan(h.maxSample()));
}

TEST(Histogram, QuantileSaturatesAtRangeEnds)
{
    // All mass in overflow: every quantile resolves to hi (the
    // histogram cannot see past its range). All mass in underflow
    // resolves to lo symmetrically.
    Histogram over(0.0, 10.0, 10);
    over.add(50.0);
    over.add(99.0);
    EXPECT_DOUBLE_EQ(over.quantile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(over.quantile(1.0), 10.0);

    Histogram under(1.0, 10.0, 10);
    under.add(0.25);
    under.add(0.5);
    EXPECT_DOUBLE_EQ(under.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(under.quantile(1.0), 1.0);
}

TEST(Histogram, MergeMatchesSequentialFill)
{
    Histogram whole = Histogram::logScale(1.0, 4096.0, 24);
    Histogram left = Histogram::logScale(1.0, 4096.0, 24);
    Histogram right = Histogram::logScale(1.0, 4096.0, 24);

    RandomGenerator rng(77);
    for (int i = 0; i < 2000; ++i) {
        // Integer-valued samples (cycle counts) are the production
        // contract; their running sum is exact, making the merged
        // flat JSON byte-identical to the sequential fill.
        const double v = std::floor(rng.uniformReal() * 8192.0);
        whole.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.underflow(), whole.underflow());
    EXPECT_EQ(left.overflow(), whole.overflow());
    EXPECT_DOUBLE_EQ(left.maxSample(), whole.maxSample());
    // Byte-identical flat JSON is the contract sharded runs rely on.
    EXPECT_EQ(left.renderFlatJson(), whole.renderFlatJson());
}

TEST(Histogram, MergeWithEmptyKeepsStats)
{
    Histogram h(0.0, 10.0, 5);
    h.add(3.0);
    h.add(7.0);
    const std::string before = h.renderFlatJson();

    const Histogram empty(0.0, 10.0, 5);
    h.merge(empty);
    EXPECT_EQ(h.renderFlatJson(), before);
    EXPECT_DOUBLE_EQ(h.maxSample(), 7.0);

    Histogram fresh(0.0, 10.0, 5);
    fresh.merge(h);
    EXPECT_EQ(fresh.renderFlatJson(), before);
    EXPECT_DOUBLE_EQ(fresh.maxSample(), 7.0);
}

TEST(Histogram, MergeIncompatibleLayoutDies)
{
    Histogram linear(0.0, 10.0, 10);
    Histogram shifted(0.0, 20.0, 10);
    EXPECT_DEATH(linear.merge(shifted), "incompatible bin layout");

    Histogram log = Histogram::logScale(1.0, 10.0, 10);
    Histogram sameEdgesLinear(1.0, 10.0, 10);
    EXPECT_DEATH(sameEdgesLinear.merge(log), "incompatible bin layout");
}

TEST(Histogram, FlatJsonIsInsertionOrderInvariant)
{
    Histogram forward = Histogram::logScale(1.0, 1048576.0, 120);
    Histogram backward = Histogram::logScale(1.0, 1048576.0, 120);
    std::vector<double> samples;
    RandomGenerator rng(5);
    for (int i = 0; i < 500; ++i)
        samples.push_back(std::floor(1.0 + rng.uniformReal() * 2e6));
    for (double v : samples)
        forward.add(v);
    for (auto it = samples.rbegin(); it != samples.rend(); ++it)
        backward.add(*it);
    EXPECT_EQ(forward.renderFlatJson(), backward.renderFlatJson());

    // Sparse counts: empty bins are omitted, so a tiny histogram
    // renders a short, predictable line.
    Histogram tiny(0.0, 4.0, 4);
    tiny.add(0.5);
    tiny.add(2.5);
    tiny.add(2.6);
    EXPECT_EQ(tiny.renderFlatJson(),
              "{\"type\":\"sbn.hist.v1\",\"scale\":\"linear\","
              "\"lo\":0,\"hi\":4,\"bins\":4,\"count\":3,"
              "\"underflow\":0,\"overflow\":0,\"sum\":5.5999999999999996,"
              "\"counts\":\"0:1 2:2\"}");
}

TEST(Replication, DeterministicSeedDerivation)
{
    std::vector<std::uint64_t> seen_a, seen_b;
    auto run_a = runReplications(
        [&](std::uint64_t s) {
            seen_a.push_back(s);
            return static_cast<double>(s % 100);
        },
        5, 42);
    auto run_b = runReplications(
        [&](std::uint64_t s) {
            seen_b.push_back(s);
            return static_cast<double>(s % 100);
        },
        5, 42);
    EXPECT_EQ(seen_a, seen_b);
    EXPECT_DOUBLE_EQ(run_a.mean, run_b.mean);
    EXPECT_EQ(run_a.samples, 5u);
}

TEST(Replication, IntervalCoversTrueMean)
{
    // Experiment returns seed-dependent noise around 10.
    auto est = runReplications(
        [](std::uint64_t s) {
            RandomGenerator rng(s);
            double acc = 0.0;
            for (int i = 0; i < 1000; ++i)
                acc += rng.uniformReal();
            return 10.0 + (acc / 1000.0 - 0.5);
        },
        10, 7);
    EXPECT_TRUE(covers(est, 10.0, 0.02));
    EXPECT_GT(est.halfWidth, 0.0);
}

TEST(ReplicationRounds, SeedStreamIgnoresRoundBoundaries)
{
    // Growing in rounds must hand out exactly the one-shot derivation
    // stream: replication i gets the same seed however the run grew.
    RandomGenerator seeder(31337);
    std::vector<std::uint64_t> expected(11);
    for (auto &s : expected)
        s = seeder.deriveSeed();

    ReplicationRounds rounds(31337);
    std::vector<std::uint64_t> streamed;
    for (unsigned target : {3u, 3u, 7u, 11u}) { // repeat = no-op
        const auto seeds = rounds.seedsForExtension(target);
        streamed.insert(streamed.end(), seeds.begin(), seeds.end());
        rounds.accept(std::vector<double>(seeds.size(), 1.0));
        EXPECT_EQ(rounds.completed(), target);
    }
    EXPECT_EQ(streamed, expected);
}

TEST(ReplicationRounds, RoundGrowthMatchesOneShotAccumulation)
{
    const auto experiment = [](std::uint64_t s) {
        RandomGenerator rng(s);
        return rng.uniformReal() * 5.0 - 1.0;
    };

    // One-shot reference over 10 replications.
    RandomGenerator seeder(99);
    Accumulator reference;
    for (int i = 0; i < 10; ++i)
        reference.add(experiment(seeder.deriveSeed()));

    // The same 10 replications grown in three rounds.
    ReplicationRounds rounds(99, 0.95);
    for (unsigned target : {2u, 5u, 10u}) {
        std::vector<double> values;
        for (std::uint64_t seed : rounds.seedsForExtension(target))
            values.push_back(experiment(seed));
        rounds.accept(values);
    }

    const Estimate est = rounds.estimate();
    EXPECT_EQ(est.samples, 10u);
    EXPECT_EQ(est.mean, reference.mean());
    EXPECT_EQ(est.halfWidth, reference.confidenceHalfWidth(0.95));
}

TEST(ReplicationRounds, FewerThanTwoReplicationsHaveNoInterval)
{
    ReplicationRounds rounds(5);
    EXPECT_EQ(rounds.completed(), 0u);
    EXPECT_EQ(rounds.estimate().halfWidth, 0.0);

    const auto seeds = rounds.seedsForExtension(1);
    ASSERT_EQ(seeds.size(), 1u);
    rounds.accept({4.25});
    const Estimate est = rounds.estimate();
    EXPECT_EQ(est.samples, 1u);
    EXPECT_EQ(est.mean, 4.25);
    EXPECT_EQ(est.halfWidth, 0.0);
}

} // namespace
} // namespace sbn
