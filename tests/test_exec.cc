/**
 * @file
 * Tests for the execution layer: thread pool liveness, ordered
 * parallel map, and the determinism contract - replication and sweep
 * results must be bit-identical to serial execution at any thread
 * count.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/fingerprint.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "shard/runner.hh"
#include "stats/replication.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace sbn {
namespace {

TEST(ThreadPool, RunsEveryPostedTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 1000; ++i)
            pool.post([&] { ++count; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ParallelRunner, MapCollectsResultsByIndex)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        EXPECT_EQ(runner.threads(), threads);
        const auto squares = runner.map<int>(100, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
        ASSERT_EQ(squares.size(), 100u);
        for (std::size_t i = 0; i < squares.size(); ++i)
            EXPECT_EQ(squares[i], static_cast<int>(i * i));
    }
}

TEST(ParallelRunner, ForEachIndexVisitsEachIndexOnce)
{
    ParallelRunner runner(8);
    std::vector<std::atomic<int>> visits(257);
    runner.forEachIndex(visits.size(),
                        [&](std::size_t i) { ++visits[i]; });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunner, ZeroItemsIsANoOp)
{
    ParallelRunner runner(4);
    runner.forEachIndex(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelRunner, PropagatesWorkerExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        ParallelRunner runner(threads);
        EXPECT_THROW(runner.forEachIndex(64,
                                         [](std::size_t i) {
                                             if (i == 3)
                                                 throw std::runtime_error(
                                                     "boom");
                                         }),
                     std::runtime_error);
    }
}

/** Synthetic RNG experiment with enough arithmetic to expose any
    reduction-order difference in the last bit. */
double
noisyExperiment(std::uint64_t seed)
{
    RandomGenerator rng(seed);
    double acc = 0.0;
    for (int i = 0; i < 250; ++i)
        acc += rng.uniformReal() * 3.7 - 1.2;
    return acc;
}

TEST(ParallelRunner, ReplicationsBitIdenticalToSerialPath)
{
    // Reference: the serial stats-layer path (default threads = 1).
    const Estimate serial = runReplications(noisyExperiment, 11, 424242);

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        const Estimate parallel =
            runner.runReplications(noisyExperiment, 11, 424242);
        // Exact floating-point equality, not NEAR: the contract is
        // bit-identical results at any thread count.
        EXPECT_EQ(parallel.mean, serial.mean) << threads << " threads";
        EXPECT_EQ(parallel.halfWidth, serial.halfWidth)
            << threads << " threads";
        EXPECT_EQ(parallel.samples, serial.samples);
    }
}

TEST(ParallelRunner, SimulationReplicationsBitIdenticalAcrossThreads)
{
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 5000;
    cfg.seed = 99;

    const auto metric = [](const Metrics &m) { return m.ebw; };
    const Estimate serial = replicate(cfg, 6, metric, 1);
    for (unsigned threads : {2u, 8u}) {
        const Estimate parallel = replicate(cfg, 6, metric, threads);
        EXPECT_EQ(parallel.mean, serial.mean) << threads << " threads";
        EXPECT_EQ(parallel.halfWidth, serial.halfWidth)
            << threads << " threads";
    }
}

TEST(ParallelRunner, SeedsMatchTheSerialDerivationStream)
{
    // The seeds handed to a parallel run must be exactly the ones the
    // serial path would derive, in replication order.
    RandomGenerator seeder(7);
    std::vector<std::uint64_t> expected(5);
    for (auto &s : expected)
        s = seeder.deriveSeed();

    std::vector<std::uint64_t> seen(5, 0);
    std::size_t slot = 0;
    ParallelRunner runner(1); // serial so the capture below is ordered
    runner.runReplications(
        [&](std::uint64_t seed) {
            seen[slot++] = seed;
            return 0.0;
        },
        5, 7);
    EXPECT_EQ(seen, expected);
}

TEST(ParallelRunner, SingleReplicationHasZeroHalfWidth)
{
    ParallelRunner runner(2);
    const Estimate e =
        runner.runReplications(noisyExperiment, 1, 123);
    EXPECT_EQ(e.samples, 1u);
    EXPECT_EQ(e.halfWidth, 0.0);
    EXPECT_EQ(e.mean, noisyExperiment(RandomGenerator(123).deriveSeed()));
}

TEST(SweepSpec, EmptyAxesYieldTheBasePoint)
{
    SweepSpec spec;
    spec.base.numProcessors = 3;
    spec.base.numModules = 5;
    EXPECT_EQ(spec.size(), 1u);
    const auto points = spec.materialize();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].numProcessors, 3);
    EXPECT_EQ(points[0].numModules, 5);
}

TEST(SweepSpec, MaterializesTheCrossProductInDocumentedOrder)
{
    SweepSpec spec;
    spec.base.seed = 77;
    spec.processors = {2, 4};
    spec.memoryRatios = {2, 4, 6};
    spec.buffering = {false, true};
    EXPECT_EQ(spec.size(), 12u);

    const auto points = spec.materialize();
    ASSERT_EQ(points.size(), 12u);
    std::size_t idx = 0;
    for (int n : {2, 4}) {
        for (int r : {2, 4, 6}) {
            for (bool b : {false, true}) {
                EXPECT_EQ(points[idx].numProcessors, n);
                EXPECT_EQ(points[idx].memoryRatio, r);
                EXPECT_EQ(points[idx].buffered, b);
                EXPECT_EQ(points[idx].seed, 77u); // inherited
                ++idx;
            }
        }
    }
}

TEST(SweepSpecDeathTest, ValidateRejectsDuplicateAxisValues)
{
    SweepSpec spec;
    spec.processors = {2, 4, 2};
    EXPECT_DEATH(spec.validate(), "axis 'processors'.*twice");

    spec = SweepSpec{};
    spec.requestProbabilities = {0.1, 0.1};
    EXPECT_DEATH(spec.validate(),
                 "axis 'requestProbabilities'.*twice");

    spec = SweepSpec{};
    spec.policies = {ArbitrationPolicy::MemoryPriority,
                     ArbitrationPolicy::MemoryPriority};
    EXPECT_DEATH(spec.validate(), "axis 'policies'.*twice");

    spec = SweepSpec{};
    spec.buffering = {true, true};
    EXPECT_DEATH(spec.validate(), "axis 'buffering'.*twice");

    // materialize() validates implicitly, so no sweep entry point
    // runs a malformed grid.
    spec = SweepSpec{};
    spec.modules = {4, 4};
    EXPECT_DEATH((void)spec.materialize(), "axis 'modules'.*twice");
}

TEST(SweepSpecDeathTest, ValidateRejectsOutOfDomainAxisValues)
{
    SweepSpec spec;
    spec.processors = {0};
    EXPECT_DEATH(spec.validate(), "processors axis value");

    spec = SweepSpec{};
    spec.memoryRatios = {4, -2};
    EXPECT_DEATH(spec.validate(), "memoryRatios axis value");

    spec = SweepSpec{};
    spec.requestProbabilities = {0.5, 1.5};
    EXPECT_DEATH(spec.validate(),
                 "requestProbabilities axis value");

    // The base config is validated too.
    spec = SweepSpec{};
    spec.base.numProcessors = -1;
    EXPECT_DEATH(spec.validate(), "numProcessors");
}

TEST(SweepSpec, ValidateAcceptsWellFormedGrids)
{
    SweepSpec spec;
    spec.processors = {2, 4};
    spec.requestProbabilities = {0.1, 1.0};
    spec.validate(); // empty axes mean "base value" and are fine
    EXPECT_EQ(spec.materialize().size(), 4u);
}

TEST(ParallelRunner, SweepResultsMatchSerialEvaluationInGridOrder)
{
    SweepSpec spec;
    spec.processors = {2, 4, 8};
    spec.modules = {2, 8};
    spec.memoryRatios = {2, 4, 6, 8};

    const auto evaluate = [](const SystemConfig &cfg) {
        return cfg.numProcessors * 10000.0 + cfg.numModules * 100.0 +
               cfg.memoryRatio;
    };

    const auto points = spec.materialize();
    std::vector<double> expected;
    for (const auto &cfg : points)
        expected.push_back(evaluate(cfg));

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        EXPECT_EQ(runner.map<double>(points.size(),
                                     [&](std::size_t i) {
                                         return evaluate(points[i]);
                                     }),
                  expected)
            << threads << " threads";
    }
}

TEST(ParallelRunner, StreamEmitsEveryIndexInOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        std::vector<std::size_t> order;
        std::vector<int> emitted;
        // The emit callback is serialized by the runner's emission
        // gate, so plain push_back is safe even with 8 workers.
        const auto values = runner.stream<int>(
            211, [](std::size_t i) { return static_cast<int>(i) * 3; },
            [&](std::size_t i, const int &v) {
                order.push_back(i);
                emitted.push_back(v);
            });
        ASSERT_EQ(order.size(), 211u) << threads << " threads";
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], i);
            EXPECT_EQ(emitted[i], static_cast<int>(i) * 3);
            EXPECT_EQ(values[i], static_cast<int>(i) * 3);
        }
    }
}

TEST(ParallelRunner, ThrowingEmitNeverDoubleEmitsOrOvershoots)
{
    for (unsigned threads : {1u, 4u}) {
        ParallelRunner runner(threads);
        std::vector<int> emits(100, 0);
        EXPECT_THROW(
            runner.stream<int>(
                100,
                [](std::size_t i) { return static_cast<int>(i); },
                [&](std::size_t i, const int &) {
                    ++emits[i];
                    if (i == 10)
                        throw std::runtime_error("emit boom");
                }),
            std::runtime_error);
        // Emission is ordered, so everything before the throwing
        // index fired exactly once, nothing after it fired at all,
        // and the throwing index itself was not re-emitted.
        for (std::size_t i = 0; i <= 10; ++i)
            EXPECT_EQ(emits[i], 1) << "index " << i;
        for (std::size_t i = 11; i < emits.size(); ++i)
            EXPECT_EQ(emits[i], 0) << "index " << i;
    }
}

TEST(ParallelRunner, SweepStreamedMatchesSweepAndStreamsInGridOrder)
{
    SweepSpec spec;
    spec.processors = {2, 4, 8};
    spec.memoryRatios = {2, 4, 6, 8};
    const auto evaluate = [](const SystemConfig &cfg) {
        return cfg.numProcessors * 100.0 + cfg.memoryRatio;
    };

    const auto points = spec.materialize();
    const auto evaluateAt = [&](std::size_t i) {
        return evaluate(points[i]);
    };
    ParallelRunner reference(1);
    const std::vector<double> expected =
        reference.map<double>(points.size(), evaluateAt);

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        std::vector<std::size_t> order;
        std::vector<double> streamed;
        const std::vector<double> grid = runner.stream<double>(
            points.size(), evaluateAt,
            [&](std::size_t i, const double &value) {
                order.push_back(i);
                streamed.push_back(value);
                EXPECT_EQ(evaluate(points[i]), value);
            });
        EXPECT_EQ(grid, expected) << threads << " threads";
        EXPECT_EQ(streamed, expected) << threads << " threads";
        ASSERT_EQ(order.size(), expected.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(ParallelRunner, StreamedSubsetEmitsGlobalIndicesInOrder)
{
    SweepSpec spec;
    spec.base.seed = 5;
    spec.processors = {1, 2, 3, 4, 5, 6};
    const auto points = spec.materialize();
    const std::vector<std::size_t> subset{1, 2, 5};

    // The plain record step is the subset entry point: it streams
    // the listed points' records with their global flat indices.
    for (const unsigned threads : {1u, 4u}) {
        const RecordStep step = plainRecordStep(
            points,
            [](const SystemConfig &cfg) {
                PointSample sample;
                sample.ebw = static_cast<double>(cfg.numProcessors);
                return sample;
            },
            threads);
        std::vector<std::size_t> emitted;
        std::vector<double> values;
        step(subset, [&](const PointRecord &record) {
            EXPECT_EQ(record.configFp,
                      configFingerprint(points[record.flatIndex]));
            emitted.push_back(record.flatIndex);
            values.push_back(record.mean);
        });
        EXPECT_EQ(emitted, subset);
        EXPECT_EQ(values, (std::vector<double>{2.0, 3.0, 6.0}));
    }
}

TEST(RoundSchedule, CumulativeTargetsAreMonotoneUpToTheCap)
{
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.growth = 1.5;
    schedule.cap = 40;

    unsigned previous = 0;
    for (unsigned round = 0; round < 32; ++round) {
        const unsigned target = schedule.targetAfterRound(round);
        EXPECT_LE(target, schedule.cap);
        if (previous < schedule.cap)
            EXPECT_GT(target, previous) << "round " << round;
        else
            EXPECT_EQ(target, schedule.cap);
        previous = target;
    }
    EXPECT_EQ(previous, schedule.cap); // schedule reaches the cap
}

TEST(AdaptiveReplicator, TargetMetOrCapReached)
{
    ParallelRunner runner(1);
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 40;
    const AdaptiveReplicator replicator(runner, target, schedule);

    for (std::uint64_t seed : {1ull, 7ull, 99ull, 424242ull}) {
        const AdaptiveEstimate a =
            replicator.run(noisyExperiment, seed);
        EXPECT_GE(a.estimate.samples, 2u);
        EXPECT_LE(a.estimate.samples, 40u);
        EXPECT_GE(a.rounds, 1u);
        if (a.converged) {
            EXPECT_LE(a.estimate.halfWidth,
                      0.02 * std::abs(a.estimate.mean));
        } else {
            EXPECT_EQ(a.estimate.samples, 40u);
        }
    }
}

TEST(AdaptiveReplicator, TighteningTheTargetNeverShrinksTheRun)
{
    ParallelRunner runner(1);
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 64;

    std::uint64_t previous_samples = 0;
    for (double relative : {0.5, 0.1, 0.02, 0.004}) {
        PrecisionTarget target;
        target.relative = relative;
        const AdaptiveReplicator replicator(runner, target, schedule);
        const AdaptiveEstimate a = replicator.run(noisyExperiment, 5);
        EXPECT_GE(a.estimate.samples, previous_samples)
            << "relative target " << relative;
        previous_samples = a.estimate.samples;
    }
}

TEST(AdaptiveReplicator, BitIdenticalAcrossThreadCounts)
{
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 32;

    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const AdaptiveEstimate reference = serial.run(noisyExperiment, 7);

    for (unsigned threads :
         {2u, ThreadPool::hardwareThreads() + 1}) {
        ParallelRunner runner(threads);
        const AdaptiveReplicator replicator(runner, target, schedule);
        const AdaptiveEstimate a = replicator.run(noisyExperiment, 7);
        // Exact equality: the adaptive determinism contract.
        EXPECT_EQ(a.estimate.mean, reference.estimate.mean)
            << threads << " threads";
        EXPECT_EQ(a.estimate.halfWidth, reference.estimate.halfWidth)
            << threads << " threads";
        EXPECT_EQ(a.estimate.samples, reference.estimate.samples);
        EXPECT_EQ(a.rounds, reference.rounds);
        EXPECT_EQ(a.converged, reference.converged);
    }
}

TEST(AdaptiveReplicator, FinalEstimateMatchesOneShotReplications)
{
    // Whatever count the adaptive run stops at, the estimate must be
    // bit-identical to a one-shot run of that many replications: the
    // seed stream ignores round boundaries.
    ParallelRunner runner(4);
    PrecisionTarget target;
    target.relative = 0.05;
    const AdaptiveReplicator replicator(runner, target, {});
    const AdaptiveEstimate a = replicator.run(noisyExperiment, 31);

    const Estimate one_shot = runner.runReplications(
        noisyExperiment, static_cast<unsigned>(a.estimate.samples), 31);
    EXPECT_EQ(a.estimate.mean, one_shot.mean);
    EXPECT_EQ(a.estimate.halfWidth, one_shot.halfWidth);
    EXPECT_EQ(a.estimate.samples, one_shot.samples);
}

/** Per-point experiment whose variance scales with the point's r, so
    a sweep mixes early- and late-converging grid points. */
double
pointExperiment(const SystemConfig &cfg, std::uint64_t seed)
{
    RandomGenerator rng(seed);
    double acc = 0.0;
    for (int i = 0; i < 50; ++i)
        acc += 10.0 + rng.uniformReal() * cfg.memoryRatio;
    return acc / 50.0;
}

TEST(AdaptiveReplicator, SweepStreamsFinalizedPointsInFlatOrder)
{
    SweepSpec spec;
    spec.base.seed = 2026;
    spec.processors = {2, 4};
    spec.memoryRatios = {1, 2, 4, 8, 16, 32};

    PrecisionTarget target;
    target.relative = 0.01;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 64;

    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const std::vector<SystemConfig> points = spec.materialize();
    const std::vector<AdaptiveEstimate> reference =
        serial.runPoints(points, pointExperiment);
    ASSERT_EQ(reference.size(), 12u);

    // Wider variances need more rounds - the sweep must be genuinely
    // adaptive for the streaming order to be worth testing.
    EXPECT_GT(reference.back().estimate.samples,
              reference.front().estimate.samples);

    for (unsigned threads :
         {1u, 2u, ThreadPool::hardwareThreads() + 1}) {
        ParallelRunner runner(threads);
        const AdaptiveReplicator replicator(runner, target, schedule);
        std::vector<std::size_t> order;
        const std::vector<AdaptiveEstimate> results =
            replicator.runPoints(
                points, pointExperiment,
                [&](std::size_t i, const SystemConfig &cfg,
                    const AdaptiveEstimate &estimate) {
                    order.push_back(i);
                    EXPECT_EQ(cfg.memoryRatio,
                              spec.memoryRatios[i % 6]);
                    EXPECT_EQ(estimate.estimate.samples,
                              reference[i].estimate.samples);
                });
        ASSERT_EQ(order.size(), 12u) << threads << " threads";
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].estimate.mean,
                      reference[i].estimate.mean)
                << threads << " threads, point " << i;
            EXPECT_EQ(results[i].estimate.halfWidth,
                      reference[i].estimate.halfWidth);
            EXPECT_EQ(results[i].estimate.samples,
                      reference[i].estimate.samples);
            EXPECT_EQ(results[i].rounds, reference[i].rounds);
            EXPECT_EQ(results[i].converged, reference[i].converged);
        }
    }
}

TEST(AdaptiveReplicator, SweepStressManyPointsThreadCountInvariant)
{
    SweepSpec spec;
    spec.base.seed = 77;
    spec.processors = {2, 4, 8, 16};
    spec.modules = {2, 4};
    spec.memoryRatios = {1, 3, 9, 27};

    PrecisionTarget target;
    target.relative = 0.015;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.growth = 3.0;
    schedule.cap = 30;

    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const std::vector<SystemConfig> points = spec.materialize();
    const std::vector<AdaptiveEstimate> reference =
        serial.runPoints(points, pointExperiment);
    ASSERT_EQ(reference.size(), 32u);

    ParallelRunner runner(ThreadPool::hardwareThreads() + 3);
    const AdaptiveReplicator replicator(runner, target, schedule);
    const std::vector<AdaptiveEstimate> results =
        replicator.runPoints(points, pointExperiment);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].estimate.mean, reference[i].estimate.mean)
            << "point " << i;
        EXPECT_EQ(results[i].estimate.halfWidth,
                  reference[i].estimate.halfWidth);
        EXPECT_EQ(results[i].estimate.samples,
                  reference[i].estimate.samples);
        EXPECT_EQ(results[i].converged, reference[i].converged);
        if (results[i].converged) {
            EXPECT_LE(results[i].estimate.halfWidth,
                      0.015 * std::abs(results[i].estimate.mean));
        } else {
            EXPECT_EQ(results[i].estimate.samples, 30u);
        }
    }
}

TEST(ThreadPool, ThrowingTaskDoesNotKillTheWorkers)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i) {
            pool.post([] { throw std::runtime_error("task boom"); });
            pool.post([] { throw 42; }); // non-std exceptions too
            pool.post([&] { ++ran; });
        }
        // Destructor drains the queue; every non-throwing task must
        // still have run on a live worker.
    }
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, CleanShutdownWithQueuedBacklog)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        // Far more tasks than workers, so a deep backlog is still
        // queued when the destructor starts; shutdown must drain it.
        for (int i = 0; i < 5000; ++i)
            pool.post([&] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 5000);
}

TEST(ParallelRunner, StaysUsableAfterWorkerException)
{
    ParallelRunner runner(4);
    for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_THROW(
            runner.forEachIndex(64,
                                [](std::size_t i) {
                                    if (i % 7 == 3)
                                        throw std::runtime_error(
                                            "boom");
                                }),
            std::runtime_error);

        // The same runner (and its pool) must keep working after the
        // propagated failure.
        const auto squares = runner.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
        ASSERT_EQ(squares.size(), 50u);
        for (std::size_t i = 0; i < squares.size(); ++i)
            EXPECT_EQ(squares[i], static_cast<int>(i * i));

        const Estimate e =
            runner.runReplications(noisyExperiment, 5, 11);
        EXPECT_EQ(e.samples, 5u);
    }
}

/**
 * A forked child inherits the shared runners' pools but none of
 * their threads. Leaving through sbn_fatal runs static destructors
 * (std::exit), and destroying such a pool blocks forever on its
 * condition variable - which is how one earlier multi-thread test
 * used to hang every later supervisor test of a one-process run. The
 * child runs under a deadline so a regression fails instead of
 * hanging.
 */
TEST(ParallelRunner, ForkedChildExitsDespiteInheritedSharedPool)
{
    const auto squares = sharedParallelRunner(2).map<int>(
        16, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(squares.size(), 16u);

    std::fflush(nullptr);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        sbn_fatal("expected: forked child exits through the fatal path");

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(child, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (reaped == 0) {
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
        FAIL() << "forked child still running 10 s after sbn_fatal";
    }
    ASSERT_EQ(reaped, child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(Exec, DefaultThreadsOverrideRoundTrips)
{
    const unsigned before = defaultExecThreads();
    setDefaultExecThreads(3);
    EXPECT_EQ(defaultExecThreads(), 3u);
    setDefaultExecThreads(0); // back to environment resolution
    EXPECT_EQ(defaultExecThreads(), before);
    EXPECT_GE(defaultExecThreads(), 1u);
}

TEST(Exec, ParseThreadsSpecAcceptsSaneValues)
{
    const char *env = "SBN_THREADS";
    EXPECT_EQ(parseThreadsSpec("1", env), 1u);
    EXPECT_EQ(parseThreadsSpec("16", env), 16u);
    EXPECT_EQ(parseThreadsSpec("4096", env), 4096u);
    EXPECT_EQ(parseThreadsSpec(" 8 ", env), 8u);
    EXPECT_EQ(parseThreadsSpec("0", env), 0u); // 0 = all hardware threads
}

TEST(Exec, ParseThreadsSpecRejectsGarbageLoudly)
{
    // A typo in SBN_THREADS must fail fast with a clear message, not
    // silently fall back to serial execution.
    const char *env = "SBN_THREADS";
    EXPECT_DEATH((void)parseThreadsSpec("", env), "empty value");
    EXPECT_DEATH((void)parseThreadsSpec("   ", env), "empty value");
    EXPECT_DEATH((void)parseThreadsSpec("four", env),
                 "SBN_THREADS: 'four' is not a number");
    EXPECT_DEATH((void)parseThreadsSpec("8x", env), "not a number");
    EXPECT_DEATH((void)parseThreadsSpec("2.5", env), "not a number");
    EXPECT_DEATH((void)parseThreadsSpec("-4", env), "negative");
    EXPECT_DEATH((void)parseThreadsSpec("5000", env), "out of range");
    EXPECT_DEATH((void)parseThreadsSpec("99999999999999999999", env),
                 "out of range");
    // The --threads flag path names the flag, not the variable.
    EXPECT_DEATH((void)parseThreadsSpec("abc", "--threads"),
                 "--threads: 'abc' is not a number");
}

} // namespace
} // namespace sbn
