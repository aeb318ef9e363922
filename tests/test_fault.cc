/**
 * @file
 * Fault-tolerance tests: the SBN_FAULT grammar, the ShardSupervisor
 * recovery machinery (retry/backoff, liveness, work stealing,
 * graceful exhaustion), and the headline contract - for a fixed
 * seed, any injected single-fault schedule converges to merged
 * output byte-identical to the serial run.
 *
 * The supervisor forks real worker processes from the test binary;
 * worker bodies run single-threaded (sharedParallelRunner(1) is the
 * inline path). A child still inherits any multi-thread shared pool
 * an earlier test created, without its threads; the shared runners
 * are never destroyed, so a worker leaving through sbn_fatal's
 * std::exit does not block on one (ParallelRunner.
 * ForkedChildExitsDespiteInheritedSharedPool).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "shard/fault.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/runner.hh"
#include "shard/supervisor.hh"
#include "util/logging.hh"

namespace sbn {
namespace {

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "sbn_fault_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    ensureWritableShardDir(dir);
    return dir;
}

/** Scoped environment variable; restores "unset" on destruction. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** The small simulation grid the recovery tests sweep (8 points). */
SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.base.numProcessors = 4;
    spec.base.numModules = 4;
    spec.base.warmupCycles = 200;
    spec.base.measureCycles = 2000;
    spec.base.seed = 99;
    spec.memoryRatios = {2, 4};
    spec.requestProbabilities = {0.3, 1.0};
    spec.policies = {ArbitrationPolicy::ProcessorPriority,
                     ArbitrationPolicy::MemoryPriority};
    return spec;
}

double
ebwOf(const SystemConfig &cfg)
{
    return runEbw(cfg);
}

std::string
serialBytes(const std::vector<SystemConfig> &points)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < points.size(); ++i)
        os << formatRecord(makeSweepRecord(i, points[i],
                                           ebwOf(points[i])))
           << '\n';
    return os.str();
}

double
ebwWithSeed(const SystemConfig &cfg, std::uint64_t seed)
{
    SystemConfig c = cfg;
    c.seed = seed;
    return runEbw(c);
}

std::string
serialAdaptiveBytes(const std::vector<SystemConfig> &points,
                    const PrecisionTarget &target,
                    const RoundSchedule &schedule)
{
    ParallelRunner runner(1);
    const AdaptiveReplicator replicator(runner, target, schedule);
    std::ostringstream os;
    replicator.runPoints(
        points, ebwWithSeed,
        [&](std::size_t i, const SystemConfig &cfg,
            const AdaptiveEstimate &estimate) {
            os << formatRecord(makeAdaptiveRecord(i, cfg, estimate,
                                                  target, schedule))
               << '\n';
        });
    return os.str();
}

/** Supervision config tuned for tests: tiny backoff. */
SupervisorConfig
testConfig(const std::string &dir, const MergeCheck &check,
           std::size_t shard_count)
{
    SupervisorConfig config;
    config.shardCount = shard_count;
    config.dir = dir;
    config.layout = ShardLayout::Contiguous;
    config.expectedRunFp = check.expectedRunFp;
    config.backoffInitialSeconds = 0.02;
    config.backoffCapSeconds = 0.1;
    return config;
}

/** Worker body running @p step: owned shards resume on respawn,
 *  steal slices compute their explicit point list. */
WorkerBody
stepBody(const MergeCheck &check, const RecordStep &step)
{
    return [expected = check.expectedRunFp, step](const WorkerTask &task) {
        if (task.steal)
            runStealSlice(task.points, step, task.outPath);
        else
            runOwnedShard(expected, task.shard, ShardLayout::Contiguous,
                          step, task.outPath,
                          /*resume=*/task.attempt > 0);
    };
}

/** Worker body most supervisor tests use: plain sweep, 1 thread. */
WorkerBody
sweepBody(const std::vector<SystemConfig> &points)
{
    return stepBody(sweepMergeCheck(points),
                    plainRecordStep(points, runPointSample, 1));
}

/** One owned shard of a plain sweep over @p points, 1 thread. */
void
runPlainShard(const std::vector<SystemConfig> &points,
              const std::string &path)
{
    runOwnedShard(sweepMergeCheck(points).expectedRunFp, {0, 1},
                  ShardLayout::Contiguous,
                  plainRecordStep(points, runPointSample, 1), path);
}

std::string
mergedBytes(const SupervisorReport &report, const MergeCheck &check)
{
    const PartialMerge merged =
        orderRecordFiles(report.recordFiles, check);
    std::ostringstream os;
    writeRecords(os, merged.records);
    return os.str();
}

// ------------------------------------------------------- grammar

TEST(FaultPlanParse, AcceptsTheDocumentedClauses)
{
    FaultPlan plan;
    std::string error;

    ASSERT_TRUE(parseFaultPlan("", plan, error));
    EXPECT_FALSE(plan.active);

    ASSERT_TRUE(parseFaultPlan(
        "shard=1,attempt=2,kill_after_records=3,truncate_tail=40",
        plan, error))
        << error;
    EXPECT_TRUE(plan.active);
    EXPECT_EQ(plan.shard, 1u);
    EXPECT_EQ(plan.attempt, 2u);
    EXPECT_EQ(plan.killAfterRecords, 3u);
    EXPECT_EQ(plan.truncateTail, 40u);

    ASSERT_TRUE(parseFaultPlan(
        "shard=any,attempt=any,hang_after_records=2", plan, error))
        << error;
    EXPECT_EQ(plan.shard, kFaultAnyShard);
    EXPECT_EQ(plan.attempt, kFaultAnyAttempt);
    EXPECT_EQ(plan.hangAfterRecords, 2u);

    ASSERT_TRUE(parseFaultPlan("fail_write_at=5", plan, error))
        << error;
    EXPECT_EQ(plan.failWriteAt, 5u);
    EXPECT_EQ(plan.shard, kFaultAnyShard); // default target: any

    ASSERT_TRUE(parseFaultPlan("abort_in_merge", plan, error))
        << error;
    EXPECT_TRUE(plan.abortInMerge);

    // The largest values that are not sentinels.
    ASSERT_TRUE(parseFaultPlan(
        "shard=18446744073709551613,attempt=4294967294,abort_in_merge",
        plan, error))
        << error;
    EXPECT_EQ(plan.shard, kFaultNoShard - 1);
    EXPECT_EQ(plan.attempt, kFaultAnyAttempt - 1);
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    const char *bad[] = {
        "shard=x,kill_after_records=1", // non-numeric selector
        "kill_after_records=0",         // zero count
        "kill_after_records=1,,",       // stray comma
        "truncate_tail=8",              // modifier without its action
        "kill_after_records=1,hang_after_records=1", // exclusive
        "shard=1",                      // selectors only, no action
        "abort_in_merge=1",             // flag clause takes no value
        "explode=now",                  // unknown clause
        // Out of range, or a sentinel spelled as a number.
        "attempt=4294967296,kill_after_records=1", // wraps to 0
        "attempt=4294967295,kill_after_records=1", // == any
        "shard=18446744073709551615,kill_after_records=1", // == any
        "shard=18446744073709551614,kill_after_records=1", // no-shard
        "shard=18446744073709551616,kill_after_records=1", // overflow
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseFaultPlan(text, plan, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlanParse, AcceptsTheServiceClauses)
{
    FaultPlan plan;
    std::string error;

    // Every documented journal state is a valid crash target.
    for (const char *state : kFaultJournalStates) {
        ASSERT_TRUE(parseFaultPlan(
            std::string("crash_after_journal=") + state, plan,
            error))
            << state << ": " << error;
        EXPECT_TRUE(plan.active);
        EXPECT_EQ(plan.crashAfterJournal, state);
    }

    ASSERT_TRUE(parseFaultPlan("crash_in_merge", plan, error))
        << error;
    EXPECT_TRUE(plan.crashInMerge);

    ASSERT_TRUE(parseFaultPlan("stall_accept", plan, error)) << error;
    EXPECT_TRUE(plan.stallAccept);

    // Service clauses count as actions: selectors + a service clause
    // must not trip the "no action given" check.
    ASSERT_TRUE(parseFaultPlan("attempt=any,crash_in_merge", plan,
                               error))
        << error;
    EXPECT_EQ(plan.attempt, kFaultAnyAttempt);
    EXPECT_TRUE(plan.crashInMerge);
}

TEST(FaultPlanParse, RejectsMalformedServiceClauses)
{
    FaultPlan plan;
    std::string error;
    const char *bad[] = {
        "crash_after_journal",          // needs a state value
        "crash_after_journal=sideways", // unknown journal state
        "crash_after_journal=Running",  // states are lowercase
        "crash_in_merge=1",             // flag clause takes no value
        "stall_accept=yes",             // flag clause takes no value
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseFaultPlan(text, plan, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlanParse, ScopeGatesArming)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("shard=2,attempt=1,kill_after_records=1",
                               plan, error));

    setFaultProcessScope(2, 1);
    EXPECT_TRUE(faultArmed(plan));
    setFaultProcessScope(2, 0);
    EXPECT_FALSE(faultArmed(plan)); // wrong attempt
    setFaultProcessScope(1, 1);
    EXPECT_FALSE(faultArmed(plan)); // wrong shard
    setFaultProcessScope(kFaultNoShard, 0);
    EXPECT_FALSE(faultArmed(plan)); // orchestrators are not shard 2

    ASSERT_TRUE(parseFaultPlan("kill_after_records=1", plan, error));
    EXPECT_TRUE(faultArmed(plan)); // shard=any matches everyone
    setFaultProcessScope(kFaultNoShard, 1);
    EXPECT_FALSE(faultArmed(plan)); // ...at attempt 0 only, by default
    setFaultProcessScope(kFaultNoShard, 0);
}

// ---------------------------------------------- supervised recovery

TEST(Supervisor, CleanFleetMatchesSerialRun)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("clean");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    ShardSupervisor supervisor(testConfig(dir, check, 4),
                               sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 0u);
    for (const ShardOutcome &outcome : report.shards) {
        EXPECT_EQ(outcome.state, ShardState::Done);
        EXPECT_EQ(outcome.launches, 1u);
    }
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, SingleFaultKillMatrixConvergesByteIdentically)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string serial = serialBytes(points);

    // Kill shard 1 (2 owned points) at each record boundary, with
    // and without a torn tail - every schedule must converge to the
    // serial bytes via one respawn.
    for (std::size_t k = 1; k <= 2; ++k) {
        for (const bool torn : {false, true}) {
            const std::string dir = tempDir(
                "kill" + std::to_string(k) + (torn ? "t" : ""));
            MergeCheck check = sweepMergeCheck(points);
            check.shardCount = 4;
            check.layout = ShardLayout::Contiguous;
            check.dir = dir;

            std::string fault = "shard=1,kill_after_records=" +
                                std::to_string(k);
            if (torn)
                fault += ",truncate_tail=40";
            const EnvGuard guard(kFaultEnvVar, fault);

            ShardSupervisor supervisor(testConfig(dir, check, 4),
                                       sweepBody(points));
            const SupervisorReport report = supervisor.run();

            ASSERT_TRUE(report.complete) << fault;
            EXPECT_EQ(report.respawns, 1u) << fault;
            EXPECT_EQ(report.shards[1].launches, 2u) << fault;
            EXPECT_EQ(mergedBytes(report, check), serial) << fault;
        }
    }
}

TEST(Supervisor, EveryShardCrashingOnceStillConverges)
{
    // The sampled multi-fault schedule: shard=any kills *each* worker
    // after its first record on attempt 0; all four respawn and
    // resume.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("allcrash");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=any,kill_after_records=1,"
                         "truncate_tail=25");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.workStealing = false; // keep the respawn count exact
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 4u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, InjectedWriteFailureIsRetried)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("wfail");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    // The worker's 2nd record append reports a write error through
    // the fatal path (exit 1, not a signal); the respawn runs clean.
    const EnvGuard guard(kFaultEnvVar, "shard=0,fail_write_at=2");
    ShardSupervisor supervisor(testConfig(dir, check, 2),
                               sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.shards[0].launches, 2u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, HungWorkerIsDetectedKilledAndRetried)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("hang");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=2,hang_after_records=1");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.hangTimeoutSeconds = 0.3;
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_TRUE(report.shards[2].everHung);
    EXPECT_EQ(report.shards[2].launches, 2u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, StealRescuesAShardThatNeverMakesProgress)
{
    // Shard 1's first record append fails on *every* attempt, so its
    // own workers can never contribute a single record. Work
    // stealing targets shard faults by scope, so the steal worker
    // (which is not shard 1) computes the victim's points cleanly
    // and the fleet still completes byte-identically - for plain and
    // adaptive sweeps alike.
    const std::vector<SystemConfig> points = testSpec().materialize();
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;

    for (const bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive" : "plain");
        const std::string dir =
            tempDir(adaptive ? "steal_adaptive" : "steal");
        MergeCheck check =
            adaptive ? adaptiveMergeCheck(points, target, schedule)
                     : sweepMergeCheck(points);
        check.shardCount = 4;
        check.layout = ShardLayout::Contiguous;
        check.dir = dir;
        const RecordStep step =
            adaptive ? adaptiveRecordStep(points, target, schedule,
                                          ebwWithSeed, 1)
                     : plainRecordStep(points, runPointSample, 1);

        // The owning shard's records, computed in this process (which
        // the shard=1 fault does not target).
        const std::string owner_path = dir + "/owner.jsonl";
        runOwnedShard(check.expectedRunFp, {1, 4},
                      ShardLayout::Contiguous, step, owner_path);
        const std::vector<PointRecord> owned =
            readRecordFile(owner_path, false);
        ASSERT_EQ(owned.size(), 2u); // shard 1 owns {2, 3}
        std::remove(owner_path.c_str());

        const EnvGuard guard(kFaultEnvVar,
                             "shard=1,attempt=any,fail_write_at=1");
        SupervisorConfig config = testConfig(dir, check, 4);
        config.maxRetries = 0;
        ShardSupervisor supervisor(config, stepBody(check, step));
        const SupervisorReport report = supervisor.run();

        ASSERT_TRUE(report.complete);
        EXPECT_EQ(report.shards[1].state, ShardState::Exhausted);
        EXPECT_GE(report.stealLaunches, 1u);
        EXPECT_GE(report.stolenPoints, 2u);

        // Every steal slice wrote exactly the owner's bytes for the
        // indices it covered.
        std::size_t stolen_records = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("steal-", 0) != 0)
                continue;
            for (const PointRecord &record :
                 readRecordFile(entry.path().string(), false)) {
                ASSERT_TRUE(record.flatIndex == 2 ||
                            record.flatIndex == 3)
                    << name;
                EXPECT_EQ(formatRecord(record),
                          formatRecord(owned[record.flatIndex - 2]))
                    << name;
                ++stolen_records;
            }
        }
        EXPECT_GE(stolen_records, 2u);

        EXPECT_EQ(mergedBytes(report, check),
                  adaptive ? serialAdaptiveBytes(points, target, schedule)
                           : serialBytes(points));
    }
}

TEST(Supervisor, HealthyUnevenFleetLaunchesNoSteals)
{
    // Shard 0 is deliberately slow, so the other three workers finish
    // long before it. A live shard computes every point it owns
    // whatever a thief writes, so stealing from it would only
    // duplicate work: the fleet must finish with no steal at all.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("uneven");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const WorkerBody fast = sweepBody(points);
    const WorkerBody slow = stepBody(
        check, plainRecordStep(
                   points,
                   [](const SystemConfig &cfg) {
                       ::usleep(150000);
                       return runPointSample(cfg);
                   },
                   1));
    const WorkerBody body = [&](const WorkerTask &task) {
        (!task.steal && task.shard.index == 0 ? slow : fast)(task);
    };
    ShardSupervisor supervisor(testConfig(dir, check, 4), body);
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.stealLaunches, 0u);
    EXPECT_EQ(report.stolenPoints, 0u);
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().filename().string().rfind("steal-", 0),
                  0u)
            << entry.path();
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, WorkerThatExitsCleanWithoutAPointIsCaught)
{
    // Shard 1 of 4 owns contiguous indices {2, 3}; its worker writes
    // index 2 only and still exits 0. Every shard ends Done, so only
    // the terminal completeness check can see the hole. With stealing
    // on, the last-chance steal computes index 3 and the merge equals
    // the serial bytes; with stealing off, the run ends partial with
    // exactly {3} missing.
    const std::vector<SystemConfig> points = testSpec().materialize();
    constexpr std::size_t kSkipped = 3;
    for (const bool steal : {true, false}) {
        const std::string dir =
            tempDir(steal ? "lied_steal" : "lied_nosteal");
        MergeCheck check = sweepMergeCheck(points);
        check.shardCount = 4;
        check.layout = ShardLayout::Contiguous;
        check.dir = dir;

        const RecordStep step = plainRecordStep(points, runPointSample, 1);
        const RecordStep lying =
            [&](const std::vector<std::size_t> &indices,
                const RecordSink &sink) {
                std::vector<std::size_t> kept;
                for (std::size_t index : indices)
                    if (index != kSkipped)
                        kept.push_back(index);
                step(kept, sink);
            };
        const WorkerBody honest = stepBody(check, step);
        const WorkerBody liar = stepBody(check, lying);
        const WorkerBody body = [&](const WorkerTask &task) {
            (!task.steal && task.shard.index == 1 ? liar : honest)(task);
        };
        SupervisorConfig config = testConfig(dir, check, 4);
        config.workStealing = steal;
        ShardSupervisor supervisor(config, body);
        const SupervisorReport report = supervisor.run();

        for (const ShardOutcome &outcome : report.shards) {
            EXPECT_EQ(outcome.state, ShardState::Done);
            EXPECT_EQ(outcome.launches, 1u);
        }
        EXPECT_EQ(report.respawns, 0u);
        if (steal) {
            ASSERT_TRUE(report.complete);
            EXPECT_EQ(report.stealLaunches, 1u);
            EXPECT_EQ(report.stolenPoints, 1u);
            EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
        } else {
            EXPECT_FALSE(report.complete);
            EXPECT_EQ(report.stealLaunches, 0u);
            EXPECT_EQ(report.missingPoints,
                      (std::vector<std::size_t>{kSkipped}));
            const PartialMerge merged =
                orderRecordFiles(report.recordFiles, check);
            EXPECT_EQ(merged.records.size(), points.size() - 1);
            EXPECT_EQ(merged.missing, report.missingPoints);
        }
    }
}

TEST(Supervisor, ExhaustionDegradesToPartialResultAndManifest)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("exhaust");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(
        kFaultEnvVar, "shard=1,attempt=any,kill_after_records=1");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.maxRetries = 0;
    config.workStealing = false;
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_FALSE(report.complete);
    EXPECT_EQ(report.shards[1].state, ShardState::Exhausted);
    EXPECT_EQ(report.shards[1].launches, 1u);

    // Shard 1 of 4 owns contiguous indices {2, 3}; the first record
    // (index 2) was flushed before the kill, so exactly {3} is
    // missing - and everything else merged fine.
    ASSERT_EQ(report.missingPoints,
              (std::vector<std::size_t>{3}));
    const PartialMerge merged =
        orderRecordFiles(report.recordFiles, check);
    EXPECT_EQ(merged.records.size(), points.size() - 1);
    EXPECT_EQ(merged.missing, report.missingPoints);

    // The machine-readable manifest names the index and the shard
    // file expected to own it.
    const std::string path = missingManifestPath(dir);
    writeMissingPointsManifest(path, check, report.missingPoints);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    const std::string manifest = os.str();
    EXPECT_NE(manifest.find("\"type\":\"sbn.missing.v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"count\":1"), std::string::npos);
    EXPECT_NE(manifest.find("\"i\":3"), std::string::npos);
    EXPECT_NE(manifest.find("\"shard\":1"), std::string::npos);
    EXPECT_NE(manifest.find(shardFilePath(dir, {1, 4})),
              std::string::npos);
}

TEST(Supervisor, InterruptKillsWorkersAndReportsTheSignal)
{
    // The supervisor's own SIGINT/SIGTERM contract: every live worker
    // is killed and reaped before run() returns, and the report
    // carries the signal so orchestrators can exit 128 + sig. The
    // supervisor runs in a forked child here because the test must
    // deliver a real SIGTERM to it without killing the test binary.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("interrupt");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Supervisor process. Workers publish their pid and hang
        // forever; only the interrupt path can end this fleet.
        const WorkerBody body = [&dir](const WorkerTask &task) {
            std::ofstream out(dir + "/worker-" +
                              std::to_string(task.shard.index) +
                              ".pid");
            out << ::getpid() << '\n';
            out.close();
            for (;;)
                ::pause();
        };
        ShardSupervisor supervisor(testConfig(dir, check, 2), body);
        const SupervisorReport report = supervisor.run();
        if (report.interruptSignal != SIGTERM)
            ::_exit(7);
        if (report.complete)
            ::_exit(8);
        ::_exit(42);
    }

    // Wait for both workers to publish their pids.
    std::vector<pid_t> workers;
    for (int spin = 0; spin < 2000 && workers.size() < 2; ++spin) {
        workers.clear();
        for (int shard = 0; shard < 2; ++shard) {
            std::ifstream in(dir + "/worker-" +
                             std::to_string(shard) + ".pid");
            pid_t pid = 0;
            if (in >> pid && pid > 0)
                workers.push_back(pid);
        }
        if (workers.size() < 2)
            ::usleep(5000);
    }
    ASSERT_EQ(workers.size(), 2u) << "workers never started";

    ASSERT_EQ(::kill(child, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << describeWaitStatus(status);
    EXPECT_EQ(WEXITSTATUS(status), 42) << describeWaitStatus(status);

    // The supervisor reaped its workers before exiting, so the pids
    // must be gone entirely - not zombies, not orphans.
    for (const pid_t pid : workers) {
        errno = 0;
        EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid
                                      << " still alive";
        EXPECT_EQ(errno, ESRCH) << "worker " << pid;
    }
}

TEST(Supervisor, InterruptIsNeverLostAnywhereInTheFleetsLife)
{
    // A SIGTERM may land anywhere in the supervision loop: during a
    // spawn, a reap, or between the loop-top signal check and the
    // wait for the next worker exit. Shard 0 never finishes and the
    // hang timeout is off, so once the others exit that wait has no
    // timeout and only the interrupt can end it: a lost wake-up hangs
    // the supervisor, which the watchdog below reports. Every seeded
    // delivery time must end run() with the signal and leave no
    // child behind, reaped or not.
    const std::vector<SystemConfig> points = testSpec().materialize();
    std::mt19937 rng(1985);
    std::uniform_int_distribution<int> delayUs(0, 40000);
    std::vector<int> delays = {0};
    for (int k = 0; k < 7; ++k)
        delays.push_back(delayUs(rng));

    for (const int delay : delays) {
        const std::string dir =
            tempDir("storm" + std::to_string(delay));
        MergeCheck check = sweepMergeCheck(points);
        check.shardCount = 4;
        check.layout = ShardLayout::Contiguous;
        check.dir = dir;

        const pid_t child = ::fork();
        ASSERT_NE(child, -1);
        if (child == 0) {
            const WorkerBody body = [&dir](const WorkerTask &task) {
                {
                    std::ofstream out(dir + "/worker-" +
                                      std::to_string(task.shard.index) +
                                      ".pid");
                    out << ::getpid() << '\n';
                }
                if (task.shard.index == 0)
                    for (;;)
                        ::pause();
                ::usleep(static_cast<useconds_t>(task.shard.index) *
                         5000);
            };
            ShardSupervisor supervisor(testConfig(dir, check, 4), body);
            const SupervisorReport report = supervisor.run();
            if (report.interruptSignal != SIGTERM)
                ::_exit(7);
            int status = 0;
            errno = 0;
            if (::waitpid(-1, &status, WNOHANG) != -1 || errno != ECHILD)
                ::_exit(9); // a worker outlived run() or was not reaped
            ::_exit(42);
        }

        // Shards launch in index order, so shard 0's pid file means
        // run() already owns SIGTERM.
        const std::string firstPid = dir + "/worker-0.pid";
        for (int spin = 0; spin < 2000; ++spin) {
            std::ifstream in(firstPid);
            pid_t pid = 0;
            if (in >> pid && pid > 0)
                break;
            ::usleep(5000);
        }
        ::usleep(static_cast<useconds_t>(delay));
        ASSERT_EQ(::kill(child, SIGTERM), 0);

        int status = 0;
        pid_t got = 0;
        for (int spin = 0; spin < 1000 && got == 0; ++spin) {
            got = ::waitpid(child, &status, WNOHANG);
            if (got == 0)
                ::usleep(10000);
        }
        if (got == 0) {
            ::kill(child, SIGKILL);
            ::waitpid(child, &status, 0);
            FAIL() << "run() did not return within 10 s of a SIGTERM "
                      "sent "
                   << delay << " us after the first launch";
        }
        ASSERT_TRUE(WIFEXITED(status))
            << describeWaitStatus(status) << " at delay " << delay;
        EXPECT_EQ(WEXITSTATUS(status), 42) << "delay " << delay;

        for (int shard = 0; shard < 4; ++shard) {
            std::ifstream in(dir + "/worker-" + std::to_string(shard) +
                             ".pid");
            pid_t pid = 0;
            if (!(in >> pid) || pid <= 0)
                continue; // never launched or killed before publishing
            errno = 0;
            EXPECT_EQ(::kill(pid, 0), -1)
                << "worker " << pid << " alive at delay " << delay;
            EXPECT_EQ(errno, ESRCH) << "worker " << pid;
        }
    }
}

TEST(FaultDeathTest, AbortInMergeCrashesTheMergeStage)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("abortmerge");
    runPlainShard(points, shardFilePath(dir, {0, 1}));

    const MergeCheck check = sweepMergeCheck(points);
    EXPECT_DEATH(
        {
            ::setenv(kFaultEnvVar, "abort_in_merge", 1);
            mergeRecordFiles({shardFilePath(dir, {0, 1})}, check);
        },
        "");
}

TEST(FaultDeathTest, MalformedFaultSpecIsFatalNotIgnored)
{
    SystemConfig cfg = testSpec().materialize().front();
    const std::string dir = tempDir("badspec");
    EXPECT_DEATH(
        {
            ::setenv(kFaultEnvVar, "kill_after_records=banana", 1);
            std::vector<SystemConfig> one{cfg};
            runPlainShard(one, shardFilePath(dir, {0, 1}));
        },
        "must not silently run fault-free");

    // SBN_FAULT_ATTEMPT follows the attempt= grammar: a value that
    // would wrap onto a real attempt (2^32), the 'any' sentinel
    // (-1, 2^32 - 1) or a sign must be fatal, not read loosely.
    {
        const EnvGuard attempt(kFaultAttemptEnvVar, "3");
        EXPECT_EQ(faultAttemptFromEnvironment(), 3u);
    }
    EXPECT_EQ(faultAttemptFromEnvironment(), 0u);
    for (const char *bad :
         {"4294967296", "-1", " +3", "4294967295", "3x", "0x1"}) {
        EXPECT_DEATH(
            {
                ::setenv(kFaultAttemptEnvVar, bad, 1);
                (void)faultAttemptFromEnvironment();
            },
            "SBN_FAULT_ATTEMPT must be a decimal attempt number")
            << bad;
    }
}

// -------------------------------------------------------- plumbing

TEST(Supervisor, ManifestPathIsCanonical)
{
    EXPECT_EQ(missingManifestPath("out"), "out/missing-points.json");
    EXPECT_EQ(missingManifestPath("out/"), "out/missing-points.json");
}

} // namespace
} // namespace sbn
