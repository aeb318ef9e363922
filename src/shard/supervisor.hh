/**
 * @file
 * Fault-tolerant supervision of a sharded-sweep worker fleet.
 *
 * ShardSupervisor owns the worker processes of a multi-shard sweep:
 * it forks one worker per shard, watches them, and drives a per-shard
 * state machine
 *
 *     Pending -> Running -> Done
 *                   |  \
 *                   |   (crash / hang) -> Backoff -> Running ...
 *                   |                        |
 *                   |                        (budget spent)
 *                   v                        v
 *                  Done                  Exhausted
 *
 * with three recovery mechanisms layered on the shard layer's
 * determinism contract (docs/sharding.md):
 *
 *  - **Retry with capped exponential backoff.** A worker that exits
 *    nonzero or dies on a signal is re-forked with resume semantics -
 *    the respawned worker keeps every record the dead one flushed and
 *    recomputes only the missing points. Each shard has a bounded
 *    retry budget; backoff doubles per failure up to a cap.
 *  - **Liveness via record-file progress.** Workers prove liveness by
 *    growing their record file. A worker whose file has not grown
 *    within the hang timeout is declared hung, SIGKILLed, and retried
 *    like a crash. No heartbeat protocol: the progress signal is the
 *    output itself, so a worker that is alive but wedged (deadlock,
 *    infinite loop, stuck I/O) is caught too.
 *  - **Work stealing.** When a shard exhausts its retry budget, a
 *    free slot runs a *steal* worker that claims the points it still
 *    owes into its own record file. Live shards are never robbed:
 *    their owner recomputes every point it owns regardless, so a
 *    thief would only duplicate work. Overlap stays harmless where it
 *    happens: every point is an independent seeded computation, so
 *    duplicates are bit-identical and the merge layer dedupes them.
 *
 * The loop is event-driven: it blocks on a SIGCHLD self-pipe
 * (util/child_wake.hh) and wakes when a worker exits, when a backoff
 * expires, or - only while a hang timeout is armed - on a 20 ms
 * liveness cadence (supervisorWakeTimeoutMillis).
 *
 * On exhausted retries the supervisor degrades gracefully instead of
 * failing blanketly: the report lists exactly which grid points have
 * no valid record, writeMissingPointsManifest() persists them
 * machine-readably, and the orchestrator emits the merged partial
 * output with the distinct kPartialResultExit code.
 *
 * The supervisor is policy; execution stays in the worker body
 * callback, which runs in the forked child (for sbn_sweep that is
 * runOwnedShard() or runStealSlice() with the sweep's record step). The
 * deterministic fault plane (shard/fault.hh) targets workers by the
 * scope the supervisor sets in each child, which is how ctest and CI
 * exercise every one of these paths on purpose.
 */

#ifndef SBN_SHARD_SUPERVISOR_HH
#define SBN_SHARD_SUPERVISOR_HH

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "shard/merge.hh"
#include "shard/plan.hh"
#include "trace/span.hh"
#include "util/exit_codes.hh" // kPartialResultExit lives there now

namespace sbn {

class ChildWake;

/** Lifecycle of one shard under supervision. */
enum class ShardState
{
    Pending,   //!< not yet launched
    Running,   //!< worker process alive
    Backoff,   //!< failed; waiting out the backoff delay
    Done,      //!< worker exited 0
    Exhausted, //!< retry budget spent without success
};

/**
 * One unit of work executed in a forked child: either a full shard
 * (resume semantics, canonical shard file) or a steal slice (explicit
 * point list, its own file).
 */
struct WorkerTask
{
    bool steal = false;
    ShardSpec shard;                 //!< full-shard task identity
    std::vector<std::size_t> points; //!< steal: claimed flat indices
    std::string outPath;             //!< record file this task writes
    unsigned attempt = 0;            //!< prior launches of this shard
};

/**
 * Executes a WorkerTask in the forked child. Must write one record
 * per computed point to task.outPath and return normally on success;
 * any exception (or process death) is a worker failure. Runs after
 * fork: single-threaded, must build its own execution resources.
 */
using WorkerBody = std::function<void(const WorkerTask &)>;

/** Supervision policy knobs. */
struct SupervisorConfig
{
    std::size_t shardCount = 1;
    std::string dir; //!< shard-file directory (canonical + steal files)
    ShardLayout layout = ShardLayout::Strided;

    /**
     * Per-point expected run fingerprints (index = flat grid index).
     * Defines the grid size and lets the supervisor decide point
     * completeness the same way resume and merge do.
     */
    std::vector<std::uint64_t> expectedRunFp;

    unsigned maxRetries = 2;    //!< respawns allowed per shard
    double backoffInitialSeconds = 0.25;
    double backoffGrowth = 2.0;
    double backoffCapSeconds = 5.0;

    /** Seconds without record-file growth before a running worker is
     *  declared hung and killed. 0 disables liveness detection. */
    double hangTimeoutSeconds = 0.0;

    bool workStealing = true;

    /** Total steal launches allowed (0 = 4 * shardCount). Bounds the
     *  loop when stolen work itself keeps failing. */
    std::size_t maxStealLaunches = 0;
};

/**
 * The capped-exponential retry delay before a shard's next relaunch,
 * as a pure function of the policy and how many launches of that
 * shard have already failed (@p failures >= 1 - the first failure is
 * failure 1):
 *
 *     min(backoffCapSeconds,
 *         backoffInitialSeconds * backoffGrowth^(failures - 1))
 *
 * Factored out of the supervision loop so the schedule is unit-
 * testable against a deterministic clock (tests/test_supervisor.cc)
 * instead of being pinned by wall-clock sleeps.
 */
double supervisorBackoffSeconds(const SupervisorConfig &config,
                                unsigned failures);

/** One task as the supervision loop's wake-up timeout sees it. */
struct SupervisorWakeTask
{
    ShardState state = ShardState::Pending;
    std::chrono::steady_clock::time_point wakeAt{}; //!< Backoff only
};

/**
 * How long the supervision loop may block before it has work due, in
 * milliseconds (-1: until a worker exits or a signal arrives), as a
 * pure function of the task states, their backoff deadlines and the
 * hang timeout. It is the earliest of
 *
 *  - 0 while a task is Pending (its launch is due now);
 *  - the time left until the earliest Backoff task's wakeAt, rounded
 *    up to a whole millisecond (0 once it has passed);
 *  - the fixed 20 ms liveness cadence, but only while
 *    @p hang_timeout_seconds > 0 and some task is Running.
 *
 * Worker exits and SIGINT/SIGTERM end the wait early through the
 * loop's ChildWake. Factored out like supervisorBackoffSeconds() so
 * the schedule is pinned against a deterministic clock
 * (tests/test_supervisor.cc).
 */
int supervisorWakeTimeoutMillis(const std::vector<SupervisorWakeTask> &tasks,
                                double hang_timeout_seconds,
                                std::chrono::steady_clock::time_point now);

/** Terminal accounting for one shard. */
struct ShardOutcome
{
    ShardState state = ShardState::Pending;
    unsigned launches = 0; //!< processes forked for this shard
    int lastStatus = 0;    //!< raw waitpid status of the last failure
    bool everHung = false; //!< a launch was killed by the hang timer
};

/** What a supervised run accomplished. */
struct SupervisorReport
{
    bool complete = false; //!< every grid point has a valid record
    /**
     * Nonzero when run() stopped because the supervisor itself caught
     * SIGINT/SIGTERM: every live worker was SIGKILLed and reaped
     * before returning, and `complete` reflects whatever records
     * survived. Orchestrators should exit 128 + interruptSignal.
     */
    int interruptSignal = 0;
    std::vector<ShardOutcome> shards;
    std::vector<std::size_t> missingPoints; //!< ascending flat indices
    /**
     * Record files that exist - canonical shard files + steal files,
     * in merge order - with the records the terminal check read from
     * them (torn tails dropped) after the last worker exited. The
     * fleet's one read of its output: merge with orderRecordFiles().
     */
    std::vector<RecordFile> recordFiles;
    std::size_t respawns = 0;      //!< failure-triggered relaunches
    std::size_t stealLaunches = 0; //!< steal workers forked
    std::size_t stolenPoints = 0;  //!< points claimed across steals
};

/**
 * Supervises one fleet of shard workers to completion or budget
 * exhaustion. Construct, then call run() exactly once. The
 * supervisor forks; call it before creating any thread pool in the
 * parent (sbn_sweep's --spawn discipline).
 */
class ShardSupervisor
{
  public:
    ShardSupervisor(SupervisorConfig config, WorkerBody body);
    ~ShardSupervisor(); // out-of-line: Task is incomplete here

    /**
     * Run the fleet; blocks until every shard is Done or Exhausted
     * and no steal worker is in flight - or until the supervisor
     * process catches SIGINT/SIGTERM, in which case every live worker
     * is SIGKILLed and reaped (no orphans) and the report carries the
     * signal in interruptSignal. Handlers are installed for the
     * duration of run() and restored on return.
     */
    SupervisorReport run();

  private:
    struct Task;

    void spawn(Task &task);
    void killAndReapAllWorkers();
    bool reapExited();      //!< true when a worker was reaped
    bool killHungWorkers(); //!< true when a hung worker was killed
    void launchDueRespawns();
    void maybeSteal();
    void launchSteal(const std::vector<std::size_t> &points,
                     std::size_t victim);
    std::size_t stealLaunches() const;
    void handleFailure(Task &task, int status, bool hung);
    void closeAttemptSpan(Task &task, const char *outcome, int status,
                          bool hung);
    std::vector<RecordFile> readExistingRecordFiles() const;
    std::vector<bool>
    satisfiedPoints(const std::vector<RecordFile> &files) const;
    std::size_t runningCount() const;
    bool allShardsTerminal() const;

    SupervisorConfig config_;
    WorkerBody body_;
    std::vector<Task> shardTasks_;
    std::vector<Task> stealTasks_;
    std::size_t stealSequence_ = 0;
    ChildWake *wake_ = nullptr; //!< run()'s; spawn() resets it in children
    bool stealBroken_ = false; //!< a steal worker failed; stop stealing
    SupervisorReport report_;

    // Span tracing (trace/span.hh); all zero when SBN_TRACE_DIR is
    // unset. Each worker launch is one "attempt" span whose id is
    // allocated before the fork and exported to the child, so worker
    // processes parent their own spans under it.
    TraceContext trace_;          //!< this fleet's trace coordinates
    std::uint64_t runSpanId_ = 0; //!< the whole run's "supervise" span
    std::uint64_t runStartUs_ = 0;
};

/** Canonical manifest path: dir/missing-points.json. */
std::string missingManifestPath(const std::string &dir);

/**
 * Persist the machine-readable missing-points manifest (atomic
 * temp+rename): one JSON object naming every missing flat index and,
 * when @p check carries shard attribution, the shard file expected
 * to own it.
 */
void writeMissingPointsManifest(const std::string &path,
                                const MergeCheck &check,
                                const std::vector<std::size_t> &missing);

} // namespace sbn

#endif // SBN_SHARD_SUPERVISOR_HH
