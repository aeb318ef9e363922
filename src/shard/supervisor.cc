#include "shard/supervisor.hh"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "shard/fault.hh"
#include "telemetry/telemetry.hh"
#include "shard/result_io.hh"
#include "util/child_wake.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

using Clock = std::chrono::steady_clock;

/** How often record files are checked for growth while a hang
 *  timeout is armed and a worker runs. */
constexpr std::chrono::milliseconds kLivenessCadence{20};

/** Size of @p path, or -1 when it does not exist (yet). */
long long
fileSize(const std::string &path)
{
    struct stat info;
    if (::stat(path.c_str(), &info) != 0)
        return -1;
    return static_cast<long long>(info.st_size);
}

bool
fileExists(const std::string &path)
{
    struct stat info;
    return ::stat(path.c_str(), &info) == 0;
}

/**
 * Signal caught while a supervisor's run() loop owns the fleet.
 * async-signal-safe: the handler stores the number and wakes the
 * loop's ChildWake, so a signal that lands between the loop-top check
 * and a blocking wait still ends that wait.
 */
volatile sig_atomic_t g_supervisorSignal = 0;

extern "C" void
supervisorSignalHandler(int sig)
{
    g_supervisorSignal = sig;
    ChildWake::notify();
}

/** RAII install/restore of the SIGINT/SIGTERM interrupt handlers. */
class SignalGuard
{
  public:
    SignalGuard()
    {
        g_supervisorSignal = 0;
        struct sigaction action;
        action.sa_handler = supervisorSignalHandler;
        ::sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // no SA_RESTART: interrupt the wait
        ::sigaction(SIGINT, &action, &previousInt_);
        ::sigaction(SIGTERM, &action, &previousTerm_);
    }

    ~SignalGuard()
    {
        ::sigaction(SIGINT, &previousInt_, nullptr);
        ::sigaction(SIGTERM, &previousTerm_, nullptr);
    }

  private:
    struct sigaction previousInt_;
    struct sigaction previousTerm_;
};

} // namespace

double
supervisorBackoffSeconds(const SupervisorConfig &config,
                         unsigned failures)
{
    sbn_assert(failures >= 1,
               "backoff is only defined after a failure");
    return std::min(
        config.backoffCapSeconds,
        config.backoffInitialSeconds *
            std::pow(config.backoffGrowth,
                     static_cast<double>(failures - 1)));
}

int
supervisorWakeTimeoutMillis(const std::vector<SupervisorWakeTask> &tasks,
                            double hang_timeout_seconds,
                            std::chrono::steady_clock::time_point now)
{
    Clock::duration timeout = Clock::duration::max();
    for (const SupervisorWakeTask &task : tasks) {
        if (task.state == ShardState::Pending)
            return 0;
        if (task.state == ShardState::Backoff)
            timeout = std::min(timeout,
                               std::max(task.wakeAt - now,
                                        Clock::duration::zero()));
        if (task.state == ShardState::Running &&
            hang_timeout_seconds > 0.0)
            timeout = std::min<Clock::duration>(timeout,
                                                kLivenessCadence);
    }
    if (timeout == Clock::duration::max())
        return -1;
    // Round up: a wake a fraction of a millisecond early would find
    // nothing due and spin.
    const auto millis =
        std::chrono::ceil<std::chrono::milliseconds>(timeout).count();
    return static_cast<int>(std::min<long long>(
        millis, std::numeric_limits<int>::max()));
}

/** One supervised process slot (a shard or a steal slice). */
struct ShardSupervisor::Task
{
    WorkerTask work;
    ShardState state = ShardState::Pending;
    pid_t pid = -1;
    unsigned launches = 0;
    int lastStatus = 0;
    bool everHung = false;
    Clock::time_point wakeAt;       //!< backoff deadline
    long long lastSize = -1;        //!< liveness: last seen file size
    Clock::time_point lastProgress; //!< liveness: last growth time

    // Span tracing (zero when off): the open attempt span and, while
    // the task waits in Backoff, when that wait started.
    std::uint64_t attemptSpanId = 0;
    std::uint64_t attemptStartUs = 0;
    std::uint64_t backoffStartUs = 0;
};

ShardSupervisor::ShardSupervisor(SupervisorConfig config,
                                 WorkerBody body)
    : config_(std::move(config)), body_(std::move(body))
{
    sbn_assert(config_.shardCount >= 1,
               "supervisor needs at least one shard");
    sbn_assert(!config_.expectedRunFp.empty(),
               "supervisor needs the expected run fingerprints");
    sbn_assert(config_.maxRetries < 1000,
               "retry budget is implausibly large");
    if (config_.maxStealLaunches == 0)
        config_.maxStealLaunches = 4 * config_.shardCount;

    shardTasks_.resize(config_.shardCount);
    for (std::size_t i = 0; i < config_.shardCount; ++i) {
        Task &task = shardTasks_[i];
        task.work.steal = false;
        task.work.shard = {i, config_.shardCount};
        task.work.outPath =
            shardFilePath(config_.dir, task.work.shard);
    }
}

ShardSupervisor::~ShardSupervisor() = default;

void
ShardSupervisor::spawn(Task &task)
{
    task.work.attempt = task.launches;
    const std::string what =
        task.work.steal ? "steal task"
                        : "shard " + task.work.shard.toString();
    // Trace: the attempt span's id is allocated before the fork so
    // the child can parent its own spans under it; the span itself is
    // emitted parent-side when the worker is reaped. A pending
    // backoff wait closes here - the respawn ends it.
    task.attemptSpanId = traceAllocSpanId();
    task.attemptStartUs = traceNowMicros();
    if (task.backoffStartUs != 0) {
        traceEmitSpan(trace_, "backoff", what + " backoff",
                      runSpanId_, task.backoffStartUs,
                      task.attemptStartUs,
                      {{"attempt", std::to_string(task.launches)}});
        task.backoffStartUs = 0;
    }
    const pid_t supervisorPid = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        sbn_fatal("supervisor: fork failed for ", what);
    if (pid == 0) {
        // Child. Shed the supervisor's signal handlers and wake pipe
        // first: a worker inheriting them would swallow the Ctrl-C
        // meant to stop the fleet. Then declare identity for fault
        // targeting, run the body, and leave via _exit so no
        // parent-owned stdio buffer or static destructor runs twice.
        ::signal(SIGINT, SIG_DFL);
        ::signal(SIGTERM, SIG_DFL);
        wake_->resetInChild();
#ifdef __linux__
        // No-orphan hardening: if the supervisor itself dies by
        // SIGKILL (kill-anywhere testing, OOM), the kernel kills the
        // worker too - its record file needs no cleanup. The getppid
        // check closes the race where the supervisor died between
        // fork and prctl (the death signal only fires on *future*
        // parent deaths).
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != supervisorPid)
            ::_exit(1);
#endif
        setFaultProcessScope(task.work.steal ? kFaultNoShard
                                             : task.work.shard.index,
                             task.work.attempt);
        if (task.attemptSpanId != 0)
            exportTraceContext({trace_.traceId, task.attemptSpanId});
        try {
            body_(task.work);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    task.pid = pid;
    task.state = ShardState::Running;
    ++task.launches;
    task.lastSize = fileSize(task.work.outPath);
    task.lastProgress = Clock::now();
}

void
ShardSupervisor::closeAttemptSpan(Task &task, const char *outcome,
                                  int status, bool hung)
{
    if (task.attemptSpanId == 0)
        return;
    std::vector<TraceAttr> attrs = {
        {"outcome", outcome},
        {"attempt", std::to_string(task.work.attempt)},
    };
    if (task.work.steal)
        attrs.emplace_back("steal_points",
                           std::to_string(task.work.points.size()));
    else
        attrs.emplace_back("shard", task.work.shard.toString());
    if (status != 0)
        attrs.emplace_back("status", describeWaitStatus(status));
    if (hung)
        attrs.emplace_back("hung", "1");
    traceEmitSpanWithId(
        trace_, task.attemptSpanId, "attempt",
        task.work.steal
            ? "steal attempt"
            : "shard " + task.work.shard.toString() + " attempt " +
                  std::to_string(task.work.attempt),
        runSpanId_, task.attemptStartUs, traceNowMicros(), attrs);
    task.attemptSpanId = 0;
}

void
ShardSupervisor::handleFailure(Task &task, int status, bool hung)
{
    closeAttemptSpan(task, "fail", status, hung);
    task.lastStatus = status;
    task.everHung = task.everHung || hung;
    task.pid = -1;

    if (task.work.steal) {
        // Stolen work has no budget of its own: the victim's points
        // are still tracked as missing, so losing a thief costs
        // nothing but the duplicate effort. A failing thief usually
        // means the failure is not shard-specific, though, so stop
        // stealing rather than loop on it.
        task.state = ShardState::Done;
        stealBroken_ = true;
        sbn_warn("supervisor: steal worker (",
                 describeWaitStatus(status), hung ? ", hung" : "",
                 ") failed; disabling further work stealing");
        return;
    }

    if (task.launches >= config_.maxRetries + 1) {
        task.state = ShardState::Exhausted;
        sbn_warn("supervisor: shard ", task.work.shard.toString(),
                 " exhausted its retry budget (", task.launches,
                 " launch(es), last failure: ",
                 describeWaitStatus(status), hung ? ", hung" : "",
                 ")");
        return;
    }

    // Capped exponential backoff keyed to how often this shard has
    // failed: transient causes (OOM kill, node blip) get a fast
    // retry, repeat offenders back off harder.
    const double seconds =
        supervisorBackoffSeconds(config_, task.launches);
    task.state = ShardState::Backoff;
    task.wakeAt = Clock::now() +
                  std::chrono::microseconds(
                      static_cast<long long>(seconds * 1e6));
    task.backoffStartUs = traceNowMicros();
    ++report_.respawns;
    telemetryAdd(TelemetryCounter::SupervisorRespawns, 1);
    sbn_warn("supervisor: shard ", task.work.shard.toString(),
             " worker failed (", describeWaitStatus(status),
             hung ? ", hung" : "", "); respawning with resume in ",
             seconds, "s (attempt ", task.launches + 1, " of ",
             config_.maxRetries + 1, ")");
}

bool
ShardSupervisor::reapExited()
{
    bool reaped = false;
    const auto reap = [&](Task &task) {
        if (task.state != ShardState::Running)
            return;
        int status = 0;
        const pid_t got = ::waitpid(task.pid, &status, WNOHANG);
        if (got == 0)
            return;
        reaped = true;
        if (got < 0) {
            // Should not happen (we own the child); treat as failure
            // so supervision cannot wedge on a lost pid.
            handleFailure(task, -1, false);
            return;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            closeAttemptSpan(task, "ok", 0, false);
            task.state = ShardState::Done;
            task.pid = -1;
        } else {
            handleFailure(task, status, false);
        }
    };
    for (Task &task : shardTasks_)
        reap(task);
    for (Task &task : stealTasks_)
        reap(task);
    return reaped;
}

bool
ShardSupervisor::killHungWorkers()
{
    if (config_.hangTimeoutSeconds <= 0.0)
        return false;
    bool killed = false;
    const auto deadline = std::chrono::microseconds(
        static_cast<long long>(config_.hangTimeoutSeconds * 1e6));
    const auto check = [&](Task &task) {
        if (task.state != ShardState::Running)
            return;
        const long long size = fileSize(task.work.outPath);
        if (size != task.lastSize) {
            task.lastSize = size;
            task.lastProgress = Clock::now();
            return;
        }
        if (Clock::now() - task.lastProgress < deadline)
            return;
        // No record progress within the deadline: the worker is
        // declared hung. SIGKILL (not SIGTERM): a wedged process may
        // not run handlers, and the record file needs no cleanup -
        // that is the whole point of the append+flush format.
        const std::string what =
            task.work.steal ? "steal worker"
                            : "shard " + task.work.shard.toString();
        sbn_warn("supervisor: ", what,
                 " made no record progress for ",
                 config_.hangTimeoutSeconds,
                 "s; killing the hung worker (pid ", task.pid, ")");
        ::kill(task.pid, SIGKILL);
        const std::uint64_t killUs = traceNowMicros();
        traceEmitSpan(trace_, "hang_kill", what + " hang kill",
                      task.attemptSpanId, killUs, killUs,
                      {{"pid", std::to_string(task.pid)}});
        telemetryAdd(TelemetryCounter::SupervisorHangKills, 1);
        int status = 0;
        ::waitpid(task.pid, &status, 0);
        handleFailure(task, status, /*hung=*/true);
        killed = true;
    };
    for (Task &task : shardTasks_)
        check(task);
    for (Task &task : stealTasks_)
        check(task);
    return killed;
}

void
ShardSupervisor::launchDueRespawns()
{
    const Clock::time_point now = Clock::now();
    for (Task &task : shardTasks_) {
        if (task.state == ShardState::Pending ||
            (task.state == ShardState::Backoff && now >= task.wakeAt))
            spawn(task);
    }
}

std::vector<std::string>
ShardSupervisor::existingRecordFiles() const
{
    std::vector<std::string> files;
    for (const Task &task : shardTasks_)
        if (fileExists(task.work.outPath))
            files.push_back(task.work.outPath);
    for (const Task &task : stealTasks_)
        if (fileExists(task.work.outPath))
            files.push_back(task.work.outPath);
    return files;
}

std::vector<bool>
ShardSupervisor::satisfiedPoints() const
{
    // A point is satisfied when any record file holds a record whose
    // run fingerprint matches what the sweep expects there - the
    // exact criterion resume and merge use, so the supervisor never
    // declares done what the merge would reject.
    std::vector<bool> satisfied(config_.expectedRunFp.size(), false);
    for (const std::string &path : existingRecordFiles()) {
        for (const PointRecord &record :
             readRecordFile(path, /*tolerate_partial_tail=*/true)) {
            if (record.flatIndex < satisfied.size() &&
                record.runFp ==
                    config_.expectedRunFp[record.flatIndex])
                satisfied[record.flatIndex] = true;
        }
    }
    return satisfied;
}

std::size_t
ShardSupervisor::runningCount() const
{
    std::size_t running = 0;
    for (const Task &task : shardTasks_)
        running += task.state == ShardState::Running;
    for (const Task &task : stealTasks_)
        running += task.state == ShardState::Running;
    return running;
}

bool
ShardSupervisor::allShardsTerminal() const
{
    for (const Task &task : shardTasks_)
        if (task.state != ShardState::Done &&
            task.state != ShardState::Exhausted)
            return false;
    return true;
}

void
ShardSupervisor::maybeSteal()
{
    // Only an Exhausted shard is a victim. A live (running or
    // backed-off) owner computes every point it owns whatever a thief
    // writes - its canonical file must stay byte-identical - so a
    // steal from it would be pure duplicate work, and the fleet would
    // then wait for the thief as well.
    const auto canSteal = [&] {
        return config_.workStealing && !stealBroken_ &&
               stealLaunches() < config_.maxStealLaunches &&
               runningCount() < config_.shardCount;
    };
    const auto exhausted = [](const Task &task) {
        return task.state == ShardState::Exhausted;
    };
    if (!canSteal() ||
        std::none_of(shardTasks_.begin(), shardTasks_.end(), exhausted))
        return;

    const std::vector<bool> satisfied = satisfiedPoints();
    std::set<std::size_t> claimed;
    for (const Task &task : stealTasks_)
        if (task.state == ShardState::Running)
            claimed.insert(task.work.points.begin(),
                           task.work.points.end());

    // One thief per free slot, each claiming everything the
    // exhausted shard with the most unclaimed missing points owes.
    const ShardPlan plan(config_.expectedRunFp.size(),
                         config_.shardCount, config_.layout);
    while (canSteal()) {
        std::size_t victim = config_.shardCount;
        std::vector<std::size_t> victimMissing;
        for (std::size_t i = 0; i < config_.shardCount; ++i) {
            if (!exhausted(shardTasks_[i]))
                continue;
            std::vector<std::size_t> missing;
            for (std::size_t index : plan.indices(i))
                if (!satisfied[index] && claimed.count(index) == 0)
                    missing.push_back(index);
            if (missing.size() > victimMissing.size()) {
                victim = i;
                victimMissing = std::move(missing);
            }
        }
        if (victimMissing.empty())
            return;
        claimed.insert(victimMissing.begin(), victimMissing.end());
        launchSteal(victimMissing, victim);
    }
}

void
ShardSupervisor::launchSteal(const std::vector<std::size_t> &points,
                             std::size_t victim)
{
    stealTasks_.emplace_back();
    Task &task = stealTasks_.back();
    task.work.steal = true;
    task.work.shard = {victim < config_.shardCount ? victim : 0,
                       config_.shardCount};
    task.work.points = points;
    std::string path = config_.dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    task.work.outPath =
        path + "steal-" + std::to_string(stealSequence_++) + ".jsonl";
    report_.stolenPoints += points.size();
    ++report_.stealLaunches;
    telemetryAdd(TelemetryCounter::SupervisorSteals, 1);
    // stderr, not sbn_inform: orchestrators reserve stdout for the
    // merged record stream.
    std::fprintf(stderr,
                 "supervisor: free worker stealing %zu missing "
                 "point(s) from shard %s -> %s\n",
                 points.size(),
                 victim < config_.shardCount
                     ? shardTasks_[victim].work.shard.toString().c_str()
                     : "(unowned)",
                 task.work.outPath.c_str());
    spawn(task);
}

std::size_t
ShardSupervisor::stealLaunches() const
{
    return report_.stealLaunches;
}

void
ShardSupervisor::killAndReapAllWorkers()
{
    // SIGKILL, not SIGTERM: the fleet is being torn down and the
    // record format needs no cleanup (append + flush); a worker that
    // ignored a gentler signal would become the very orphan this
    // path exists to prevent. The blocking waitpid guarantees no
    // worker pid outlives the supervisor's return.
    const auto killOne = [&](Task &task) {
        if (task.state != ShardState::Running || task.pid < 0)
            return;
        ::kill(task.pid, SIGKILL);
        int status = 0;
        ::waitpid(task.pid, &status, 0);
        closeAttemptSpan(task, "interrupted", status, false);
        task.lastStatus = status;
        task.pid = -1;
        task.state = ShardState::Exhausted;
    };
    for (Task &task : shardTasks_)
        killOne(task);
    for (Task &task : stealTasks_)
        killOne(task);
}

SupervisorReport
ShardSupervisor::run()
{
    // Block on worker exits instead of a timer, and own SIGINT/SIGTERM
    // while the fleet exists: an interrupted supervisor must not
    // orphan its forked workers. The pipe exists before the handlers
    // that write to it; children reset both after fork (spawn()).
    ChildWake wake;
    wake_ = &wake;
    SignalGuard guard;

    // Trace: the whole supervised run is one span, parented under
    // whatever context launched this process (the daemon's job span,
    // or nothing for a root CLI run).
    if (traceEnabled()) {
        trace_ = inheritedTraceContext();
        if (!trace_.valid())
            trace_.traceId = newTraceId();
        runSpanId_ = traceAllocSpanId();
        runStartUs_ = traceNowMicros();
    }

    for (;;) {
        if (g_supervisorSignal != 0) {
            const int sig = static_cast<int>(g_supervisorSignal);
            sbn_warn("supervisor: caught signal ", sig,
                     "; killing and reaping ", runningCount(),
                     " live worker(s) before exiting");
            killAndReapAllWorkers();
            report_.interruptSignal = sig;
            break;
        }

        // Steal scans follow state changes only: a slot frees and a
        // shard becomes Exhausted only when a worker ends.
        const bool reaped = reapExited();
        const bool killed = killHungWorkers();
        launchDueRespawns();
        if (reaped || killed)
            maybeSteal();

        if (allShardsTerminal() && runningCount() == 0) {
            const std::vector<bool> satisfied = satisfiedPoints();
            std::vector<std::size_t> missing;
            for (std::size_t i = 0; i < satisfied.size(); ++i)
                if (!satisfied[i])
                    missing.push_back(i);
            if (missing.empty())
                break;
            // Last-chance stealing: every shard is terminal, so any
            // remaining hole belongs to an exhausted shard (or a
            // worker that lied about success). Free slots exist by
            // definition; claim the lot, bounded by the steal-launch
            // budget.
            if (!config_.workStealing || stealBroken_ ||
                stealLaunches() >= config_.maxStealLaunches)
                break;
            launchSteal(missing, config_.shardCount);
            continue;
        }

        std::vector<SupervisorWakeTask> wakeTasks;
        for (const std::vector<Task> *tasks : {&shardTasks_, &stealTasks_})
            for (const Task &task : *tasks)
                wakeTasks.push_back({task.state, task.wakeAt});
        wake.wait(supervisorWakeTimeoutMillis(
            wakeTasks, config_.hangTimeoutSeconds, Clock::now()));
    }
    wake_ = nullptr;

    // Terminal accounting.
    const std::vector<bool> satisfied = satisfiedPoints();
    report_.missingPoints.clear();
    for (std::size_t i = 0; i < satisfied.size(); ++i)
        if (!satisfied[i])
            report_.missingPoints.push_back(i);
    report_.complete = report_.missingPoints.empty();
    report_.recordFiles = existingRecordFiles();
    report_.shards.clear();
    for (const Task &task : shardTasks_) {
        ShardOutcome outcome;
        outcome.state = task.state;
        outcome.launches = task.launches;
        outcome.lastStatus = task.lastStatus;
        outcome.everHung = task.everHung;
        report_.shards.push_back(outcome);
    }

    if (runSpanId_ != 0)
        traceEmitSpanWithId(
            trace_, runSpanId_, "supervise", "supervise fleet",
            trace_.spanId, runStartUs_, traceNowMicros(),
            {{"shards", std::to_string(config_.shardCount)},
             {"respawns", std::to_string(report_.respawns)},
             {"steal_launches",
              std::to_string(report_.stealLaunches)},
             {"complete", report_.complete ? "1" : "0"}});
    return report_;
}

std::string
missingManifestPath(const std::string &dir)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + "missing-points.json";
}

void
writeMissingPointsManifest(const std::string &path,
                           const MergeCheck &check,
                           const std::vector<std::size_t> &missing)
{
    const bool attributed = check.shardCount != 0;
    std::string body = "{\"type\":\"sbn.missing.v1\",\"grid\":";
    body += std::to_string(check.gridSize);
    body += ",\"shards\":";
    body += std::to_string(check.shardCount);
    body += ",\"layout\":\"";
    body += attributed ? shardLayoutName(check.layout) : "unknown";
    body += "\",\"count\":";
    body += std::to_string(missing.size());
    body += ",\"missing\":[";
    const ShardPlan plan(check.gridSize,
                         attributed ? check.shardCount : 1,
                         check.layout);
    for (std::size_t k = 0; k < missing.size(); ++k) {
        if (k != 0)
            body += ',';
        FlatWriter entry;
        entry.unsignedInt("i", missing[k]);
        if (attributed) {
            const std::size_t owner = plan.owner(missing[k]);
            entry.unsignedInt("shard", owner)
                .string("file",
                        shardFilePath(check.dir, {owner, check.shardCount}));
        }
        body += entry.finish();
    }
    body += "]}\n";

    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp);
        out << body;
        out.flush();
        if (!out.good())
            sbn_fatal("cannot write missing-points manifest '", tmp,
                      "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        sbn_fatal("cannot rename '", tmp, "' over '", path, "'");
}

} // namespace sbn
