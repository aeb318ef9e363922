/**
 * @file
 * Shared sweep-run plumbing between the sbn_sweep CLI and the
 * sbn_sweepd job runner.
 *
 * Both front ends execute the same thing - an EBW sweep over the
 * paper's parameter grid, optionally under ShardSupervisor - so the
 * option grammar, the worker bodies and the supervised-run core live
 * here once. A daemon job's "spec" is literally an sbn_sweep flag
 * string (`--n=8 --m=16 --p=0.2,0.6 --spawn=2 ...`), tokenized and
 * parsed by the same code path that parses the CLI, which is what
 * guarantees a submitted job computes byte-for-byte what the
 * equivalent local command would.
 *
 * A spec deliberately has no say over *where* results land: --dir,
 * --resume and the stage selectors (--merge/--shard/--spawn-as-mode)
 * stay with the front ends (the daemon assigns each job its own
 * directory under the state dir). --spawn inside a spec names the
 * worker count the job wants; the daemon honors it.
 */

#ifndef SBN_SERVICE_SWEEPRUN_HH
#define SBN_SERVICE_SWEEPRUN_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "exec/adaptive.hh"
#include "exec/sweep.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/runner.hh"
#include "shard/supervisor.hh"

namespace sbn {

/** Everything a sweep run needs to know about WHAT to compute and
 *  how to supervise it - nothing about where the files go. */
struct SweepRunOptions
{
    SweepSpec spec;
    bool adaptive = false;
    PrecisionTarget target;
    RoundSchedule schedule;
    unsigned threads = 0; //!< 0 = defaultExecThreads()
    ShardLayout layout = ShardLayout::Strided;

    // Supervision policy (--spawn fleets).
    unsigned retries = 2;         //!< respawns allowed per shard
    double hangTimeout = 0.0;     //!< seconds; 0 = liveness off
    double backoffInitial = 0.25; //!< first-retry backoff seconds
    bool steal = true;            //!< work stealing on by default

    /** --spawn=K worker count; 0 = the flag was not given. */
    std::size_t spawnShards = 0;

    /**
     * --telemetry[=FILE]: collect run telemetry (src/telemetry) for
     * this sweep. Shard workers append per-launch JSONL sidecars
     * (telemetry-shard-*.jsonl) next to their record files; the CLI
     * front end additionally dumps a whole-process snapshot at exit
     * to @c telemetryDump ("-" = stderr).
     */
    bool telemetry = false;
    std::string telemetryDump = "-";

    /**
     * --latency: collect per-request wait/residence histograms in
     * every point run (config.collectLatency) and carry their
     * p50/p90/p99/max summary in plain-sweep point records. Passive:
     * EBW values and record fingerprints are unchanged. Adaptive
     * records do not carry latency (their value is a replication
     * aggregate, not one run).
     */
    bool latency = false;

    /**
     * --trace[=DIR]: cross-process span tracing (trace/span.hh).
     * Every process of the run appends sbn.trace.v1 spans to its own
     * shard under DIR; bare --trace lets the front end pick the
     * directory (the sweep's --dir, or the daemon job's directory).
     * Arm with armSweepTracing() once the directory is known.
     */
    bool trace = false;
    std::string traceDir;
};

class CommandLine;

/**
 * Help text for every flag parseSweepRunOptions() understands - the
 * vocabulary legal inside a submitted job spec. Front ends merge
 * their own stage/transport flags on top.
 */
const std::map<std::string, std::string> &sweepFlagHelp();

/** Parse the sweep portion of a command line. Fatal (sbn_fatal) on
 *  malformed values, like every CLI entry point. */
SweepRunOptions parseSweepRunOptions(const CommandLine &cli);

/**
 * Split a spec string into argv-style tokens on runs of whitespace.
 * No quoting: sweep flags never need embedded spaces, and rejecting
 * quote characters keeps the daemon's input surface boring. Fatal on
 * quote or backslash characters.
 */
std::vector<std::string> tokenizeSpecString(const std::string &spec);

/**
 * Parse a full spec string ("--n=8 --m=16 --spawn=2 ...") as the
 * daemon's job runner does: tokenize, then parse with exactly the
 * sweepFlagHelp() vocabulary. Fatal on unknown flags or bad values -
 * callers that must survive a bad spec (the daemon validating a
 * submit) run this in a throwaway forked child and inspect its exit
 * status (specParsesCleanly()).
 */
SweepRunOptions parseSweepSpecString(const std::string &spec);

/**
 * True when @p spec parses cleanly, decided in a forked child so the
 * fatal-on-error parser can never take the calling process down.
 * This is how the daemon rejects a malformed submit with a
 * `bad_spec` error instead of dying on it.
 */
bool specParsesCleanly(const std::string &spec);

/**
 * Arm span tracing for this process when @p opt asked for it: sets
 * SBN_TRACE_DIR to opt.traceDir (or @p default_dir for a bare
 * --trace) unless tracing is already armed - an inherited
 * SBN_TRACE_DIR from a parent process always wins, so a supervised
 * worker or daemon runner never re-points the shard directory. Call
 * from single-threaded front-end context, like every setenv.
 */
void armSweepTracing(const SweepRunOptions &opt,
                     const std::string &default_dir);

/** The MergeCheck matching @p opt's mode - plain-sweep or adaptive
 *  fingerprints over @p points. */
MergeCheck sweepRunMergeCheck(const SweepRunOptions &opt,
                              const std::vector<SystemConfig> &points);

/**
 * The record step of @p opt's mode over @p points: plainRecordStep()
 * with evaluateSweepPointSample, or adaptiveRecordStep() with
 * evaluateSweepReplication and @p opt's precision setup. The one
 * place a sweep run picks between the two. @p points must outlive
 * the step.
 */
RecordStep sweepRecordStep(const SweepRunOptions &opt,
                           const std::vector<SystemConfig> &points);

/** Run one full shard of @p opt's sweep into its canonical file under
 *  @p dir, reporting stats on stderr (the --shard mode). */
ShardRunStats runSweepShard(const SweepRunOptions &opt,
                            const ShardSpec &shard,
                            const std::string &dir, bool resume);

/** One seeded run per point, returning the full PointSample (EBW +
 *  latency summary when cfg.collectLatency); plain sweeps. */
PointSample evaluateSweepPointSample(const SystemConfig &cfg);

/** The per-replication evaluator (adaptive sweeps). */
double evaluateSweepReplication(const SystemConfig &cfg,
                                std::uint64_t seed);

/** What a supervised sweep run produced. */
struct SupervisedSweepOutcome
{
    SupervisorReport report;
    MergeCheck check;
    /** Every record the fleet wrote, in flat order, merged from the
     *  supervisor's terminal read (report.recordFiles, torn tails
     *  dropped). Empty when the run was interrupted by a signal (an
     *  interrupted fleet's output is not a result). */
    PartialMerge merged;
};

/**
 * Run a @p shard_count-worker supervised fleet of @p opt's sweep
 * into @p dir (created/probed first), then collect the records.
 * Forks; call before creating any thread pool in this process.
 */
SupervisedSweepOutcome runSupervisedSweep(const SweepRunOptions &opt,
                                          std::size_t shard_count,
                                          const std::string &dir,
                                          bool resume_first_launch);

} // namespace sbn

#endif // SBN_SERVICE_SWEEPRUN_HH
