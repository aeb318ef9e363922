/**
 * @file
 * Execution of sweep points into shard record files, with resume.
 *
 * A RecordStep computes the PointRecords of a list of flat grid
 * indices and hands them on in increasing-index order. A sweep has
 * two kinds: plainRecordStep() (one seeded run per point) and
 * adaptiveRecordStep() (replications grown per point until a
 * precision target or cap). Two runs drive a step into a file:
 *
 *  - runOwnedShard() computes the points a ShardSpec owns under a
 *    ShardPlan and appends one record per finished point to the
 *    shard's JSONL file, flushing per record so a killed worker loses
 *    at most the line it was writing;
 *  - runStealSlice() computes an explicit index list (the shard
 *    supervisor's work-stealing path) into a fresh file.
 *
 * Resume (@p resume = true) first reads the existing file leniently
 * (a truncated final line - the kill artifact - is dropped), keeps
 * every record whose run fingerprint matches the point the sweep
 * expects at that index, and only computes the points still missing.
 * Records from a different grid, seed or precision setup never match
 * and are discarded with a warning, so a stale file cannot poison a
 * resumed run. A clean file (exactly the kept records, canonical
 * order - the common case) is appended to in place, and so is an
 * absent or empty file when nothing is kept, resume or not; when
 * cleanup is needed (dropped records, a truncated tail, out-of-order
 * resume interleaving, or a fresh run over a file with bytes) the
 * file is replaced via an atomic temp+rename rewrite, so the
 * durability bound above survives crashes at any point and a
 * finished resumed shard file is byte-identical to an uninterrupted
 * run's.
 *
 * Determinism: every point is an independent seeded computation - an
 * adaptive point's seeds and round schedule depend only on its own
 * config - so a step's record for index i is bit-identical whichever
 * other indices share the call and at any thread count. Merging shard
 * and steal files therefore reproduces the serial record stream
 * exactly.
 */

#ifndef SBN_SHARD_RUNNER_HH
#define SBN_SHARD_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/adaptive.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"

namespace sbn {

/** What one shard run did. */
struct ShardRunStats
{
    std::size_t owned = 0;    //!< points the shard is responsible for
    std::size_t skipped = 0;  //!< satisfied by resumed records
    std::size_t computed = 0; //!< freshly simulated this run
};

/** Receives one finished point's record. */
using RecordSink = std::function<void(const PointRecord &)>;

/**
 * Computes the records of @p indices (flat grid indices, strictly
 * increasing) and passes each to the sink exactly once, in
 * increasing-index order.
 */
using RecordStep = std::function<void(
    const std::vector<std::size_t> &indices, const RecordSink &sink)>;

/**
 * The plain-sweep step: one @p evaluate call per point, fanned over
 * the shared runner with @p threads workers (0 = defaultExecThreads(),
 * resolved when the step runs), records from makeSweepRecord(). A
 * sample carries latency only when its config collected it, so with
 * collectLatency off the records equal the EBW-only ones byte for
 * byte. @p points must outlive the step; @p evaluate must be safe to
 * call concurrently when threads > 1.
 */
RecordStep plainRecordStep(
    const std::vector<SystemConfig> &points,
    std::function<PointSample(const SystemConfig &)> evaluate =
        runPointSample,
    unsigned threads = 0);

/**
 * The adaptive-precision step: each point replicates (seeds derived
 * from its config.seed, @p experiment called per replication) until
 * @p target or the @p schedule cap, through
 * AdaptiveReplicator::runPoints(); records from makeAdaptiveRecord().
 * @p points must outlive the step.
 */
RecordStep adaptiveRecordStep(
    const std::vector<SystemConfig> &points,
    const PrecisionTarget &target, const RoundSchedule &schedule,
    std::function<double(const SystemConfig &, std::uint64_t)>
        experiment,
    unsigned threads = 0);

/**
 * Run shard @p shard of a sweep into @p out_path: the points it owns
 * under ShardPlan(expected_run_fp.size(), shard.count, layout),
 * computed by @p step. @p expected_run_fp holds the run fingerprint
 * the sweep expects at every flat index (MergeCheck::expectedRunFp);
 * with @p resume it decides which existing records are kept.
 */
ShardRunStats runOwnedShard(
    const std::vector<std::uint64_t> &expected_run_fp,
    const ShardSpec &shard, ShardLayout layout, const RecordStep &step,
    const std::string &out_path, bool resume = false);

/**
 * Run an explicit stolen slice: compute exactly the flat indices in
 * @p stolen (strictly increasing) with @p step and truncate-write
 * their records to @p out_path. The records are bit-identical to what
 * the owning shard writes for the same indices, so overlap with the
 * victim is safe.
 */
ShardRunStats runStealSlice(const std::vector<std::size_t> &stolen,
                            const RecordStep &step,
                            const std::string &out_path);

} // namespace sbn

#endif // SBN_SHARD_RUNNER_HH
