#include "shard/runner.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/fingerprint.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

/**
 * Shared scaffolding of both shard run modes: plan the owned
 * indices, resume-filter the existing file, stream the missing
 * points through @p compute, and leave the file in canonical order.
 *
 * @p expected_fp maps owned flat index -> expected run fingerprint.
 * @p compute(missing, writer) must append one record per index of
 * @p missing (strictly increasing), in increasing-index order.
 */
ShardRunStats
runShardCommon(
    std::size_t grid_size, const ShardSpec &shard, ShardLayout layout,
    const std::map<std::size_t, std::uint64_t> &expected_fp,
    const std::string &out_path, bool resume,
    const std::function<void(const std::vector<std::size_t> &,
                             RecordWriter &)> &compute)
{
    const ShardPlan plan(grid_size, shard.count, layout);
    const std::vector<std::size_t> owned = plan.indices(shard.index);

    ShardRunStats stats;
    stats.owned = owned.size();

    // A previous worker may have died mid-rewrite, leaving a stale
    // partial '<file>.tmp.<pid>' next to the record file. The rename
    // never happened, so the temp holds nothing the record file does
    // not; discard it rather than let temps accumulate.
    if (resume)
        removeStaleRewriteTemps(out_path);

    // Resume: harvest usable records. Only records that address an
    // owned point *and* carry the exact run fingerprint the sweep
    // expects there survive. Track whether the file on disk is
    // *exactly* the kept records in ascending order - the common
    // clean-resume case - because then it can be appended to in
    // place, preserving the "a kill loses at most the line being
    // written" durability bound with no rewrite at all.
    std::map<std::size_t, PointRecord> kept;
    bool file_is_kept_canonical = false;
    if (resume) {
        const std::vector<PointRecord> parsed =
            readRecordFile(out_path, /*tolerate_partial_tail=*/true);
        bool dropped = false;
        bool sorted = true;
        for (const PointRecord &record : parsed) {
            const auto it = expected_fp.find(record.flatIndex);
            if (it == expected_fp.end()) {
                sbn_warn("resume: dropping record for flat index ",
                         record.flatIndex, " in '", out_path,
                         "' - shard ", shard.toString(), " (",
                         shardLayoutName(layout),
                         ") does not own that point");
                dropped = true;
                continue;
            }
            if (record.runFp != it->second) {
                sbn_warn("resume: dropping stale record for flat "
                         "index ",
                         record.flatIndex, " in '", out_path,
                         "' - run fingerprint ",
                         formatFingerprint(record.runFp),
                         " does not match the current sweep (",
                         formatFingerprint(it->second), ")");
                dropped = true;
                continue;
            }
            const auto slot = kept.find(record.flatIndex);
            if (slot != kept.end()) {
                if (!slot->second.bitIdentical(record))
                    sbn_fatal("resume: '", out_path,
                              "' holds two different records for "
                              "flat index ",
                              record.flatIndex,
                              " with matching fingerprints - the "
                              "file is corrupt");
                dropped = true; // benign duplicate, still a rewrite
                continue;
            }
            if (!kept.empty() &&
                record.flatIndex < kept.rbegin()->first)
                sorted = false;
            kept.emplace(record.flatIndex, record);
        }
        if (!dropped && sorted) {
            // Nothing was filtered and the order is canonical; the
            // fast path needs the file to be *byte-wise* exactly the
            // kept records' deterministic serialization. Size alone
            // is not enough - the parser accepts non-canonical but
            // bit-equivalent decimal spellings (e.g. "3.0" for "3"),
            // so compare the actual bytes.
            std::string canonical;
            for (const auto &entry : kept) {
                canonical += formatRecord(entry.second);
                canonical += '\n';
            }
            std::ifstream probe(out_path, std::ios::binary);
            if (probe.good()) {
                std::ostringstream actual;
                actual << probe.rdbuf();
                file_is_kept_canonical = actual.str() == canonical;
            }
        }
    }
    stats.skipped = kept.size();

    // Make the file state "kept records, canonical order": in place
    // when it already is, else via an atomic temp+rename replacement
    // (a crash mid-rewrite exposes the old file or the new one,
    // never a half-written mix).
    if (!file_is_kept_canonical) {
        std::vector<PointRecord> kept_sorted;
        kept_sorted.reserve(kept.size());
        for (const auto &entry : kept)
            kept_sorted.push_back(entry.second);
        rewriteRecordsAtomic(out_path, kept_sorted);
    }

    // Stream the missing points in increasing-index order behind the
    // kept block, one flushed line per completed point.
    RecordWriter writer(out_path, /*append=*/true);

    std::vector<std::size_t> missing;
    missing.reserve(owned.size() - kept.size());
    for (std::size_t index : owned)
        if (kept.find(index) == kept.end())
            missing.push_back(index);
    stats.computed = missing.size();

    compute(missing, writer);

    // A resume that skipped points out of order (kept = {0, 2},
    // computed = {1, 3}) appended behind the kept block; restore
    // flat-index order (atomically) so a resumed shard file is
    // byte-identical to an uninterrupted run's.
    if (!kept.empty() && !missing.empty() &&
        missing.front() < kept.rbegin()->first) {
        std::vector<PointRecord> all =
            readRecordFile(out_path, /*tolerate_partial_tail=*/false);
        std::sort(all.begin(), all.end(),
                  [](const PointRecord &a, const PointRecord &b) {
                      return a.flatIndex < b.flatIndex;
                  });
        rewriteRecordsAtomic(out_path, all);
    }
    return stats;
}

std::map<std::size_t, std::uint64_t>
ownedFingerprints(const std::vector<SystemConfig> &points,
                  const ShardSpec &shard, ShardLayout layout,
                  const std::function<std::uint64_t(std::uint64_t)>
                      &mix)
{
    const ShardPlan plan(points.size(), shard.count, layout);
    std::map<std::size_t, std::uint64_t> expected;
    for (std::size_t index : plan.indices(shard.index))
        expected.emplace(index,
                         mix(configFingerprint(points[index])));
    return expected;
}

/** Validate a stolen-slice index list: strictly increasing, in range. */
void
checkStolenIndices(const std::vector<std::size_t> &stolen,
                   std::size_t grid_size)
{
    for (std::size_t k = 0; k < stolen.size(); ++k) {
        sbn_assert(stolen[k] < grid_size,
                   "stolen index out of the grid");
        sbn_assert(k == 0 || stolen[k - 1] < stolen[k],
                   "stolen indices must be strictly increasing");
    }
}

} // namespace

ShardRunStats
runShardSweep(
    const std::vector<SystemConfig> &points, const ShardSpec &shard,
    ShardLayout layout,
    const std::function<double(const SystemConfig &)> &evaluate,
    const std::string &out_path, bool resume, unsigned threads)
{
    const auto expected = ownedFingerprints(
        points, shard, layout,
        [](std::uint64_t fp) { return sweepRunFingerprint(fp); });

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());

    return runShardCommon(
        points.size(), shard, layout, expected, out_path, resume,
        [&](const std::vector<std::size_t> &missing,
            RecordWriter &writer) {
            runner.mapConfigsStreamedSubset(
                points, missing, evaluate,
                [&](std::size_t index, const SystemConfig &cfg,
                    double value) {
                    writer.add(makeSweepRecord(index, cfg, value));
                });
        });
}

ShardRunStats
runShardSweep(
    const SweepSpec &spec, const ShardSpec &shard, ShardLayout layout,
    const std::function<double(const SystemConfig &)> &evaluate,
    const std::string &out_path, bool resume, unsigned threads)
{
    return runShardSweep(spec.materialize(), shard, layout, evaluate,
                         out_path, resume, threads);
}

ShardRunStats
runShardSweep(
    const std::vector<SystemConfig> &points, const ShardSpec &shard,
    ShardLayout layout,
    const std::function<PointSample(const SystemConfig &)> &evaluate,
    const std::string &out_path, bool resume, unsigned threads)
{
    const auto expected = ownedFingerprints(
        points, shard, layout,
        [](std::uint64_t fp) { return sweepRunFingerprint(fp); });

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());

    return runShardCommon(
        points.size(), shard, layout, expected, out_path, resume,
        [&](const std::vector<std::size_t> &missing,
            RecordWriter &writer) {
            runner.stream<PointSample>(
                missing.size(),
                [&](std::size_t k) {
                    return evaluate(points[missing[k]]);
                },
                [&](std::size_t k, const PointSample &sample) {
                    writer.add(makeSweepRecord(
                        missing[k], points[missing[k]], sample));
                });
        });
}

ShardRunStats
runShardSweep(
    const SweepSpec &spec, const ShardSpec &shard, ShardLayout layout,
    const std::function<PointSample(const SystemConfig &)> &evaluate,
    const std::string &out_path, bool resume, unsigned threads)
{
    return runShardSweep(spec.materialize(), shard, layout, evaluate,
                         out_path, resume, threads);
}

ShardRunStats
runShardAdaptive(
    const std::vector<SystemConfig> &points, const ShardSpec &shard,
    ShardLayout layout, const PrecisionTarget &target,
    const RoundSchedule &schedule,
    const std::function<double(const SystemConfig &, std::uint64_t)>
        &experiment,
    const std::string &out_path, bool resume, unsigned threads)
{
    const auto expected = ownedFingerprints(
        points, shard, layout, [&](std::uint64_t fp) {
            return adaptiveRunFingerprint(fp, target, schedule);
        });

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());
    const AdaptiveReplicator replicator(runner, target, schedule);

    return runShardCommon(
        points.size(), shard, layout, expected, out_path, resume,
        [&](const std::vector<std::size_t> &missing,
            RecordWriter &writer) {
            replicator.runPointsSubset(
                points, missing, experiment,
                [&](std::size_t index, const SystemConfig &cfg,
                    const AdaptiveEstimate &estimate) {
                    writer.add(makeAdaptiveRecord(
                        index, cfg, estimate, target, schedule));
                });
        });
}

ShardRunStats
runShardAdaptive(
    const SweepSpec &spec, const ShardSpec &shard, ShardLayout layout,
    const PrecisionTarget &target, const RoundSchedule &schedule,
    const std::function<double(const SystemConfig &, std::uint64_t)>
        &experiment,
    const std::string &out_path, bool resume, unsigned threads)
{
    return runShardAdaptive(spec.materialize(), shard, layout, target,
                            schedule, experiment, out_path, resume,
                            threads);
}

ShardRunStats
runStolenPointsSweep(
    const std::vector<SystemConfig> &points,
    const std::vector<std::size_t> &stolen,
    const std::function<double(const SystemConfig &)> &evaluate,
    const std::string &out_path, unsigned threads)
{
    checkStolenIndices(stolen, points.size());

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());

    // Fresh truncate-write: a steal file carries only this launch's
    // records. A predecessor's partial file stays on disk under its
    // own name, so its flushed records still count for the fleet.
    RecordWriter writer(out_path, /*append=*/false);
    runner.mapConfigsStreamedSubset(
        points, stolen, evaluate,
        [&](std::size_t index, const SystemConfig &cfg,
            double value) {
            writer.add(makeSweepRecord(index, cfg, value));
        });

    ShardRunStats stats;
    stats.owned = stolen.size();
    stats.computed = stolen.size();
    return stats;
}

ShardRunStats
runStolenPointsSweep(
    const std::vector<SystemConfig> &points,
    const std::vector<std::size_t> &stolen,
    const std::function<PointSample(const SystemConfig &)> &evaluate,
    const std::string &out_path, unsigned threads)
{
    checkStolenIndices(stolen, points.size());

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());

    RecordWriter writer(out_path, /*append=*/false);
    runner.stream<PointSample>(
        stolen.size(),
        [&](std::size_t k) { return evaluate(points[stolen[k]]); },
        [&](std::size_t k, const PointSample &sample) {
            writer.add(
                makeSweepRecord(stolen[k], points[stolen[k]], sample));
        });

    ShardRunStats stats;
    stats.owned = stolen.size();
    stats.computed = stolen.size();
    return stats;
}

ShardRunStats
runStolenPointsAdaptive(
    const std::vector<SystemConfig> &points,
    const std::vector<std::size_t> &stolen,
    const PrecisionTarget &target, const RoundSchedule &schedule,
    const std::function<double(const SystemConfig &, std::uint64_t)>
        &experiment,
    const std::string &out_path, unsigned threads)
{
    checkStolenIndices(stolen, points.size());

    ParallelRunner &runner = sharedParallelRunner(
        threads != 0 ? threads : defaultExecThreads());
    const AdaptiveReplicator replicator(runner, target, schedule);

    RecordWriter writer(out_path, /*append=*/false);
    replicator.runPointsSubset(
        points, stolen, experiment,
        [&](std::size_t index, const SystemConfig &cfg,
            const AdaptiveEstimate &estimate) {
            writer.add(makeAdaptiveRecord(index, cfg, estimate,
                                          target, schedule));
        });

    ShardRunStats stats;
    stats.owned = stolen.size();
    stats.computed = stolen.size();
    return stats;
}

} // namespace sbn
