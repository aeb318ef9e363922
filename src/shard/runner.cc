#include "shard/runner.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "exec/parallel_runner.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

/** Validate a step's index list: strictly increasing, in range. */
void
checkIndices(const std::vector<std::size_t> &indices,
             std::size_t grid_size)
{
    for (std::size_t k = 0; k < indices.size(); ++k) {
        sbn_assert(indices[k] < grid_size,
                   "record step index out of the grid");
        sbn_assert(k == 0 || indices[k - 1] < indices[k],
                   "record step indices must be strictly increasing");
    }
}

/** The shared runner a step with @p threads workers uses. Resolved
 *  per call, so a step built before a fork makes no pool there. */
ParallelRunner &
stepRunner(unsigned threads)
{
    return sharedParallelRunner(threads != 0 ? threads
                                             : defaultExecThreads());
}

} // namespace

RecordStep
plainRecordStep(const std::vector<SystemConfig> &points,
                std::function<PointSample(const SystemConfig &)> evaluate,
                unsigned threads)
{
    return [&points, evaluate = std::move(evaluate), threads](
               const std::vector<std::size_t> &indices,
               const RecordSink &sink) {
        checkIndices(indices, points.size());
        stepRunner(threads).stream<PointSample>(
            indices.size(),
            [&](std::size_t k) { return evaluate(points[indices[k]]); },
            [&](std::size_t k, const PointSample &sample) {
                sink(makeSweepRecord(indices[k], points[indices[k]],
                                     sample));
            });
    };
}

RecordStep
adaptiveRecordStep(
    const std::vector<SystemConfig> &points,
    const PrecisionTarget &target, const RoundSchedule &schedule,
    std::function<double(const SystemConfig &, std::uint64_t)>
        experiment,
    unsigned threads)
{
    return [&points, target, schedule,
            experiment = std::move(experiment),
            threads](const std::vector<std::size_t> &indices,
                     const RecordSink &sink) {
        checkIndices(indices, points.size());
        std::vector<SystemConfig> selected;
        selected.reserve(indices.size());
        for (std::size_t index : indices)
            selected.push_back(points[index]);
        const AdaptiveReplicator replicator(stepRunner(threads), target,
                                            schedule);
        replicator.runPoints(
            selected, experiment,
            [&](std::size_t k, const SystemConfig &cfg,
                const AdaptiveEstimate &estimate) {
                sink(makeAdaptiveRecord(indices[k], cfg, estimate,
                                        target, schedule));
            });
    };
}

ShardRunStats
runOwnedShard(const std::vector<std::uint64_t> &expected_run_fp,
              const ShardSpec &shard, ShardLayout layout,
              const RecordStep &step, const std::string &out_path,
              bool resume)
{
    const ShardPlan plan(expected_run_fp.size(), shard.count, layout);
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
            if (record.flatIndex >= plan.gridSize() ||
                plan.owner(record.flatIndex) != shard.index) {
                sbn_warn("resume: dropping record for flat index ",
                         record.flatIndex, " in '", out_path,
                         "' - shard ", shard.toString(), " (",
                         shardLayoutName(layout),
                         ") does not own that point");
                dropped = true;
                continue;
            }
            const std::uint64_t expected =
                expected_run_fp[record.flatIndex];
            if (record.runFp != expected) {
                sbn_warn("resume: dropping stale record for flat "
                         "index ",
                         record.flatIndex, " in '", out_path,
                         "' - run fingerprint ",
                         formatFingerprint(record.runFp),
                         " does not match the current sweep (",
                         formatFingerprint(expected), ")");
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

    step(missing, [&](const PointRecord &record) { writer.add(record); });

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

ShardRunStats
runStealSlice(const std::vector<std::size_t> &stolen,
              const RecordStep &step, const std::string &out_path)
{
    // Fresh truncate-write: a steal file carries only this launch's
    // records. A predecessor's partial file stays on disk under its
    // own name, so its flushed records still count for the fleet.
    RecordWriter writer(out_path, /*append=*/false);
    step(stolen, [&](const PointRecord &record) { writer.add(record); });

    ShardRunStats stats;
    stats.owned = stolen.size();
    stats.computed = stolen.size();
    return stats;
}

} // namespace sbn
