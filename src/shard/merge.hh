/**
 * @file
 * Reassembly of shard record files into the flat-grid ordered stream.
 *
 * The merge layer reads every shard's JSONL file, validates the
 * records against the sweep they claim to belong to, and returns them
 * sorted by flat index - the same order, and (because records
 * serialize deterministically) the same bytes, as the single-process
 * streamed run would have produced. Validation is strict:
 *
 *  - every flat index in [0, gridSize) must be present exactly once;
 *    a missing point names the holes, a duplicated point is accepted
 *    only if the copies are bit-identical (two shards may legally
 *    recompute the same point - determinism makes the copies equal);
 *  - when per-point run fingerprints are supplied, every record must
 *    carry the expected fingerprint for its index, so records from a
 *    different grid, seed, or adaptive setup are rejected instead of
 *    silently merged.
 */

#ifndef SBN_SHARD_MERGE_HH
#define SBN_SHARD_MERGE_HH

#include <ostream>
#include <string>
#include <vector>

#include "shard/plan.hh"
#include "shard/result_io.hh"

namespace sbn {

/** What a merge validates incoming records against. */
struct MergeCheck
{
    std::size_t gridSize = 0;
    /** Per-point expected run fingerprints (empty = structure-only
     *  validation: indices, completeness, duplicate consistency). */
    std::vector<std::uint64_t> expectedRunFp;

    /**
     * Optional shard-plan attribution: when shardCount != 0,
     * missing-point diagnostics name the shard file expected to own
     * each hole (dir + ShardPlan::owner), not just the index.
     */
    std::size_t shardCount = 0;
    ShardLayout layout = ShardLayout::Strided;
    std::string dir;
};

/** Full-validation check for a plain sweep over @p points. */
MergeCheck sweepMergeCheck(const std::vector<SystemConfig> &points);

/** Full-validation check for an adaptive sweep over @p points. */
MergeCheck adaptiveMergeCheck(const std::vector<SystemConfig> &points,
                              const PrecisionTarget &target,
                              const RoundSchedule &schedule);

/** Structure-only check when the spec is not at hand. */
MergeCheck structuralMergeCheck(std::size_t grid_size);

/** Canonical shard file name: dir/shard-<i>-of-<N>.jsonl. */
std::string shardFilePath(const std::string &dir,
                          const ShardSpec &shard);

/** The canonical file paths of every shard of an N-shard run. */
std::vector<std::string> shardFilePaths(const std::string &dir,
                                        std::size_t shard_count);

/**
 * A merge that tolerates holes: the records found (flat order) plus
 * the grid indices with no record (ascending).
 */
struct PartialMerge
{
    std::vector<PointRecord> records;
    std::vector<std::size_t> missing;

    bool complete() const { return missing.empty(); }
};

/** One record file as read: its path and its records, file order. */
struct RecordFile
{
    std::string path;
    std::vector<PointRecord> records;
};

/**
 * Read every file of @p paths, in order, with readRecordFile()'s
 * rules: fatal naming the file on a malformed line, except that with
 * @p tolerate_partial_tail a torn final line per file (the kill
 * artifact) is dropped.
 */
std::vector<RecordFile>
readRecordFiles(const std::vector<std::string> &paths,
                bool tolerate_partial_tail);

/**
 * Validate and order records already read, tolerating missing points
 * (reported in the result, not fatal). Everything else - foreign
 * fingerprints, conflicting duplicates, out-of-grid indices - is
 * fatal with the offending file named. The supervised fleet merges
 * this way from the record files its terminal check already read
 * (SupervisorReport::recordFiles).
 */
PartialMerge orderRecordFiles(const std::vector<RecordFile> &files,
                              const MergeCheck &check);

/**
 * readRecordFiles() then orderRecordFiles(): read, validate and
 * order the records of @p paths under @p check, tolerating missing
 * points.
 */
PartialMerge
collectRecordFiles(const std::vector<std::string> &paths,
                   const MergeCheck &check,
                   bool tolerate_partial_tail = false);

/**
 * Human-readable accounting of @p missing grid indices under
 * @p check: exact indices grouped by the shard file expected to own
 * them (when the check carries shard attribution), capped per group.
 */
std::string describeMissingPoints(const MergeCheck &check,
                                  const std::vector<std::size_t> &missing);

/**
 * Read, validate and order the records of @p paths under @p check.
 * Fatal (with the offending file/index named, and holes grouped by
 * their expected owner shard file) on any validation failure; the
 * result holds exactly gridSize records in flat order.
 */
std::vector<PointRecord>
mergeRecordFiles(const std::vector<std::string> &paths,
                 const MergeCheck &check);

/** Serialize @p records (one line each) in the given order. */
void writeRecords(std::ostream &os,
                  const std::vector<PointRecord> &records);

} // namespace sbn

#endif // SBN_SHARD_MERGE_HH
