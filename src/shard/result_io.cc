#include "shard/result_io.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/fingerprint.hh"
#include "shard/fault.hh"
#include "telemetry/telemetry.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace sbn {

namespace {

// v3: plain-sweep records may carry the latency quantile summary
// (config.collectLatency) as an optional lat_* key group. v2 added
// the workload serialization (the workload layer also bumped the
// config-fingerprint version, so v1 records are doubly stale).
constexpr const char *kRecordType = "sbn.point.v3";

} // namespace

const char *
runModeName(RunMode mode)
{
    return mode == RunMode::Sweep ? "sweep" : "adaptive";
}

bool
PointRecord::bitIdentical(const PointRecord &other) const
{
    if (hasLatency != other.hasLatency)
        return false;
    if (hasLatency) {
        const LatencySummary &a = latency;
        const LatencySummary &b = other.latency;
        if (a.samples != b.samples ||
            doubleBits(a.waitP50) != doubleBits(b.waitP50) ||
            doubleBits(a.waitP90) != doubleBits(b.waitP90) ||
            doubleBits(a.waitP99) != doubleBits(b.waitP99) ||
            doubleBits(a.waitMax) != doubleBits(b.waitMax) ||
            doubleBits(a.residenceP50) != doubleBits(b.residenceP50) ||
            doubleBits(a.residenceP90) != doubleBits(b.residenceP90) ||
            doubleBits(a.residenceP99) != doubleBits(b.residenceP99) ||
            doubleBits(a.residenceMax) != doubleBits(b.residenceMax))
            return false;
    }
    return flatIndex == other.flatIndex &&
           configFp == other.configFp && runFp == other.runFp &&
           masterSeed == other.masterSeed && mode == other.mode &&
           workload == other.workload &&
           replications == other.replications &&
           rounds == other.rounds && converged == other.converged &&
           doubleBits(mean) == doubleBits(other.mean) &&
           doubleBits(halfWidth) == doubleBits(other.halfWidth);
}

std::uint64_t
sweepRunFingerprint(std::uint64_t config_fp)
{
    return fingerprintMix(config_fp, 0x53574545502e7631ull);
}

std::uint64_t
adaptiveRunFingerprint(std::uint64_t config_fp,
                       const PrecisionTarget &target,
                       const RoundSchedule &schedule)
{
    std::uint64_t state =
        fingerprintMix(config_fp, 0x41444150542e7631ull);
    state = fingerprintMix(state, doubleBits(target.relative));
    state = fingerprintMix(state, doubleBits(target.absolute));
    state = fingerprintMix(state, doubleBits(target.level));
    state = fingerprintMix(state, schedule.initial);
    state = fingerprintMix(state, doubleBits(schedule.growth));
    state = fingerprintMix(state, schedule.cap);
    return state;
}

PointRecord
makeSweepRecord(std::size_t flat_index, const SystemConfig &config,
                double value)
{
    PointRecord record;
    record.flatIndex = flat_index;
    record.configFp = configFingerprint(config);
    record.runFp = sweepRunFingerprint(record.configFp);
    record.masterSeed = config.seed;
    record.mode = RunMode::Sweep;
    record.workload = formatWorkload(config.workload);
    record.replications = 1;
    record.rounds = 0;
    record.converged = true;
    record.mean = value;
    record.halfWidth = 0.0;
    return record;
}

PointRecord
makeSweepRecord(std::size_t flat_index, const SystemConfig &config,
                const PointSample &sample)
{
    PointRecord record = makeSweepRecord(flat_index, config, sample.ebw);
    record.hasLatency = sample.hasLatency;
    if (sample.hasLatency)
        record.latency = sample.latency;
    return record;
}

PointRecord
makeAdaptiveRecord(std::size_t flat_index, const SystemConfig &config,
                   const AdaptiveEstimate &estimate,
                   const PrecisionTarget &target,
                   const RoundSchedule &schedule)
{
    PointRecord record;
    record.flatIndex = flat_index;
    record.configFp = configFingerprint(config);
    record.runFp =
        adaptiveRunFingerprint(record.configFp, target, schedule);
    record.masterSeed = config.seed;
    record.mode = RunMode::Adaptive;
    record.workload = formatWorkload(config.workload);
    record.replications = estimate.estimate.samples;
    record.rounds = estimate.rounds;
    record.converged = estimate.converged;
    record.mean = estimate.estimate.mean;
    record.halfWidth = estimate.estimate.halfWidth;
    return record;
}

std::string
formatRecord(const PointRecord &record)
{
    FlatWriter out;
    out.string("type", kRecordType)
        .unsignedInt("i", record.flatIndex)
        .string("config", formatFingerprint(record.configFp))
        .string("run", formatFingerprint(record.runFp))
        .unsignedInt("seed", record.masterSeed)
        .string("mode", runModeName(record.mode))
        .string("workload", record.workload)
        .unsignedInt("reps", record.replications)
        .unsignedInt("rounds", record.rounds)
        .boolean("converged", record.converged)
        .exactPair("mean", record.mean)
        .exactPair("hw", record.halfWidth);
    if (record.hasLatency) {
        const LatencySummary &lat = record.latency;
        out.unsignedInt("lat_n", lat.samples)
            .exactPair("lw50", lat.waitP50)
            .exactPair("lw90", lat.waitP90)
            .exactPair("lw99", lat.waitP99)
            .exactPair("lwmax", lat.waitMax)
            .exactPair("lr50", lat.residenceP50)
            .exactPair("lr90", lat.residenceP90)
            .exactPair("lr99", lat.residenceP99)
            .exactPair("lrmax", lat.residenceMax);
    }
    return out.finish();
}

bool
parseRecord(const std::string &line, PointRecord &out,
            std::string &error)
{
    FlatObject fields;
    if (!parseFlatObject(line, fields, error))
        return false;
    FlatReader read(fields, error);

    PointRecord record;
    std::string text;
    std::uint64_t number = 0;

    if (!read.string("type", text))
        return false;
    if (text != kRecordType) {
        error = "unknown record type '" + text + "' (expected " +
                kRecordType + ")";
        return false;
    }

    if (!read.unsignedInt("i", number))
        return false;
    record.flatIndex = static_cast<std::size_t>(number);

    if (!read.string("config", text))
        return false;
    if (!parseFingerprint(text, record.configFp)) {
        error = "'config' is not a 0x fingerprint: " + text;
        return false;
    }
    if (!read.string("run", text))
        return false;
    if (!parseFingerprint(text, record.runFp)) {
        error = "'run' is not a 0x fingerprint: " + text;
        return false;
    }

    if (!read.unsignedInt("seed", record.masterSeed))
        return false;

    if (!read.string("mode", text))
        return false;
    if (text == "sweep") {
        record.mode = RunMode::Sweep;
    } else if (text == "adaptive") {
        record.mode = RunMode::Adaptive;
    } else {
        error = "unknown mode '" + text + "'";
        return false;
    }

    if (!read.string("workload", record.workload))
        return false;
    if (record.workload.empty()) {
        error = "'workload' must name the point's workload";
        return false;
    }

    if (!read.unsignedInt("reps", record.replications))
        return false;
    if (record.replications == 0) {
        error = "'reps' must be positive";
        return false;
    }

    if (!read.unsignedInt("rounds", number))
        return false;
    if (number > 0xffffffffull) {
        error = "'rounds' is not a valid count: " + std::to_string(number);
        return false;
    }
    record.rounds = static_cast<std::uint32_t>(number);

    if (!read.boolean("converged", record.converged) ||
        !read.exactPair("mean", record.mean) ||
        !read.exactPair("hw", record.halfWidth))
        return false;

    // Optional latency group: lat_n's presence commits the record to
    // the full key set, so a partially written group still fails.
    if (read.has("lat_n")) {
        record.hasLatency = true;
        LatencySummary &lat = record.latency;
        if (!read.unsignedInt("lat_n", lat.samples) ||
            !read.exactPair("lw50", lat.waitP50) ||
            !read.exactPair("lw90", lat.waitP90) ||
            !read.exactPair("lw99", lat.waitP99) ||
            !read.exactPair("lwmax", lat.waitMax) ||
            !read.exactPair("lr50", lat.residenceP50) ||
            !read.exactPair("lr90", lat.residenceP90) ||
            !read.exactPair("lr99", lat.residenceP99) ||
            !read.exactPair("lrmax", lat.residenceMax))
            return false;
    }

    if (!read.finish())
        return false;
    out = record;
    return true;
}

std::vector<PointRecord>
readRecordFile(const std::string &path, bool tolerate_partial_tail)
{
    std::ifstream in(path);
    if (!in.good()) {
        // Lenient mode forgives only a file that does not exist (a
        // fresh shard). A file that is *present* but unreadable
        // (permissions, I/O error) must fail loudly: a resume that
        // shrugged it off would rewrite the shard from scratch and
        // silently discard every finished point.
        struct stat info;
        if (tolerate_partial_tail &&
            stat(path.c_str(), &info) != 0 && errno == ENOENT)
            return {};
        sbn_fatal("cannot open shard record file '", path, "'");
    }

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);

    std::vector<PointRecord> records;
    records.reserve(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        PointRecord record;
        std::string error;
        if (parseRecord(lines[i], record, error)) {
            records.push_back(record);
            continue;
        }
        if (tolerate_partial_tail && i + 1 == lines.size()) {
            sbn_warn("dropping truncated final record of '", path,
                     "' (line ", i + 1, ": ", error,
                     ") - the writer was likely killed mid-append");
            break;
        }
        sbn_fatal("malformed record in '", path, "' line ", i + 1,
                  ": ", error);
    }
    return records;
}

namespace {

/** Split @p path into (parent directory, basename). */
void
splitPath(const std::string &path, std::string &dir, std::string &base)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) {
        dir = ".";
        base = path;
    } else {
        dir = slash == 0 ? "/" : path.substr(0, slash);
        base = path.substr(slash + 1);
    }
}

/**
 * Best-effort fsync of the directory holding @p path, so the rename
 * that just published a rewrite is itself durable. Failure is not
 * fatal: some filesystems refuse O_RDONLY directory syncs, and the
 * data-file fsync already happened.
 */
void
syncParentDir(const std::string &path)
{
    std::string dir, base;
    splitPath(path, dir, base);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    (void)::fsync(fd);
    ::close(fd);
}

} // namespace

void
rewriteRecordsAtomic(const std::string &path,
                     const std::vector<PointRecord> &records)
{
    // Process-unique temp name: a supervisor respawn racing a dying
    // predecessor (or two resumes launched by hand) never write the
    // same temp file; rename() then publishes whichever finished.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        RecordWriter writer(tmp, /*append=*/false);
        for (const PointRecord &record : records)
            writer.add(record);
        // The canonical rewrite is the durability-critical write: it
        // *replaces* records that were already safe on disk, so its
        // bytes must be durable before the rename makes them the only
        // copy.
        writer.sync();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        sbn_fatal("cannot rename '", tmp, "' over '", path, "'");
    syncParentDir(path);
}

std::size_t
removeStaleRewriteTemps(const std::string &path)
{
    std::string dir, base;
    splitPath(path, dir, base);
    const std::string prefix = base + ".tmp";

    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        return 0;
    std::vector<std::string> stale;
    while (const dirent *entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.compare(0, prefix.size(), prefix) == 0)
            stale.push_back(dir + "/" + name);
    }
    ::closedir(handle);

    std::size_t removed = 0;
    for (const std::string &victim : stale) {
        if (::unlink(victim.c_str()) == 0) {
            sbn_warn("removed stale rewrite temp '", victim,
                     "' - a previous rewrite of '", path,
                     "' was killed before its rename");
            ++removed;
        }
    }
    return removed;
}

void
ensureWritableShardDir(const std::string &dir)
{
    if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        sbn_fatal("cannot create shard directory '", dir,
                  "': ", std::strerror(errno));

    struct stat info;
    if (stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode))
        sbn_fatal("shard directory path '", dir,
                  "' exists but is not a directory");

    // Permission bits lie to privileged processes and say nothing
    // about read-only mounts; proving writability means writing.
    const std::string probe = dir + "/.sbn-writable-probe-" +
                              std::to_string(::getpid());
    {
        std::ofstream out(probe);
        out << '\n';
        out.flush();
        if (!out.good())
            sbn_fatal("shard directory '", dir,
                      "' is not writable - fix permissions or pass a "
                      "different --shard-dir before any point runs");
    }
    ::unlink(probe.c_str());
}

RecordWriter::RecordWriter(const std::string &path, bool append)
    : path_(path)
{
    const int flags =
        O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd_ = ::open(path.c_str(), flags, 0666);
    if (fd_ < 0)
        sbn_fatal("cannot open shard record file '", path,
                  "' for writing: ", std::strerror(errno));
}

RecordWriter::~RecordWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
RecordWriter::add(const PointRecord &record)
{
    const std::size_t ordinal = written_ + 1;
    if (faultInjectWriteFailure(ordinal))
        sbn_fatal("write error on shard record file '", path_,
                  "': injected fault (", kFaultEnvVar,
                  " fail_write_at=", ordinal, ")");

    const std::string line = formatRecord(record) + '\n';
    std::size_t done = 0;
    while (done < line.size()) {
        const ssize_t wrote = ::write(fd_, line.data() + done,
                                      line.size() - done);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            sbn_fatal("write error on shard record file '", path_,
                      "': ", std::strerror(errno));
        }
        done += static_cast<std::size_t>(wrote);
    }
    ++written_;
    telemetryAdd(TelemetryCounter::ShardRecordsWritten, 1);
    // Record boundary: the line is fully on disk (unbuffered write).
    // This is where the fault plane kills, tears or wedges a worker.
    faultAtRecordBoundary(ordinal, line, fd_);
}

void
RecordWriter::sync()
{
    if (::fsync(fd_) != 0)
        sbn_fatal("cannot fsync shard record file '", path_,
                  "': ", std::strerror(errno));
}

} // namespace sbn
