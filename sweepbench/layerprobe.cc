/**
 * @file
 * Per-layer probe of the end-to-end sweep benchmark (README.md).
 *
 * Times calls into each layer's public functions on one workload's
 * grid and prints ONE flat JSON line of raw measurements on stdout;
 * run.py turns them into the per-layer metric table.
 *
 *   sbn_layerprobe --mode=local --spec="<sweep flags>" --threads=4
 *                  --dir=DIR --reference=FILE
 *       core:  runPointSample() over every point, serially, with
 *              latency collection as the spec asks and then flipped
 *              (telemetry counters read over the first pass);
 *       exec:  ParallelRunner::stream() over the same points, busy
 *              time summed inside the evaluate callback;
 *       shard: formatRecord() / parseRecord() per record, then the
 *              records written as a 4-shard fleet would write them
 *              and collectRecordFiles() timed over those files.
 *
 *   sbn_layerprobe --mode=service --connect=STATE --spec="<job spec>"
 *                  --jobs=K --reference=FILE
 *       service: K jobs through DaemonClient::call(), timing each
 *                submit, status and results round trip.
 *
 * Every stream the probe produces is compared byte for byte with
 * --reference (the serial sbn_sweep output of the same grid); each
 * mismatch counts in the "failed" key.
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/parallel_runner.hh"
#include "service/client.hh"
#include "service/journal.hh"
#include "service/sweeprun.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "telemetry/telemetry.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace {

using namespace sbn;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        sbn_fatal("cannot read reference file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Flat JSON output line, keys in insertion order. */
class Report
{
  public:
    void add(const char *key, double value)
    {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        fields_ += std::string(fields_.empty() ? "" : ",") + "\"" +
                   key + "\":" + text;
    }
    void print() const { std::printf("{%s}\n", fields_.c_str()); }

  private:
    std::string fields_;
};

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + '\n';
    return out;
}

/** One serial kernel pass: Σ runPointSample() time + sim counters. */
struct KernelPass
{
    double seconds = 0;
    std::uint64_t cycles = 0;
    TelemetrySnapshot counters;
    std::vector<std::string> lines;
};

KernelPass
kernelPass(std::vector<SystemConfig> points, bool latency)
{
    KernelPass pass;
    telemetryReset();
    for (std::size_t i = 0; i < points.size(); ++i) {
        SystemConfig &cfg = points[i];
        cfg.collectLatency = latency;
        const Clock::time_point start = Clock::now();
        const PointSample sample = runPointSample(cfg);
        pass.seconds += secondsSince(start);
        pass.cycles += static_cast<std::uint64_t>(cfg.warmupCycles +
                                                  cfg.measureCycles);
        pass.lines.push_back(
            formatRecord(makeSweepRecord(i, cfg, sample)));
    }
    pass.counters = telemetrySnapshot();
    return pass;
}

/**
 * Mean seconds per call of @p op over @p count items, repeating the
 * whole set until at least 50 ms have been measured so sub-microsecond
 * calls still read well above clock resolution.
 */
template <typename Op>
double
meanSecondsPerItem(std::size_t count, Op op)
{
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    do {
        for (std::size_t i = 0; i < count; ++i)
            op(i);
        calls += count;
    } while (secondsSince(start) < 0.05);
    return secondsSince(start) / static_cast<double>(calls);
}

void
runLocal(const CommandLine &cli)
{
    const SweepRunOptions opt =
        parseSweepSpecString(cli.getString("spec", ""));
    const std::vector<SystemConfig> points = opt.spec.materialize();
    const unsigned threads =
        static_cast<unsigned>(cli.getInt("threads", 4));
    const std::string dir = cli.getString("dir", "");
    const std::string reference =
        readFile(cli.getString("reference", ""));
    std::size_t failed = 0;
    Report report;
    report.add("points", static_cast<double>(points.size()));

    // core: the workload's own latency setting first, then flipped.
    setTelemetryEnabled(true);
    const KernelPass asRun = kernelPass(points, opt.latency);
    const KernelPass flipped = kernelPass(points, !opt.latency);
    setTelemetryEnabled(false);
    failed += joinLines(asRun.lines) != reference;
    const auto counter = [&](TelemetryCounter c) {
        return static_cast<double>(
            asRun.counters.counters[static_cast<unsigned>(c)]);
    };
    report.add("kernel_s", asRun.seconds);
    report.add("cycles", static_cast<double>(asRun.cycles));
    report.add("heap_events", counter(TelemetryCounter::SimHeapEvents));
    report.add("think_draws", counter(TelemetryCounter::SimThinkDraws));
    report.add("latency_on_cost",
               opt.latency ? asRun.seconds / flipped.seconds
                           : flipped.seconds / asRun.seconds);

    // exec: busy time inside the evaluate callback of stream().
    ParallelRunner runner(threads);
    std::atomic<std::uint64_t> busyNs{0};
    std::vector<PointRecord> records(points.size());
    std::vector<std::string> lines(points.size());
    const Clock::time_point streamStart = Clock::now();
    runner.stream<PointSample>(
        points.size(),
        [&](std::size_t i) {
            const Clock::time_point start = Clock::now();
            PointSample sample = evaluateSweepPointSample(points[i]);
            busyNs.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count()),
                std::memory_order_relaxed);
            return sample;
        },
        [&](std::size_t i, const PointSample &sample) {
            records[i] = makeSweepRecord(i, points[i], sample);
            lines[i] = formatRecord(records[i]);
        });
    const double streamWall = secondsSince(streamStart);
    failed += joinLines(lines) != reference;
    report.add("exec_busy_frac",
               static_cast<double>(busyNs.load()) / 1e9 /
                   (streamWall * static_cast<double>(threads)));

    // shard: the record codec, both sides.
    std::size_t bytes = 0;
    for (const std::string &line : lines)
        bytes += line.size() + 1;
    // Both calls cross into the library, so neither can be elided.
    report.add("format_us",
               1e6 * meanSecondsPerItem(records.size(), [&](std::size_t i) {
                   formatRecord(records[i]);
               }));
    std::size_t parseErrors = 0;
    report.add("parse_us",
               1e6 * meanSecondsPerItem(lines.size(), [&](std::size_t i) {
                   PointRecord parsed;
                   std::string error;
                   parseErrors += !parseRecord(lines[i], parsed, error);
               }));
    failed += parseErrors != 0;
    report.add("record_bytes", static_cast<double>(bytes) /
                                   static_cast<double>(lines.size()));

    // shard: merge over the files a 4-worker contiguous fleet writes.
    const std::size_t shards = 4;
    const ShardPlan plan(points.size(), shards, ShardLayout::Contiguous);
    ensureWritableShardDir(dir);
    for (std::size_t s = 0; s < shards; ++s) {
        ShardSpec shard;
        shard.index = s;
        shard.count = shards;
        RecordWriter writer(shardFilePath(dir, shard), false);
        for (std::size_t i : plan.indices(s))
            writer.add(records[i]);
    }
    const MergeCheck check = sweepRunMergeCheck(opt, points);
    const std::vector<std::string> paths = shardFilePaths(dir, shards);
    std::vector<double> mergeSeconds;
    setTelemetryEnabled(true);
    telemetryReset();
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point start = Clock::now();
        const PartialMerge merged = collectRecordFiles(paths, check);
        mergeSeconds.push_back(secondsSince(start));
        std::vector<std::string> mergedLines;
        for (const PointRecord &record : merged.records)
            mergedLines.push_back(formatRecord(record));
        failed += !merged.complete() || joinLines(mergedLines) != reference;
    }
    const TelemetrySnapshot mergeTimers = telemetrySnapshot();
    setTelemetryEnabled(false);
    std::sort(mergeSeconds.begin(), mergeSeconds.end());
    report.add("merge_s", mergeSeconds[mergeSeconds.size() / 2]);
    const unsigned merge = static_cast<unsigned>(TelemetryTimer::ShardMerge);
    const std::uint64_t merges =
        std::max<std::uint64_t>(1, mergeTimers.timerCount[merge]);
    report.add("merge_tmr_s",
               static_cast<double>(mergeTimers.timerNs[merge]) / 1e9 /
                   static_cast<double>(merges));
    report.add("failed", static_cast<double>(failed));
    report.print();
}

/** One round trip over a fresh connection, as sbn_sweep makes it. */
ClientResponse
timedCall(const std::string &endpoint, const Request &request,
          std::vector<double> &millis)
{
    const Clock::time_point start = Clock::now();
    DaemonClient client(endpoint);
    ClientResponse response = client.call(request);
    millis.push_back(1e3 * secondsSince(start));
    return response;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void
runService(const CommandLine &cli)
{
    const std::string endpoint = cli.getString("connect", "");
    const std::string reference =
        readFile(cli.getString("reference", ""));
    const std::int64_t jobs = cli.getInt("jobs", 3);
    std::vector<double> submitMs, statusMs, resultsMs, payloadBytes;
    std::size_t failed = 0;
    for (std::int64_t k = 0; k < jobs; ++k) {
        Request submit;
        submit.kind = RequestKind::Submit;
        submit.spec = cli.getString("spec", "");
        const ClientResponse accepted =
            timedCall(endpoint, submit, submitMs);
        if (!accepted.ok()) {
            ++failed;
            continue;
        }
        Request status;
        status.kind = RequestKind::Status;
        status.hasJob = true;
        status.job = static_cast<std::uint64_t>(accepted.number("job"));
        JobState state = JobState::Submitted;
        for (;;) {
            const ClientResponse answer =
                timedCall(endpoint, status, statusMs);
            if (!answer.ok() ||
                !parseJobState(answer.text("state"), state))
                break;
            if (jobStateTerminal(state))
                break;
            const timespec pause{0, 2 * 1000 * 1000};
            ::nanosleep(&pause, nullptr);
        }
        Request results = status;
        results.kind = RequestKind::Results;
        const ClientResponse fetched =
            timedCall(endpoint, results, resultsMs);
        payloadBytes.push_back(static_cast<double>(fetched.payload.size()));
        failed += state != JobState::Done || !fetched.ok() ||
                  fetched.payload != reference;
    }
    Report report;
    report.add("jobs", static_cast<double>(jobs));
    report.add("submit_ms", mean(submitMs));
    report.add("status_ms", mean(statusMs));
    report.add("status_calls", static_cast<double>(statusMs.size()));
    report.add("results_ms", mean(resultsMs));
    report.add("results_bytes", mean(payloadBytes));
    report.add("failed", static_cast<double>(failed));
    report.print();
}

} // namespace

int
main(int argc, char **argv)
{
    const CommandLine cli(
        argc, argv,
        {
            {"mode", "local (core, exec, shard) or service"},
            {"spec", "sweep flags of the workload's grid"},
            {"threads", "local: ParallelRunner worker count"},
            {"dir", "local: directory for the probe's shard files"},
            {"reference", "serial sbn_sweep output of the grid"},
            {"connect", "service: daemon state dir"},
            {"jobs", "service: jobs to run"},
        });
    const std::string mode = cli.getString("mode", "");
    if (mode == "local")
        runLocal(cli);
    else if (mode == "service")
        runService(cli);
    else
        sbn_fatal("--mode must be local or service");
    return 0;
}
