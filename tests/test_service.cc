/**
 * @file
 * Service-layer tests: the sbn_sweepd wire protocol (flat JSON
 * parse/format round trips and strictness), the crash-safe job
 * journal (format, fsynced append, last-write-wins replay, torn-tail
 * leniency), spec tokenization, and the exit-code contract both
 * tools and CI scripts branch on, and the blocking `wait` verb
 * against a daemon forked in-process. The rest of the daemon's
 * end-to-end behavior - kill-anywhere recovery, cancel, drain,
 * backpressure - is exercised with real processes by the tools/
 * ctest scripts and the CI service-recovery job (docs/service.md).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/journal.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/sweeprun.hh"
#include "shard/fault.hh"
#include "shard/result_io.hh"
#include "util/exit_codes.hh"
#include "util/flatjson.hh"

namespace sbn {
namespace {

std::string
tempPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "sbn_service_" + name;
    std::remove(path.c_str());
    return path;
}

// ------------------------------------------------------- requests

TEST(Protocol, RequestRoundTrips)
{
    Request submit;
    submit.kind = RequestKind::Submit;
    submit.spec = "--n=8 --m=16 --p=0.2,0.6 --spawn=2";
    submit.timeoutSeconds = 12.5;

    Request results;
    results.kind = RequestKind::Results;
    results.hasJob = true;
    results.job = 42;

    Request drain;
    drain.kind = RequestKind::Drain;

    Request wait;
    wait.kind = RequestKind::Wait;
    wait.hasJob = true;
    wait.job = 7;

    // 2^53 + 1: the first id a double cannot hold.
    Request status;
    status.kind = RequestKind::Status;
    status.hasJob = true;
    status.job = 9007199254740993ull;

    for (const Request &original : {submit, results, drain, wait, status}) {
        Request parsed;
        std::string error;
        ASSERT_TRUE(
            parseRequest(formatRequest(original), parsed, error))
            << requestKindName(original.kind) << ": " << error;
        EXPECT_EQ(parsed.kind, original.kind);
        EXPECT_EQ(parsed.spec, original.spec);
        EXPECT_DOUBLE_EQ(parsed.timeoutSeconds,
                         original.timeoutSeconds);
        EXPECT_EQ(parsed.hasJob, original.hasJob);
        EXPECT_EQ(parsed.job, original.job);
    }
}

TEST(Protocol, RejectsMalformedRequests)
{
    Request request;
    std::string error;
    const char *bad[] = {
        "{\"spec\":\"--n=8\"}",               // no cmd
        "{\"cmd\":\"explode\"}",              // unknown cmd
        "{\"cmd\":\"submit\"}",               // submit without spec
        "{\"cmd\":\"submit\",\"spec\":\"\"}", // empty spec
        "{\"cmd\":\"submit\",\"spec\":\"--n=8\",\"timeout_s\":-1}",
        "{\"cmd\":\"cancel\"}",               // cancel without job
        "{\"cmd\":\"results\"}",              // results without job
        "{\"cmd\":\"results\",\"job\":-1}",   // negative job
        "{\"cmd\":\"results\",\"job\":1.5}",  // fractional job
        "{\"cmd\":\"status\",\"job\":\"x\"}", // non-numeric job
        "{\"cmd\":\"wait\"}",                 // wait without job
        "{\"cmd\":\"wait\",\"job\":-1}",      // negative job
        "{\"cmd\":\"wait\",\"job\":1,\"x\":1}", // extra key
        "{\"cmd\":\"cancel\",\"job\":1e300}",  // not an integer
        "{\"cmd\":\"cancel\",\"job\":18446744073709551616}", // 2^64
        "{\"cmd\":\"results\",\"job\":3.0}",   // not plain digits
        "{\"cmd\":\"submit\",\"spec\":\"--n=8\",\"timeout_s\":nan}",
        "{\"cmd\":\"submit\",\"spec\":\"--n=8\",\"timeout_s\":inf}",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseRequest(text, request, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Protocol, ErrorResponsesAreMachineReadable)
{
    FlatObject object;
    std::string error;
    ASSERT_TRUE(parseFlatObject(
        errorResponse("queue_full", "limit is 8"), object, error))
        << error;
    EXPECT_EQ(object["ok"].kind, FlatValue::Kind::Bool);
    EXPECT_EQ(object["ok"].text, "false");
    EXPECT_EQ(object["error"].text, "queue_full");
    EXPECT_EQ(object["message"].text, "limit is 8");
}

// -------------------------------------------------------- journal

JobJournalEntry
entry(std::uint64_t job, JobState state,
      const std::string &spec = "--n=4 --m=8 --p=0.5")
{
    JobJournalEntry e;
    e.job = job;
    e.state = state;
    e.spec = spec;
    return e;
}

TEST(JobJournalFormat, EntryRoundTrips)
{
    JobJournalEntry original = entry(7, JobState::Failed);
    original.timeoutSeconds = 30;
    original.startedUnix = 1754600000;
    original.exitCode = 75;
    original.reason = "runner killed by signal 9 (\"oom\")";

    JobJournalEntry parsed;
    std::string error;
    ASSERT_TRUE(parseJournalEntry(formatJournalEntry(original),
                                  parsed, error))
        << error;
    EXPECT_EQ(parsed.job, original.job);
    EXPECT_EQ(parsed.state, original.state);
    EXPECT_EQ(parsed.spec, original.spec);
    EXPECT_DOUBLE_EQ(parsed.timeoutSeconds, original.timeoutSeconds);
    EXPECT_DOUBLE_EQ(parsed.startedUnix, original.startedUnix);
    EXPECT_EQ(parsed.exitCode, original.exitCode);
    EXPECT_EQ(parsed.reason, original.reason);
}

TEST(JobJournalFormat, RejectsForeignAndPartialLines)
{
    JobJournalEntry parsed;
    std::string error;
    const char *bad[] = {
        "{\"type\":\"sbn.point.v1\",\"job\":1}", // wrong type
        "{\"job\":1,\"state\":\"done\"}",        // no type
        // right type, missing keys (a torn line, typically):
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"done\"}",
        // the pre-started_unix 7-key shape is not this format:
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"done\","
        "\"spec\":\"x\",\"timeout_s\":0,\"exit\":0,\"reason\":\"\"}",
        // unknown state name:
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"paused\","
        "\"spec\":\"x\",\"timeout_s\":0,\"started_unix\":0,"
        "\"exit\":0,\"reason\":\"\"}",
        // ids and exit codes that only a double could "hold":
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"done\","
        "\"spec\":\"x\",\"timeout_s\":0,\"started_unix\":0,"
        "\"exit\":1e300,\"reason\":\"\"}",
        "{\"type\":\"sbn.job.v1\",\"job\":1e300,\"state\":\"done\","
        "\"spec\":\"x\",\"timeout_s\":0,\"started_unix\":0,"
        "\"exit\":0,\"reason\":\"\"}",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseJournalEntry(text, parsed, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JobJournalReplay, LastWriteWinsAndFoldsTheSubmitSpec)
{
    const std::string path = tempPath("replay");
    {
        JobJournal journal(path);
        journal.append(entry(0, JobState::Submitted, "--n=4 --p=1"));
        journal.append(entry(1, JobState::Submitted, "--n=8 --p=1"));
        JobJournalEntry running = entry(0, JobState::Running, "");
        journal.append(running);
        JobJournalEntry done = entry(0, JobState::Done, "");
        done.exitCode = 0;
        journal.append(done);
    }
    const std::vector<JobJournalEntry> jobs = replayJobJournal(path);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].job, 0u);
    EXPECT_EQ(jobs[0].state, JobState::Done);
    // Later entries carry the submit's description forward.
    EXPECT_EQ(jobs[0].spec, "--n=4 --p=1");
    EXPECT_EQ(jobs[1].job, 1u);
    EXPECT_EQ(jobs[1].state, JobState::Submitted);
    EXPECT_EQ(jobs[1].spec, "--n=8 --p=1");
}

TEST(JobJournalReplay, MissingFileReplaysEmpty)
{
    EXPECT_TRUE(replayJobJournal(tempPath("absent")).empty());
}

TEST(JobJournalReplay, TornFinalLineIsDroppedLeniently)
{
    const std::string path = tempPath("torn");
    {
        JobJournal journal(path);
        journal.append(entry(3, JobState::Submitted));
        journal.append(entry(3, JobState::Running, ""));
    }
    {
        // The kill artifact: a final line cut mid-append.
        std::ofstream out(path, std::ios::app);
        const std::string full =
            formatJournalEntry(entry(3, JobState::Done, ""));
        out << full.substr(0, full.size() / 2);
    }
    const std::vector<JobJournalEntry> jobs = replayJobJournal(path);
    ASSERT_EQ(jobs.size(), 1u);
    // The torn Done never happened; the job recovers as Running and
    // will be relaunched with resume.
    EXPECT_EQ(jobs[0].state, JobState::Running);

    // Replay must also have TRUNCATED the torn bytes: the journal
    // writer appends with O_APPEND, so a surviving tail would glue
    // the next entry onto it - a malformed mid-file line that turns
    // the restart after next fatal. Appending and replaying again
    // must therefore work cleanly.
    {
        std::ifstream check(path, std::ios::binary);
        std::string bytes{std::istreambuf_iterator<char>(check),
                          std::istreambuf_iterator<char>()};
        ASSERT_FALSE(bytes.empty());
        EXPECT_EQ(bytes.back(), '\n'); // ends on a line boundary
    }
    {
        JobJournal journal(path);
        journal.append(entry(3, JobState::Done, ""));
    }
    const std::vector<JobJournalEntry> after = replayJobJournal(path);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].state, JobState::Done);
}

TEST(JobJournalDeathTest, TornLineFollowedByMoreIsCorruptionNotATail)
{
    const std::string path = tempPath("midtorn");
    {
        std::ofstream out(path);
        out << formatJournalEntry(entry(0, JobState::Submitted))
            << "\n";
        out << "{\"type\":\"sbn.job.v1\",\"job\":0,\"sta\n"; // torn
        out << formatJournalEntry(entry(0, JobState::Running, ""))
            << "\n";
    }
    EXPECT_EXIT(replayJobJournal(path),
                ::testing::ExitedWithCode(kExitFatal),
                "only the final line may be torn");
}

TEST(JobJournalDeathTest, TransitionWithoutSubmitIsFatal)
{
    const std::string path = tempPath("nosubmit");
    {
        std::ofstream out(path);
        out << formatJournalEntry(entry(5, JobState::Running, ""))
            << "\n";
    }
    EXPECT_EXIT(replayJobJournal(path),
                ::testing::ExitedWithCode(kExitFatal),
                "without a submitted entry");
}

TEST(JobJournal, StateNamesMatchTheFaultPlaneList)
{
    // shard/fault.cc duplicates the journal-state names (the shard
    // layer cannot depend on the service layer); this is the pin
    // that keeps the two lists identical.
    const JobState states[] = {
        JobState::Submitted, JobState::Running, JobState::Merging,
        JobState::Done,      JobState::Failed,  JobState::Cancelled,
    };
    ASSERT_EQ(std::size(states),
              std::size(kFaultJournalStates));
    for (std::size_t i = 0; i < std::size(states); ++i)
        EXPECT_STREQ(jobStateName(states[i]),
                     kFaultJournalStates[i]);

    EXPECT_FALSE(jobStateTerminal(JobState::Submitted));
    EXPECT_FALSE(jobStateTerminal(JobState::Running));
    EXPECT_FALSE(jobStateTerminal(JobState::Merging));
    EXPECT_TRUE(jobStateTerminal(JobState::Done));
    EXPECT_TRUE(jobStateTerminal(JobState::Failed));
    EXPECT_TRUE(jobStateTerminal(JobState::Cancelled));
}

// ------------------------------------------------- spec tokenizing

TEST(SpecTokenize, SplitsOnWhitespaceRuns)
{
    const std::vector<std::string> tokens =
        tokenizeSpecString("  --n=8\t--m=16   --p=0.2,0.6 ");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0], "--n=8");
    EXPECT_EQ(tokens[1], "--m=16");
    EXPECT_EQ(tokens[2], "--p=0.2,0.6");
    EXPECT_TRUE(tokenizeSpecString("").empty());
}

TEST(SpecParse, ParsesAFullSpecIncludingSpawn)
{
    const SweepRunOptions opt = parseSweepSpecString(
        "--n=8 --m=16 --p=0.2,0.6 --spawn=2 --retries=1 "
        "--hang-timeout=3 --layout=contiguous");
    EXPECT_EQ(opt.spec.processors, std::vector<int>{8});
    EXPECT_EQ(opt.spec.modules, std::vector<int>{16});
    EXPECT_EQ(opt.spec.requestProbabilities,
              (std::vector<double>{0.2, 0.6}));
    EXPECT_EQ(opt.spawnShards, 2u);
    EXPECT_EQ(opt.retries, 1u);
    EXPECT_DOUBLE_EQ(opt.hangTimeout, 3.0);
    EXPECT_EQ(opt.layout, ShardLayout::Contiguous);
}

TEST(SpecParse, LayoutDefaultsToStrided)
{
    // Strided shards balance a fleet whose point cost grows along the
    // grid order; a spec (or command line) without --layout gets them.
    EXPECT_EQ(parseSweepSpecString("--n=8 --m=16 --p=0.5 --spawn=2").layout,
              ShardLayout::Strided);
    EXPECT_EQ(parseSweepSpecString("--n=8 --m=16 --p=0.5 --layout=strided")
                  .layout,
              ShardLayout::Strided);
}

TEST(SpecParse, ValidationForksSoBadSpecsCannotKillTheCaller)
{
    EXPECT_TRUE(specParsesCleanly("--n=8 --m=16 --p=0.5"));
    // Unknown flag, bad value, forbidden quoting, empty grid: all
    // must come back as a clean "false", not a fatal in this
    // process.
    EXPECT_FALSE(specParsesCleanly("--frobnicate=1"));
    EXPECT_FALSE(specParsesCleanly("--n=8 --m=16 --p=banana"));
    EXPECT_FALSE(specParsesCleanly("--n='8'"));
    EXPECT_FALSE(specParsesCleanly("--dir=elsewhere")); // front-end flag
}

// ------------------------------------------------------ exit codes

TEST(ExitCodes, ContractIsPinned)
{
    // These values are wire/script ABI (CI matches on them; sysexits
    // semantics); changing one is a breaking change, not a refactor.
    EXPECT_EQ(kExitOk, 0);
    EXPECT_EQ(kExitFatal, 1);
    EXPECT_EQ(kExitNoInput, 66);
    EXPECT_EQ(kExitUnavailable, 69);
    EXPECT_EQ(kPartialResultExit, 75);
    EXPECT_EQ(exitCodeForSignal(SIGTERM), 143);
    EXPECT_EQ(exitCodeForSignal(SIGKILL), 137);
    EXPECT_EQ(exitCodeForSignal(SIGINT), 130);
}

// ---------------------------------------------------- path layout

TEST(DaemonPaths, AreCanonical)
{
    EXPECT_EQ(daemonJournalPath("st"), "st/jobs.jsonl");
    EXPECT_EQ(daemonPortFilePath("st"), "st/port");
    EXPECT_EQ(daemonHeartbeatPath("st"), "st/heartbeat");
    EXPECT_EQ(daemonJobDir("st", 12), "st/job-12");
    EXPECT_EQ(daemonMergedPath("st/job-12"),
              "st/job-12/merged.jsonl");
}

// ---------------------------------------------------- daemon metrics

TEST(Protocol, MetricsRequestRoundTrips)
{
    Request whole;
    whole.kind = RequestKind::Metrics;

    Request one_job;
    one_job.kind = RequestKind::Metrics;
    one_job.hasJob = true;
    one_job.job = 3;

    for (const Request &original : {whole, one_job}) {
        Request parsed;
        std::string error;
        ASSERT_TRUE(
            parseRequest(formatRequest(original), parsed, error))
            << error;
        EXPECT_EQ(parsed.kind, RequestKind::Metrics);
        EXPECT_EQ(parsed.hasJob, original.hasJob);
        EXPECT_EQ(parsed.job, original.job);
    }

    // The hand-written wire forms parse too.
    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest("{\"cmd\":\"metrics\"}", parsed, error))
        << error;
    EXPECT_EQ(parsed.kind, RequestKind::Metrics);
    EXPECT_FALSE(parsed.hasJob);
    ASSERT_TRUE(parseRequest("{\"cmd\":\"metrics\",\"job\":3}",
                             parsed, error))
        << error;
    EXPECT_TRUE(parsed.hasJob);
    EXPECT_EQ(parsed.job, 3u);
    EXPECT_FALSE(parseRequest("{\"cmd\":\"metrics\",\"job\":-2}",
                              parsed, error));
}

/** A snapshot with every field distinct, so a swapped key would show. */
DaemonMetricsSnapshot
sampleMetrics()
{
    DaemonMetricsSnapshot m;
    m.uptimeSeconds = 12.5;
    m.draining = true;
    m.queued = 2;
    m.running = 1;
    m.done = 3;
    m.failed = 4;
    m.cancelled = 5;
    m.jobsTotal = 15;
    m.queueDepth = 2;
    m.journalAppends = 21;
    m.journalFsyncs = 22;
    m.resultsBytesServed = 1024;
    m.runnerRelaunches = 6;
    m.hasActiveJob = true;
    m.activeJob = 7;
    return m;
}

TEST(DaemonMetrics, ResponseIsFlatJsonWithDocumentedKeys)
{
    const std::string line =
        formatDaemonMetricsResponse(sampleMetrics());
    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(line, fields, error)) << error;

    EXPECT_EQ(fields.at("ok").kind, FlatValue::Kind::Bool);
    EXPECT_EQ(fields.at("type").text, "sbn.metrics.v1");
    EXPECT_EQ(std::stod(fields.at("uptime_s").text), 12.5);
    EXPECT_EQ(std::stod(fields.at("queued").text), 2.0);
    EXPECT_EQ(std::stod(fields.at("running").text), 1.0);
    EXPECT_EQ(std::stod(fields.at("done").text), 3.0);
    EXPECT_EQ(std::stod(fields.at("failed").text), 4.0);
    EXPECT_EQ(std::stod(fields.at("cancelled").text), 5.0);
    EXPECT_EQ(std::stod(fields.at("jobs_total").text), 15.0);
    EXPECT_EQ(std::stod(fields.at("queue_depth").text), 2.0);
    EXPECT_EQ(fields.at("draining").kind, FlatValue::Kind::Bool);
    EXPECT_EQ(std::stod(fields.at("journal_appends").text), 21.0);
    EXPECT_EQ(std::stod(fields.at("journal_fsyncs").text), 22.0);
    EXPECT_EQ(std::stod(fields.at("results_bytes_served").text), 1024.0);
    EXPECT_EQ(std::stod(fields.at("runner_relaunches").text), 6.0);
    EXPECT_EQ(std::stod(fields.at("active_job").text), 7.0);
}

TEST(DaemonMetrics, IdleSnapshotReportsNullActiveJob)
{
    DaemonMetricsSnapshot m = sampleMetrics();
    m.hasActiveJob = false;
    const std::string line = formatDaemonMetricsResponse(m);
    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(line, fields, error)) << error;
    EXPECT_EQ(fields.at("active_job").kind, FlatValue::Kind::Null);
}

TEST(DaemonMetrics, HeartbeatV2KeepsEveryV1Key)
{
    const std::string body =
        formatHeartbeatV2(sampleMetrics(), 1754650000);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body.back(), '\n');

    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(
        body.substr(0, body.size() - 1), fields, error))
        << error;
    EXPECT_EQ(fields.at("type").text, "sbn.heartbeat.v2");

    // The v1 contract: a consumer reading ts_unix, queued, running
    // and draining keeps working against a v2 body - same keys, same
    // scalar kinds, same meanings.
    EXPECT_EQ(std::stod(fields.at("ts_unix").text), 1754650000.0);
    EXPECT_EQ(fields.at("queued").kind, FlatValue::Kind::Number);
    EXPECT_EQ(fields.at("running").kind, FlatValue::Kind::Number);
    EXPECT_EQ(fields.at("draining").kind, FlatValue::Kind::Bool);

    // And the v2 additions ride alongside.
    EXPECT_TRUE(fields.count("queue_depth"));
    EXPECT_TRUE(fields.count("journal_appends"));
    EXPECT_TRUE(fields.count("active_job"));
}

// ------------------------------------------------- the wait verb

using SteadyClock = std::chrono::steady_clock;

/** A daemon forked from this test process on its own state dir;
 *  killed and reaped on destruction unless join()ed first. */
class ForkedDaemon
{
  public:
    explicit ForkedDaemon(const DaemonConfig &config)
    {
        pid_ = ::fork();
        if (pid_ == 0)
            ::_exit(runSweepDaemon(config));
        // The port file is published (atomically) once listening.
        const std::string port = daemonPortFilePath(config.stateDir);
        const auto deadline = SteadyClock::now() + std::chrono::seconds(30);
        while (!(listening_ = std::ifstream(port).good()) &&
               SteadyClock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    ~ForkedDaemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    ForkedDaemon(const ForkedDaemon &) = delete;
    ForkedDaemon &operator=(const ForkedDaemon &) = delete;

    bool listening() const { return listening_; }

    /** The daemon's exit code once it exits on its own; -1 when it
     *  is still running after 30 s (it is then killed). */
    int join()
    {
        const auto deadline = SteadyClock::now() + std::chrono::seconds(30);
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (SteadyClock::now() >= deadline)
                return -1;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    pid_t pid_ = -1;
    bool listening_ = false;
};

/** A bare connection for what DaemonClient cannot do: pipelined
 *  requests, several parked waiters at once, hanging up mid-wait. */
class RawConnection
{
  public:
    explicit RawConnection(const std::string &endpoint)
        : fd_(::socket(AF_INET, SOCK_STREAM, 0))
    {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(
            static_cast<std::uint16_t>(resolveDaemonPort(endpoint)));
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
    }

    ~RawConnection() { hangUp(); }

    RawConnection(const RawConnection &) = delete;
    RawConnection &operator=(const RawConnection &) = delete;

    void send(const std::string &bytes)
    {
        ASSERT_EQ(::write(fd_, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** The next reply line, or "" on EOF or after 60 s of silence. */
    std::string readLine()
    {
        for (;;) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                const std::string line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return line;
            }
            pollfd p{fd_, POLLIN, 0};
            char chunk[4096];
            if (::poll(&p, 1, 60000) <= 0)
                return "";
            const ssize_t got = ::read(fd_, chunk, sizeof chunk);
            if (got <= 0)
                return "";
            buffer_.append(chunk, static_cast<std::size_t>(got));
        }
    }

    void hangUp()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

Request
jobRequest(RequestKind kind, std::uint64_t job)
{
    Request request;
    request.kind = kind;
    request.hasJob = true;
    request.job = job;
    return request;
}

std::string
requestLine(RequestKind kind, std::uint64_t job)
{
    return formatRequest(jobRequest(kind, job)) + "\n";
}

std::string
field(const std::string &line, const std::string &key)
{
    FlatObject fields;
    std::string error;
    if (!parseFlatObject(line, fields, error))
        return "unparsable: " + line;
    const auto it = fields.find(key);
    return it == fields.end() ? "" : it->second.text;
}

/** What the serial sbn_sweep run of @p spec prints. */
std::string
serialSweepBytes(const std::string &spec)
{
    const std::vector<SystemConfig> points =
        parseSweepSpecString(spec).spec.materialize();
    std::string bytes;
    for (std::size_t i = 0; i < points.size(); ++i)
        bytes += formatRecord(makeSweepRecord(
                     i, points[i], evaluateSweepPointSample(points[i]))) +
                 "\n";
    return bytes;
}

TEST(SweepDaemonWait, AnswersParkedWaitersAtTheTerminalTransition)
{
    std::string dir = ::testing::TempDir() + "sbn_service_wait_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    DaemonConfig config;
    config.stateDir = dir + "/state";
    config.killGraceSeconds = 0.5;
    ForkedDaemon daemon(config);
    ASSERT_TRUE(daemon.listening());
    const std::string &endpoint = config.stateDir;

    // --threads=1 keeps the forked workers off any thread pool this
    // test process may already own.
    const std::string tiny = "--n=4 --m=8 --p=0.2,0.6 --warmup=500 "
                             "--measure=5000 --threads=1 --spawn=2";
    const std::string slow = "--n=8 --m=16 --p=1.0 --warmup=1000 "
                             "--measure=100000000 --threads=1 --spawn=1";
    const auto call = [&](const Request &request) {
        DaemonClient client(endpoint);
        return client.call(request);
    };
    const auto submit = [&](const std::string &spec, double timeout) {
        Request request;
        request.kind = RequestKind::Submit;
        request.spec = spec;
        request.timeoutSeconds = timeout;
        const ClientResponse response = call(request);
        EXPECT_TRUE(response.ok()) << response.text("message");
        return static_cast<std::uint64_t>(response.number("job", 0));
    };

    {
        SCOPED_TRACE("two waiters and a quitter on one job");
        const std::uint64_t job = submit(tiny, 0);
        RawConnection first(endpoint), second(endpoint), quitter(endpoint);
        first.send(requestLine(RequestKind::Wait, job));
        second.send(requestLine(RequestKind::Wait, job));
        quitter.send(requestLine(RequestKind::Wait, job));
        quitter.hangUp();
        const std::string answer = first.readLine();
        EXPECT_EQ(field(answer, "state"), "done") << answer;
        EXPECT_EQ(second.readLine(), answer);

        // On a terminal job, wait answers at once with status's bytes.
        RawConnection again(endpoint);
        again.send(requestLine(RequestKind::Wait, job) +
                   requestLine(RequestKind::Status, job));
        EXPECT_EQ(again.readLine(), answer);
        EXPECT_EQ(again.readLine(), answer);

        const ClientResponse results =
            call(jobRequest(RequestKind::Results, job));
        ASSERT_TRUE(results.ok()) << results.text("message");
        EXPECT_EQ(results.payload, serialSweepBytes(tiny));
    }

    {
        SCOPED_TRACE("cancel answers a parked waiter, in order");
        const std::uint64_t job = submit(slow, 0);
        RawConnection parked(endpoint), quitter(endpoint);
        // The status behind the wait must not be served before it.
        parked.send(requestLine(RequestKind::Wait, job) +
                    requestLine(RequestKind::Status, job));
        quitter.send(requestLine(RequestKind::Wait, job));
        quitter.hangUp();
        const std::string live =
            call(jobRequest(RequestKind::Status, job)).text("state");
        EXPECT_TRUE(live == "submitted" || live == "running") << live;
        EXPECT_TRUE(call(jobRequest(RequestKind::Cancel, job)).ok());
        const std::string answer = parked.readLine();
        EXPECT_EQ(field(answer, "state"), "cancelled") << answer;
        EXPECT_EQ(parked.readLine(), answer);
    }

    {
        SCOPED_TRACE("a timeout answers a parked waiter with failed");
        const std::uint64_t job = submit(slow, 0.3);
        RawConnection parked(endpoint);
        parked.send(requestLine(RequestKind::Wait, job));
        const std::string answer = parked.readLine();
        EXPECT_EQ(field(answer, "state"), "failed") << answer;
        EXPECT_NE(field(answer, "reason").find("timeout"),
                  std::string::npos)
            << answer;
    }

    EXPECT_EQ(call(jobRequest(RequestKind::Wait, 99)).errorCode(),
              "unknown_job");

    {
        SCOPED_TRACE("drain delivers a parked reply before exiting");
        const std::uint64_t job = submit(tiny, 0);
        RawConnection parked(endpoint);
        parked.send(requestLine(RequestKind::Wait, job));
        Request drain;
        drain.kind = RequestKind::Drain;
        EXPECT_TRUE(call(drain).ok());
        const std::string answer = parked.readLine();
        EXPECT_EQ(field(answer, "state"), "done") << answer;
        EXPECT_EQ(daemon.join(), kExitOk);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sbn
