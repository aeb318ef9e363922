/**
 * @file
 * Wire-byte pins for every flat-JSON writer.
 *
 * Each pin is one literal line, exactly as the writer emits it. A
 * same-binary round trip cannot notice a change that the writer and
 * its reader make together. A pin can, and that kind of drift would
 * orphan existing journals and shard records. Each pin must also
 * parse, and its fields must re-render to the pin's own bytes.
 *
 * The codec's own tests follow the pins, ending with a seeded
 * mutation test that feeds byte-mutated pins to every parser.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/journal.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "shard/fault.hh"
#include "shard/result_io.hh"
#include "stats/histogram.hh"
#include "telemetry/telemetry.hh"
#include "trace/span.hh"
#include "util/flatjson.hh"

namespace sbn {
namespace {

// ------------------------------------------------------ the inputs

PointRecord
adaptiveRecord()
{
    PointRecord r;
    r.flatIndex = 17;
    r.configFp = 0x0123456789abcdefull;
    r.runFp = 0xfedcba9876543210ull;
    r.masterSeed = 42;
    r.mode = RunMode::Adaptive;
    r.workload = "hotspot:h=0.25";
    r.replications = 12;
    r.rounds = 3;
    r.converged = false;
    r.mean = 0.1;
    r.halfWidth = 2.5e-05;
    return r;
}

PointRecord
latencyRecord()
{
    PointRecord r;
    r.flatIndex = 0;
    r.configFp = 0x1111111111111111ull;
    r.runFp = 0x2222222222222222ull;
    r.masterSeed = 18446744073709551615ull;
    r.mode = RunMode::Sweep;
    r.workload = "uniform";
    r.replications = 1;
    r.rounds = 0;
    r.converged = true;
    r.mean = 3.75;
    r.halfWidth = 0.0;
    r.hasLatency = true;
    r.latency.samples = 1000;
    // The quantile of an empty histogram is NaN.
    r.latency.waitP50 = std::numeric_limits<double>::quiet_NaN();
    r.latency.waitP90 = 1.5;
    r.latency.waitP99 = 7;
    r.latency.waitMax = 1e300;
    r.latency.residenceP50 = 4;
    r.latency.residenceP90 = 5.25;
    r.latency.residenceP99 = 11;
    r.latency.residenceMax = -0.0;
    return r;
}

JobJournalEntry
journalEntry()
{
    JobJournalEntry e;
    e.job = 7;
    e.state = JobState::Failed;
    e.spec = "--n=8 --m=16 --p=0.2,0.6 --spawn=2";
    e.timeoutSeconds = 12.5;
    e.startedUnix = 1754600000.25;
    e.exitCode = 75;
    e.reason = "runner said \"boom\" in C:\\tmp";
    return e;
}

Request
request(RequestKind kind, bool has_job = false, std::uint64_t job = 0)
{
    Request r;
    r.kind = kind;
    r.hasJob = has_job;
    r.job = job;
    return r;
}

DaemonMetricsSnapshot
metrics()
{
    DaemonMetricsSnapshot m;
    m.uptimeSeconds = 12.5;
    m.draining = false;
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

TelemetrySnapshot
telemetry()
{
    TelemetrySnapshot s;
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        s.counters[i] = 100 * i + 1;
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        s.timerNs[i] = 1000000007ull * (i + 1);
        s.timerCount[i] = i + 2;
    }
    return s;
}

Histogram
histogram()
{
    Histogram h = Histogram::logScale(1, 1024, 10);
    for (const double sample : {0.5, 1.0, 3.0, 3.5, 100.0, 5000.0})
        h.add(sample);
    return h;
}

/** The span line traceEmitSpanWithId writes, its pid set to 0. */
std::string
spanLine()
{
    const std::string dir = ::testing::TempDir();
    const std::string path =
        dir + "/trace-" + std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    ::setenv(kTraceDirEnvVar, dir.c_str(), 1);
    traceEmitSpanWithId({0x00000000000000abull, 0x1}, 0x00c0ffee00000002ull,
                        "attempt", "shard 1 \"retry\"", 0x1, 1000,
                        2500, {{"exit", "0"}, {"note", "a\\b\tc"}});
    ::unsetenv(kTraceDirEnvVar);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());
    const std::string pid = "\"pid\":" + std::to_string(::getpid());
    const std::size_t at = line.find(pid);
    if (at != std::string::npos)
        line.replace(at, pid.size(), "\"pid\":0");
    return line;
}

// ------------------------------------------------------- the pins

const char *const kAdaptiveRecordPin =
    "{\"type\":\"sbn.point.v3\",\"i\":17,\"config\":\"0x0123456789a"
    "bcdef\",\"run\":\"0xfedcba9876543210\",\"seed\":42,\"mode\":\""
    "adaptive\",\"workload\":\"hotspot:h=0.25\",\"reps\":12,\"round"
    "s\":3,\"converged\":false,\"mean\":0.10000000000000001,\"mean_"
    "bits\":\"0x3fb999999999999a\",\"hw\":2.5000000000000001e-05,\""
    "hw_bits\":\"0x3efa36e2eb1c432d\"}";
const char *const kLatencyRecordPin =
    "{\"type\":\"sbn.point.v3\",\"i\":0,\"config\":\"0x111111111111"
    "1111\",\"run\":\"0x2222222222222222\",\"seed\":184467440737095"
    "51615,\"mode\":\"sweep\",\"workload\":\"uniform\",\"reps\":1,\""
    "rounds\":0,\"converged\":true,\"mean\":3.75,\"mean_bits\":\"0x"
    "400e000000000000\",\"hw\":0,\"hw_bits\":\"0x0000000000000000\""
    ",\"lat_n\":1000,\"lw50\":nan,\"lw50_bits\":\"0x7ff800000000000"
    "0\",\"lw90\":1.5,\"lw90_bits\":\"0x3ff8000000000000\",\"lw99\""
    ":7,\"lw99_bits\":\"0x401c000000000000\",\"lwmax\":1.0000000000"
    "000001e+300,\"lwmax_bits\":\"0x7e37e43c8800759c\",\"lr50\":4,\""
    "lr50_bits\":\"0x4010000000000000\",\"lr90\":5.25,\"lr90_bits\""
    ":\"0x4015000000000000\",\"lr99\":11,\"lr99_bits\":\"0x40260000"
    "00000000\",\"lrmax\":-0,\"lrmax_bits\":\"0x8000000000000000\"}";
const char *const kJournalPin =
    "{\"type\":\"sbn.job.v1\",\"job\":7,\"state\":\"failed\",\"spec"
    "\":\"--n=8 --m=16 --p=0.2,0.6 --spawn=2\",\"timeout_s\":12.5,\""
    "started_unix\":1754600000.25,\"exit\":75,\"reason\":\"runner s"
    "aid \\\"boom\\\" in C:\\\\tmp\"}";
const char *const kSubmitPin =
    "{\"cmd\":\"submit\",\"spec\":\"--n=8 --m=16 --p=0.2,0.6 --spaw"
    "n=2\",\"timeout_s\":12.5}";
const char *const kSubmitNoTimeoutPin =
    "{\"cmd\":\"submit\",\"spec\":\"--n=4 --label=\\\"a b\\\"\"}";
const char *const kStatusPin =
    "{\"cmd\":\"status\"}";
const char *const kStatusJobPin =
    "{\"cmd\":\"status\",\"job\":3}";
const char *const kCancelPin =
    "{\"cmd\":\"cancel\",\"job\":3}";
const char *const kResultsPin =
    "{\"cmd\":\"results\",\"job\":42}";
const char *const kWaitPin =
    "{\"cmd\":\"wait\",\"job\":7}";
const char *const kDrainPin =
    "{\"cmd\":\"drain\"}";
const char *const kMetricsPin =
    "{\"cmd\":\"metrics\"}";
const char *const kMetricsJobPin =
    "{\"cmd\":\"metrics\",\"job\":0}";
const char *const kErrorPin =
    "{\"ok\":false,\"error\":\"bad_spec\",\"message\":\"spec \\\"--"
    "n=x\\\" is not C:\\\\ok\"}";
const char *const kStatusLinePin =
    "{\"ok\":true,\"job\":7,\"state\":\"failed\",\"exit\":75,\"reas"
    "on\":\"runner said \\\"boom\\\" in C:\\\\tmp\"}";
const char *const kMetricsReplyPin =
    "{\"ok\":true,\"type\":\"sbn.metrics.v1\",\"uptime_s\":12.500,\""
    "queued\":2,\"running\":1,\"done\":3,\"failed\":4,\"cancelled\""
    ":5,\"jobs_total\":15,\"queue_depth\":2,\"draining\":false,\"jo"
    "urnal_appends\":21,\"journal_fsyncs\":22,\"results_bytes_serve"
    "d\":1024,\"runner_relaunches\":6,\"active_job\":7}";
const char *const kIdleMetricsReplyPin =
    "{\"ok\":true,\"type\":\"sbn.metrics.v1\",\"uptime_s\":0.000,\""
    "queued\":2,\"running\":1,\"done\":3,\"failed\":4,\"cancelled\""
    ":5,\"jobs_total\":15,\"queue_depth\":2,\"draining\":true,\"jou"
    "rnal_appends\":21,\"journal_fsyncs\":22,\"results_bytes_served"
    "\":1024,\"runner_relaunches\":6,\"active_job\":null}";
const char *const kHeartbeatPin =
    "{\"type\":\"sbn.heartbeat.v2\",\"ts_unix\":1754650000,\"uptime"
    "_s\":12.500,\"queued\":2,\"running\":1,\"done\":3,\"failed\":4"
    ",\"cancelled\":5,\"jobs_total\":15,\"queue_depth\":2,\"drainin"
    "g\":false,\"journal_appends\":21,\"journal_fsyncs\":22,\"resul"
    "ts_bytes_served\":1024,\"runner_relaunches\":6,\"active_job\":"
    "7}";
const char *const kTelemetryPin =
    "{\"type\":\"sbn.telemetry.v1\",\"ctr.sim.runs\":1,\"ctr.sim.he"
    "ap_events\":101,\"ctr.sim.calendar_drains\":201,\"ctr.sim.thin"
    "k_draws\":301,\"ctr.sim.requests_issued\":401,\"ctr.sim.reques"
    "ts_completed\":501,\"ctr.exec.adaptive_rounds_grown\":601,\"ct"
    "r.shard.records_written\":701,\"ctr.shard.records_merged\":801"
    ",\"ctr.shard.records_deduped\":901,\"ctr.supervisor.respawns\""
    ":1001,\"ctr.supervisor.steals\":1101,\"ctr.supervisor.hang_kil"
    "ls\":1201,\"tmr.sim.run_ns\":1000000007,\"tmr.sim.run_count\":"
    "2,\"tmr.shard.merge_ns\":2000000014,\"tmr.shard.merge_count\":"
    "3}";
const char *const kCountersOnlyPin =
    "{\"type\":\"sbn.telemetry.v1\",\"ctr.sim.runs\":1,\"ctr.sim.he"
    "ap_events\":101,\"ctr.sim.calendar_drains\":201,\"ctr.sim.thin"
    "k_draws\":301,\"ctr.sim.requests_issued\":401,\"ctr.sim.reques"
    "ts_completed\":501,\"ctr.exec.adaptive_rounds_grown\":601,\"ct"
    "r.shard.records_written\":701,\"ctr.shard.records_merged\":801"
    ",\"ctr.shard.records_deduped\":901,\"ctr.supervisor.respawns\""
    ":1001,\"ctr.supervisor.steals\":1101,\"ctr.supervisor.hang_kil"
    "ls\":1201}";
const char *const kHistogramPin =
    "{\"type\":\"sbn.hist.v1\",\"scale\":\"log\",\"lo\":1,\"hi\":10"
    "24,\"bins\":10,\"count\":6,\"underflow\":1,\"overflow\":1,\"su"
    "m\":5108,\"counts\":\"0:1 1:2 6:1\"}";
const char *const kSpanPin =
    "{\"type\":\"sbn.trace.v1\",\"trace\":\"00000000000000ab\",\"sp"
    "an\":\"00c0ffee00000002\",\"parent\":\"0000000000000001\",\"ki"
    "nd\":\"attempt\",\"name\":\"shard 1 \\\"retry\\\"\",\"pid\":0,"
    "\"start_us\":1000,\"end_us\":2500,\"a_exit\":\"0\",\"a_note\":"
    "\"a\\\\b\\tc\"}";
/** No writer: a codec-only corpus line for its quote, tab and
 *  backslash escapes. */
const char *const kEscapesPin =
    "{\"tick\":7,\"category\":\"bus.arb\",\"message\":\"grant \\\"p"
    "3\\\"\\tnow\\\\later\"}";

// ---------------------------------------------------- the checks

/**
 * @p line parses, and its fields re-render to its own bytes: every
 * field's rendering occurs in the line, and together with the braces
 * and commas they account for every byte.
 */
void
expectFieldsReRender(const std::string &line)
{
    FlatObject object;
    std::string error;
    ASSERT_TRUE(parseFlatObject(line, object, error))
        << error << ": " << line;
    std::size_t covered = object.empty() ? 2 : object.size() + 1;
    for (const auto &[key, value] : object) {
        std::string field = renderFlatObject({{key, value}});
        field = field.substr(1, field.size() - 2);
        EXPECT_NE(line.find(field), std::string::npos)
            << field << " in " << line;
        covered += field.size();
    }
    EXPECT_EQ(covered, line.size()) << line;
}

/** The writer emits @p pin, and the pin re-renders to itself. */
void
expectPinned(const std::string &written, const char *pin)
{
    EXPECT_EQ(written, pin);
    expectFieldsReRender(pin);
}

/** @p line as the client sees a daemon reply. */
ClientResponse
reply(const std::string &line)
{
    ClientResponse response;
    std::string error;
    EXPECT_TRUE(parseFlatObject(line, response.fields, error)) << error;
    return response;
}

TEST(WirePins, PointRecords)
{
    for (const auto &[record, pin] :
         {std::pair{adaptiveRecord(), kAdaptiveRecordPin},
          std::pair{latencyRecord(), kLatencyRecordPin}}) {
        expectPinned(formatRecord(record), pin);
        PointRecord parsed;
        std::string error;
        ASSERT_TRUE(parseRecord(pin, parsed, error)) << error;
        EXPECT_TRUE(parsed.bitIdentical(record));
        EXPECT_EQ(formatRecord(parsed), pin);
    }
}

TEST(WirePins, JournalEntry)
{
    expectPinned(formatJournalEntry(journalEntry()), kJournalPin);
    JobJournalEntry parsed;
    std::string error;
    ASSERT_TRUE(parseJournalEntry(kJournalPin, parsed, error)) << error;
    EXPECT_EQ(parsed.reason, journalEntry().reason);
    EXPECT_EQ(formatJournalEntry(parsed), kJournalPin);
}

TEST(WirePins, EveryRequestKind)
{
    Request submit = request(RequestKind::Submit);
    submit.spec = "--n=8 --m=16 --p=0.2,0.6 --spawn=2";
    submit.timeoutSeconds = 12.5;
    Request plain_submit = request(RequestKind::Submit);
    plain_submit.spec = "--n=4 --label=\"a b\"";
    const std::pair<Request, const char *> cases[] = {
        {submit, kSubmitPin},
        {plain_submit, kSubmitNoTimeoutPin},
        {request(RequestKind::Status), kStatusPin},
        {request(RequestKind::Status, true, 3), kStatusJobPin},
        {request(RequestKind::Cancel, true, 3), kCancelPin},
        {request(RequestKind::Results, true, 42), kResultsPin},
        {request(RequestKind::Wait, true, 7), kWaitPin},
        {request(RequestKind::Drain), kDrainPin},
        {request(RequestKind::Metrics), kMetricsPin},
        {request(RequestKind::Metrics, true, 0), kMetricsJobPin},
    };
    for (const auto &[original, pin] : cases) {
        expectPinned(formatRequest(original), pin);
        Request parsed;
        std::string error;
        ASSERT_TRUE(parseRequest(pin, parsed, error)) << error;
        EXPECT_EQ(formatRequest(parsed), pin);
    }
}

TEST(WirePins, DaemonReplies)
{
    const std::string message = "spec \"--n=x\" is not C:\\ok";
    expectPinned(errorResponse("bad_spec", message), kErrorPin);
    EXPECT_EQ(reply(kErrorPin).errorCode(), "bad_spec");
    EXPECT_EQ(reply(kErrorPin).text("message"), message);
    expectPinned(jobStatusLine(journalEntry()), kStatusLinePin);
    const ClientResponse status = reply(kStatusLinePin);
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(status.number("job"), 7u);
    EXPECT_EQ(status.number("exit"), 75u);
    EXPECT_EQ(status.text("reason"), journalEntry().reason);
    expectPinned(formatDaemonMetricsResponse(metrics()),
                 kMetricsReplyPin);
    DaemonMetricsSnapshot idle = metrics();
    idle.hasActiveJob = false;
    idle.draining = true;
    idle.uptimeSeconds = 0.0004;
    expectPinned(formatDaemonMetricsResponse(idle),
                 kIdleMetricsReplyPin);
    const std::string heartbeat = formatHeartbeatV2(metrics(), 1754650000);
    ASSERT_FALSE(heartbeat.empty());
    EXPECT_EQ(heartbeat.back(), '\n');
    expectPinned(heartbeat.substr(0, heartbeat.size() - 1),
                 kHeartbeatPin);
}

TEST(WirePins, TelemetryAndHistogram)
{
    expectPinned(formatTelemetrySnapshot(telemetry(), true),
                 kTelemetryPin);
    expectPinned(formatTelemetrySnapshot(telemetry(), false),
                 kCountersOnlyPin);
    expectPinned(histogram().renderFlatJson(), kHistogramPin);
}

TEST(WirePins, TraceLines)
{
    expectPinned(spanLine(), kSpanPin);
    TraceSpan parsed;
    std::string error;
    ASSERT_TRUE(parseSpanLine(kSpanPin, parsed, error)) << error;
    EXPECT_EQ(parsed.name, "shard 1 \"retry\"");
    ASSERT_EQ(parsed.attrs.size(), 2u);
    EXPECT_EQ(parsed.attrs[1].second, "a\\b\tc");
    EXPECT_EQ(formatSpanLine(parsed), kSpanPin);

    // The writerless line: a rendered object sorts its keys, so it
    // round-trips field by field rather than as a whole.
    expectFieldsReRender(kEscapesPin);
    FlatObject object;
    ASSERT_TRUE(parseFlatObject(kEscapesPin, object, error)) << error;
    EXPECT_EQ(object.at("message").text, "grant \"p3\"\tnow\\later");
}

// -------------------------------------------------------- the codec

TEST(FlatJson, ParsesScalarsStrictly)
{
    FlatObject object;
    std::string error;
    ASSERT_TRUE(parseFlatObject(
        "{\"s\":\"a b\",\"n\":-2.5,\"t\":true,\"f\":false,"
        "\"z\":null}",
        object, error))
        << error;
    EXPECT_EQ(object.size(), 5u);
    FlatReader read(object, error);
    std::string text;
    double number = 0;
    bool yes = false, no = true;
    EXPECT_TRUE(read.string("s", text));
    EXPECT_EQ(text, "a b");
    EXPECT_TRUE(read.finiteDouble("n", number));
    EXPECT_DOUBLE_EQ(number, -2.5);
    EXPECT_TRUE(read.boolean("t", yes));
    EXPECT_TRUE(yes);
    EXPECT_TRUE(read.boolean("f", no));
    EXPECT_FALSE(no);
    EXPECT_EQ(object["z"].kind, FlatValue::Kind::Null);

    ASSERT_TRUE(parseFlatObject("{}", object, error)) << error;
    EXPECT_TRUE(object.empty());

    // Spaces and tabs between tokens, as json.dumps writes them.
    ASSERT_TRUE(parseFlatObject(" {\t\"a\" : 1 , \"b\": \"x\" } ",
                                object, error))
        << error;
    EXPECT_EQ(renderFlatObject(object), "{\"a\":1,\"b\":\"x\"}");

    // The four spellings %.17g prints for non-finite doubles lex as
    // numbers; only a reader that wants them accepts them.
    ASSERT_TRUE(parseFlatObject(
        "{\"a\":nan,\"b\":-nan,\"c\":inf,\"d\":-inf}", object, error))
        << error;
    for (const char *key : {"a", "b", "c", "d"}) {
        EXPECT_EQ(object[key].kind, FlatValue::Kind::Number);
        EXPECT_FALSE(FlatReader(object, error).finiteDouble(key, number));
    }
}

TEST(FlatJson, RejectsWhatTheProtocolForbids)
{
    FlatObject object;
    std::string error;
    const std::string long_integer = "1" + std::string(400, '0');
    const std::string bad[] = {
        "",                           // not an object
        "[1,2]",                      // not an object
        "{\"a\":1} trailing",         // trailing bytes
        "{\"a\":1,\"a\":2}",          // duplicate key
        "{\"a\":{\"b\":1}}",          // nesting
        "{\"a\":[1]}",                // nesting
        "{\"a\":nope}",               // malformed literal
        "{\"a\":1e999}",              // non-finite number
        "{\"a\":\"unterminated",      // unterminated string
        "{\"a\":\"bad\\qescape\"}",   // unsupported escape
        "{\"a\" 1}",                  // missing colon
        "{\"a\":1 \"b\":2}",          // missing comma
        "{\"a\":-1e400}",             // overflows a double
        "{\"a\":" + long_integer + "}", // overflows a double
        "{\"a\":01}",                 // leading zero
        "{\"a\":+1}",                 // not JSON number grammar
        "{\"a\":.5}",                 // not JSON number grammar
        "{\"a\":1.}",                 // not JSON number grammar
        "{\"a\":1e}",                 // not JSON number grammar
        "{\"a\":0x10}",               // not JSON number grammar
        "{\"a\":infinity}",           // not a %.17g spelling
        "{\"a\":1,}",                 // trailing comma
        "{\"a\":1}\r",                // carriage return
        "{\"a\":\"\\/\"}",            // an escape nothing writes
        "{\"a\":\"\\u000a\"}",        // \n has a short escape
        "{\"a\":\"\\u0041\"}",        // not a control character
        "{\"a\":\"\\u001F\"}",        // uppercase hex
        "{\"a\":\"raw\x01\"}",        // raw control character
    };
    for (const std::string &text : bad) {
        EXPECT_FALSE(parseFlatObject(text, object, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FlatJson, EscapeRoundTrips)
{
    const std::string nasty = "a\"b\\c\nd\te\rf/g\x01h\x1fi\x7fj";
    std::string escaped;
    appendEscaped(escaped, nasty);
    EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\te\\rf/g\\u0001h\\u001fi\x7fj");
    FlatObject object;
    std::string error;
    ASSERT_TRUE(parseFlatObject("{\"k\":\"" + escaped + "\"}", object,
                                error))
        << error;
    EXPECT_EQ(object["k"].text, nasty);
    EXPECT_EQ(renderFlatObject(object), "{\"k\":\"" + escaped + "\"}");
}

TEST(FlatJson, TypedReadersAreExact)
{
    FlatObject object;
    std::string error;
    ASSERT_TRUE(parseFlatObject(
        "{\"max\":18446744073709551615,\"over\":18446744073709551616,"
        "\"odd\":9007199254740993,\"real\":3.0,\"big\":1e300,"
        "\"neg\":-1,\"tiny\":1e-400,\"s\":\"7\"}",
        object, error))
        << error;
    FlatReader read(object, error);
    std::uint64_t n = 0;
    EXPECT_TRUE(read.unsignedInt("max", n));
    EXPECT_EQ(n, 18446744073709551615ull);
    EXPECT_TRUE(read.unsignedInt("odd", n));
    EXPECT_EQ(n, 9007199254740993ull); // a double would round it
    for (const char *key : {"over", "real", "big", "neg", "s"}) {
        n = 0;
        EXPECT_FALSE(read.unsignedInt(key, n)) << key;
        EXPECT_EQ(n, 0u) << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    double x = 1;
    EXPECT_TRUE(read.finiteDouble("tiny", x)); // underflow is finite
    EXPECT_EQ(x, 0.0);
    EXPECT_FALSE(read.string("missing", error));

    // finish() names a key that no read asked for.
    FlatReader partial(object, error);
    EXPECT_TRUE(partial.unsignedInt("max", n));
    EXPECT_FALSE(partial.finish());
    EXPECT_NE(error.find("\"big\""), std::string::npos) << error;
}

TEST(FlatJson, ExactPairsCheckTheDecimalAgainstTheBits)
{
    const double values[] = {0.1, -0.0, 5e-324, 1.7976931348623157e308,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::quiet_NaN()};
    for (const double value : values) {
        const std::string line = FlatWriter().exactPair("v", value).finish();
        FlatObject object;
        std::string error;
        ASSERT_TRUE(parseFlatObject(line, object, error)) << error;
        double back = 0;
        FlatReader read(object, error);
        ASSERT_TRUE(read.exactPair("v", back)) << error;
        EXPECT_TRUE(read.finish()) << error;
        EXPECT_EQ(doubleBits(back), doubleBits(value)) << line;
    }
    double out = 0;
    EXPECT_EQ(checkExactDouble("0.5", formatFingerprint(doubleBits(0.5)),
                               out),
              nullptr);
    EXPECT_EQ(out, 0.5);
    EXPECT_NE(checkExactDouble("0.25", formatFingerprint(doubleBits(0.5)),
                               out),
              nullptr);
    EXPECT_NE(checkExactDouble("0.5", "0x3fe", out), nullptr);
    EXPECT_NE(checkExactDouble("0.5x", formatFingerprint(doubleBits(0.5)),
                               out),
              nullptr);
}

/** Every pin: the corpus the mutation test starts from. */
std::vector<std::string>
allPins()
{
    return {kAdaptiveRecordPin, kLatencyRecordPin, kJournalPin,
            kSubmitPin,         kSubmitNoTimeoutPin, kStatusPin,
            kStatusJobPin,      kCancelPin,          kResultsPin,
            kWaitPin,           kDrainPin,           kMetricsPin,
            kMetricsJobPin,     kErrorPin,           kStatusLinePin,
            kMetricsReplyPin,   kIdleMetricsReplyPin, kHeartbeatPin,
            kTelemetryPin,      kCountersOnlyPin,    kHistogramPin,
            kSpanPin,           kEscapesPin};
}

/** One random byte edit of @p line: flip, insert, delete, truncate
 *  or splice in a piece of another pin. */
void
mutate(std::string &line, std::mt19937_64 &rng,
       const std::vector<std::string> &pins)
{
    // Bytes the grammar cares about, plus a few it must refuse.
    static const std::string alphabet =
        "{}[]:,\"\\ \t0123456789.eE+-nafiltrsu_x\x01\x1f\x7f\xc3";
    const auto below = [&](std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
    };
    const std::size_t at = below(line.size() + 1);
    switch (rng() % 5) {
    case 0:
        if (at < line.size())
            line[at] = static_cast<char>(line[at] ^ (1 << below(8)));
        break;
    case 1:
        line.insert(at, 1, alphabet[below(alphabet.size())]);
        break;
    case 2:
        if (at < line.size())
            line.erase(at, 1);
        break;
    case 3:
        line.resize(at);
        break;
    default: {
        const std::string &donor = pins[below(pins.size())];
        const std::size_t from = below(donor.size());
        const std::size_t length = 1 + below(12);
        line.replace(at, below(4), donor.substr(from, length));
    }
    }
}

/** What the codec and every format parser must do with any input. */
struct MutantCheck
{
    std::size_t codec = 0, records = 0, journal = 0, requests = 0,
                spans = 0;

    void operator()(const std::string &line)
    {
        std::string error;
        FlatObject object;
        if (parseFlatObject(line, object, error)) {
            ++codec;
            const std::string once = renderFlatObject(object);
            FlatObject again;
            ASSERT_TRUE(parseFlatObject(once, again, error))
                << error << ": " << once;
            ASSERT_EQ(renderFlatObject(again), once) << line;
            ClientResponse response;
            response.fields = object;
            (void)response.ok();
            (void)response.errorCode();
            (void)response.number("job");
        }
        PointRecord record;
        if (parseRecord(line, record, error)) {
            ++records;
            const std::string once = formatRecord(record);
            PointRecord again;
            ASSERT_TRUE(parseRecord(once, again, error)) << error;
            ASSERT_EQ(formatRecord(again), once) << line;
            ASSERT_TRUE(again.bitIdentical(record)) << line;
        }
        JobJournalEntry entry;
        if (parseJournalEntry(line, entry, error)) {
            ++journal;
            const std::string once = formatJournalEntry(entry);
            JobJournalEntry again;
            ASSERT_TRUE(parseJournalEntry(once, again, error)) << error;
            ASSERT_EQ(formatJournalEntry(again), once) << line;
        }
        Request request;
        if (parseRequest(line, request, error)) {
            ++requests;
            const std::string once = formatRequest(request);
            Request again;
            ASSERT_TRUE(parseRequest(once, again, error)) << error;
            ASSERT_EQ(formatRequest(again), once) << line;
        }
        TraceSpan span;
        if (parseSpanLine(line, span, error)) {
            ++spans;
            const std::string once = formatSpanLine(span);
            TraceSpan again;
            ASSERT_TRUE(parseSpanLine(once, again, error)) << error;
            ASSERT_EQ(formatSpanLine(again), once) << line;
        }
    }
};

TEST(FlatJson, MutatedPinsNeverCrashAndReachAFixedPoint)
{
    const std::vector<std::string> pins = allPins();
    std::mt19937_64 rng(0x5eed5b1);
    MutantCheck check;
    constexpr int kMutants = 20000;
    for (int i = 0; i < kMutants; ++i) {
        std::string line = pins[rng() % pins.size()];
        for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0;
             --edits)
            mutate(line, rng, pins);
        check(line);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The corpus must keep exercising every accept path, or the
    // fixed-point checks above check nothing.
    EXPECT_GT(check.codec, kMutants / 10u);
    EXPECT_GT(check.records, 15u);
    EXPECT_GT(check.journal, 40u);
    EXPECT_GT(check.requests, 150u);
    EXPECT_GT(check.spans, 35u);

    // SBN_FAULT specs through the same mutator. The grammar is not
    // JSON and has no writer, so the property is weaker: no crash, a
    // reason for every refusal, and no accepted plan that targets
    // the non-worker scope (a sentinel spelled as a number).
    const std::vector<std::string> faultPins = {
        "shard=1,attempt=2,kill_after_records=3,truncate_tail=40",
        "shard=any,attempt=any,hang_after_records=2",
        "shard=18446744073709551613,attempt=4294967294,fail_write_at=5",
        "abort_in_merge",
        "crash_after_journal=merging",
        "attempt=any,crash_in_merge",
        "stall_accept",
    };
    std::size_t faults = 0;
    for (int i = 0; i < kMutants / 4; ++i) {
        std::string spec = faultPins[rng() % faultPins.size()];
        for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0;
             --edits)
            mutate(spec, rng, faultPins);
        FaultPlan plan;
        std::string error;
        if (parseFaultPlan(spec, plan, error)) {
            ++faults;
            EXPECT_NE(plan.shard, kFaultNoShard) << spec;
        } else {
            EXPECT_FALSE(error.empty()) << spec;
        }
    }
    EXPECT_GT(faults, 100u);
}

} // namespace
} // namespace sbn
