/**
 * @file
 * Cross-process span tracing for the sweep orchestration fleet.
 *
 * This layer answers "when did anything happen across the job
 * fleet": daemon job lifecycle, supervised shard attempts, retries,
 * backoff waits, hang kills, steal slices, merges and adaptive
 * rounds.
 *
 * Model: every process appends complete spans - closed intervals with
 * monotonic-clock microsecond timestamps - as one-line sbn.trace.v1
 * JSONL records to its own shard file `$SBN_TRACE_DIR/trace-<pid>.jsonl`
 * (O_APPEND, one unbuffered write per span, so shards from concurrent
 * processes never interleave mid-line and a killed process loses at
 * most its line in flight). `tools/sbn_trace` merges the shards into
 * one Perfetto-loadable Chrome trace JSON.
 *
 * Identity: a *trace* (one submitted job / one CLI invocation) is a
 * 64-bit trace id; every span gets a process-unique 64-bit span id
 * and names its parent span, forming the cross-process tree. Context
 * flows parent -> child process via two environment variables:
 *
 *   SBN_TRACE_DIR  shard directory; set = tracing enabled
 *   SBN_TRACE_CTX  "<trace>:<span>" - the forked child's root parent
 *
 * Both are inherited by fork, so the daemon's runner, the runner's
 * supervisor and the supervisor's workers all join one tree without
 * any new IPC. Everything is disabled (and cost-free beyond one
 * getenv) when SBN_TRACE_DIR is unset.
 *
 * Clock comparability: timestamps are CLOCK_MONOTONIC, which every
 * process of one host shares, so spans from different processes order
 * correctly in one merged timeline. Cross-host merging would need an
 * offset pass; the fleet is single-host today.
 */

#ifndef SBN_TRACE_SPAN_HH
#define SBN_TRACE_SPAN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sbn {

/** The (trace, parent span) coordinates a process was launched under. */
struct TraceContext
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;

    bool valid() const { return traceId != 0; }
};

/** Environment variable naming the trace shard directory. */
extern const char *const kTraceDirEnvVar;

/** Environment variable carrying the inherited "<trace>:<span>". */
extern const char *const kTraceCtxEnvVar;

/** True when SBN_TRACE_DIR is set (tracing armed for this process). */
bool traceEnabled();

/** The shard directory (empty when tracing is off). */
std::string traceShardDir();

/** Monotonic-clock timestamp in microseconds. */
std::uint64_t traceNowMicros();

/**
 * This process's inherited context (parsed from SBN_TRACE_CTX once),
 * or an invalid context when unset/malformed.
 */
TraceContext inheritedTraceContext();

/** Serialize @p ctx to the SBN_TRACE_CTX "<trace>:<span>" form. */
std::string formatTraceContext(const TraceContext &ctx);

/** Parse the "<trace>:<span>" form; false on malformed input. */
bool parseTraceContext(const std::string &text, TraceContext &out);

/**
 * setenv(SBN_TRACE_CTX) for processes about to be forked (or just
 * forked): the canonical propagation step. Call only from
 * single-threaded contexts (post-fork child, or a parent that forks
 * from its main thread), like every setenv.
 */
void exportTraceContext(const TraceContext &ctx);

/**
 * A freshly allocated trace id (for a root process with no inherited
 * context): unique per call within and across processes of one host.
 */
std::uint64_t newTraceId();

/** A trace or span id as written in span lines: 16 lowercase hex
 *  digits, no prefix. */
std::string formatTraceId(std::uint64_t id);

/** Parse 1-16 lowercase hex digits back; false on anything else. */
bool parseTraceId(const std::string &text, std::uint64_t &out);

/** One "key":"value" span attribute (values JSON-escaped on write). */
using TraceAttr = std::pair<std::string, std::string>;

/** One sbn.trace.v1 span line, as written and as read back. */
struct TraceSpan
{
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    std::string kind;
    std::string name;
    std::uint64_t pid = 0;
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    /** Written as "a_<key>" string fields, in this order. */
    std::vector<TraceAttr> attrs;
};

/** The sbn.trace.v1 line for @p span (no newline). */
std::string formatSpanLine(const TraceSpan &span);

/**
 * Parse one sbn.trace.v1 line; on failure @p error says why. Keys
 * with the a_ prefix become attributes, in key order; any other key
 * the format does not define is an error (the format is versioned
 * precisely so drift is loud).
 */
bool parseSpanLine(const std::string &line, TraceSpan &out,
                   std::string &error);

/**
 * Append one complete span to this process's trace shard and return
 * its span id (0 when tracing is off). @p start_us/@p end_us are
 * traceNowMicros() readings; instants pass start == end. @p parent is
 * the parent span id (0 = root of this trace). Fork-safe: the writer
 * detects a pid change and reopens the per-pid shard file, so a
 * child forked mid-run never appends to its parent's shard.
 */
std::uint64_t traceEmitSpan(const TraceContext &trace,
                            const std::string &kind,
                            const std::string &name,
                            std::uint64_t parent,
                            std::uint64_t start_us,
                            std::uint64_t end_us,
                            const std::vector<TraceAttr> &attrs = {});

/**
 * Pre-allocate a span id without emitting anything, for spans whose
 * id must be propagated to children before the interval closes (a
 * supervisor's run span, a daemon's job span). Emit later with
 * traceEmitSpanWithId(). Returns 0 when tracing is off.
 */
std::uint64_t traceAllocSpanId();

/** traceEmitSpan() with a pre-allocated id (see traceAllocSpanId). */
void traceEmitSpanWithId(const TraceContext &trace, std::uint64_t span,
                         const std::string &kind,
                         const std::string &name, std::uint64_t parent,
                         std::uint64_t start_us, std::uint64_t end_us,
                         const std::vector<TraceAttr> &attrs = {});

} // namespace sbn

#endif // SBN_TRACE_SPAN_HH
