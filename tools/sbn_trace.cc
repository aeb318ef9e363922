/**
 * @file
 * Trace-shard merger: turn the per-process sbn.trace.v1 span shards
 * a traced run leaves behind (trace/span.hh) into one timeline.
 *
 *   sbn_trace --dir=DIR --merge [> trace.json]
 *       Merge every trace-<pid>.jsonl shard under DIR into one
 *       Chrome-trace-event JSON object ({"traceEvents":[...]}) that
 *       Perfetto (ui.perfetto.dev) and chrome://tracing load
 *       directly. Timestamps are rebased to the earliest span start,
 *       events are sorted by start time, and every event carries its
 *       trace/span/parent ids and attributes in "args".
 *
 *   sbn_trace --dir=DIR --summary
 *       Human-readable digest: per-span-kind totals, the slowest
 *       shard attempts, and each trace's critical path (the chain
 *       from its root span following the latest-ending child).
 *
 *   sbn_trace --dir=DIR --check
 *       Validation for CI: every shard line must parse as a complete
 *       sbn.trace.v1 span, every span must close after it opens, and
 *       every child must start no earlier than its parent (the spans
 *       share one host's monotonic clock, so cross-process nesting
 *       is checkable). Exits nonzero naming the first violation.
 *
 * The modes compose: --merge --check validates before emitting.
 */

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/span.hh"
#include "util/cli.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace {

using namespace sbn;

/** One span and the shard line it was read from (diagnostics). */
struct ShardSpan : TraceSpan
{
    std::string file;
    std::size_t line = 0;
};

/** The trace-<pid>.jsonl shards under @p dir, sorted by name. */
std::vector<std::string>
findShards(const std::string &dir)
{
    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        sbn_fatal("cannot open trace directory '", dir, "'");
    std::vector<std::string> shards;
    while (dirent *entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.size() > 12 && name.compare(0, 6, "trace-") == 0 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            shards.push_back(dir + "/" + name);
    }
    ::closedir(handle);
    std::sort(shards.begin(), shards.end());
    return shards;
}

/** Load every span from every shard; fatal on unreadable files. */
std::vector<ShardSpan>
loadSpans(const std::vector<std::string> &shards)
{
    std::vector<ShardSpan> spans;
    for (const std::string &path : shards) {
        std::ifstream in(path);
        if (!in.is_open())
            sbn_fatal("cannot open trace shard '", path, "'");
        std::string line;
        std::size_t lineNo = 0;
        while (std::getline(in, line)) {
            ++lineNo;
            if (line.empty())
                continue;
            ShardSpan span;
            std::string error;
            if (!parseSpanLine(line, span, error))
                sbn_fatal(path, ":", lineNo, ": bad span line: ",
                          error);
            span.file = path;
            span.line = lineNo;
            spans.push_back(std::move(span));
        }
    }
    return spans;
}

/**
 * Structural validation: intervals must close after they open, and a
 * child must not start before its parent (all spans of one run share
 * the host's monotonic clock). Prints the first violation and
 * returns false.
 */
bool
checkSpans(const std::vector<ShardSpan> &spans)
{
    std::map<std::uint64_t, const ShardSpan *> byId;
    for (const ShardSpan &span : spans) {
        if (span.endUs < span.startUs) {
            std::fprintf(stderr,
                         "sbn_trace: %s:%zu: span '%s' ends before "
                         "it starts (%llu < %llu)\n",
                         span.file.c_str(), span.line,
                         span.name.c_str(),
                         static_cast<unsigned long long>(span.endUs),
                         static_cast<unsigned long long>(
                             span.startUs));
            return false;
        }
        byId[span.span] = &span;
    }
    for (const ShardSpan &span : spans) {
        if (span.parent == 0)
            continue;
        const auto it = byId.find(span.parent);
        if (it == byId.end())
            continue; // parent's process died before emitting: fine
        const ShardSpan &parent = *it->second;
        if (span.trace == parent.trace &&
            span.startUs < parent.startUs) {
            std::fprintf(
                stderr,
                "sbn_trace: %s:%zu: span '%s' starts before its "
                "parent '%s' (%llu < %llu)\n",
                span.file.c_str(), span.line, span.name.c_str(),
                parent.name.c_str(),
                static_cast<unsigned long long>(span.startUs),
                static_cast<unsigned long long>(parent.startUs));
            return false;
        }
    }
    return true;
}

/** Chrome trace-event JSON on stdout (Perfetto-loadable). */
void
emitChromeTrace(std::vector<ShardSpan> spans)
{
    std::uint64_t base = ~0ull;
    for (const ShardSpan &span : spans)
        base = std::min(base, span.startUs);
    if (spans.empty())
        base = 0;
    std::sort(spans.begin(), spans.end(),
              [](const ShardSpan &a, const ShardSpan &b) {
                  return a.startUs != b.startUs
                             ? a.startUs < b.startUs
                             : a.span < b.span;
              });

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const ShardSpan &span : spans) {
        if (!first)
            out += ",\n";
        first = false;
        FlatWriter args;
        args.string("trace", formatTraceId(span.trace))
            .string("span", formatTraceId(span.span))
            .string("parent", formatTraceId(span.parent));
        for (const auto &attr : span.attrs)
            args.string(attr.first, attr.second);
        std::string event = FlatWriter()
                                .string("name", span.name)
                                .string("cat", span.kind)
                                .string("ph", "X")
                                .unsignedInt("ts", span.startUs - base)
                                .unsignedInt("dur", span.endUs - span.startUs)
                                .unsignedInt("pid", span.pid)
                                .unsignedInt("tid", span.pid)
                                .finish();
        event.pop_back(); // the args object nests inside the event
        out += event + ",\"args\":" + args.finish() + "}";
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
}

std::string
seconds(std::uint64_t micros)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fs",
                  static_cast<double>(micros) / 1e6);
    return buf;
}

/** Per-kind totals, slowest attempts, per-trace critical path. */
void
emitSummary(const std::vector<ShardSpan> &spans)
{
    std::set<std::uint64_t> pids;
    std::set<std::uint64_t> traces;
    for (const ShardSpan &span : spans) {
        pids.insert(span.pid);
        traces.insert(span.trace);
    }
    std::printf("%zu span(s) from %zu process(es), %zu trace(s)\n",
                spans.size(), pids.size(), traces.size());

    struct KindStat
    {
        std::size_t count = 0;
        std::uint64_t totalUs = 0;
        std::uint64_t maxUs = 0;
    };
    std::map<std::string, KindStat> kinds;
    for (const ShardSpan &span : spans) {
        KindStat &stat = kinds[span.kind];
        ++stat.count;
        const std::uint64_t dur = span.endUs - span.startUs;
        stat.totalUs += dur;
        stat.maxUs = std::max(stat.maxUs, dur);
    }
    std::printf("by kind:\n");
    for (const auto &pair : kinds)
        std::printf("  %-15s %4zu span(s)  total %-10s max %s\n",
                    pair.first.c_str(), pair.second.count,
                    seconds(pair.second.totalUs).c_str(),
                    seconds(pair.second.maxUs).c_str());

    // Slowest shard attempts: where a fleet's wall clock went.
    std::vector<const ShardSpan *> attempts;
    for (const ShardSpan &span : spans)
        if (span.kind == "attempt")
            attempts.push_back(&span);
    std::sort(attempts.begin(), attempts.end(),
              [](const ShardSpan *a, const ShardSpan *b) {
                  return a->endUs - a->startUs > b->endUs - b->startUs;
              });
    if (!attempts.empty()) {
        std::printf("slowest attempts:\n");
        for (std::size_t i = 0;
             i < std::min<std::size_t>(5, attempts.size()); ++i) {
            const ShardSpan &span = *attempts[i];
            std::string outcome;
            for (const auto &attr : span.attrs)
                if (attr.first == "outcome")
                    outcome = attr.second;
            std::printf("  %-10s %s%s%s\n",
                        seconds(span.endUs - span.startUs).c_str(),
                        span.name.c_str(),
                        outcome.empty() ? "" : " - ",
                        outcome.c_str());
        }
    }

    // Critical path per trace: from the root span, repeatedly follow
    // the child whose interval ends latest - the chain that had to
    // finish for the trace to finish.
    std::map<std::uint64_t, std::vector<const ShardSpan *>> children;
    for (const ShardSpan &span : spans)
        if (span.parent != 0)
            children[span.parent].push_back(&span);
    for (const std::uint64_t trace : traces) {
        const ShardSpan *root = nullptr;
        std::set<std::uint64_t> ids;
        for (const ShardSpan &span : spans)
            if (span.trace == trace)
                ids.insert(span.span);
        for (const ShardSpan &span : spans) {
            if (span.trace != trace)
                continue;
            if (span.parent != 0 && ids.count(span.parent) != 0)
                continue; // has a present parent: not a root
            if (root == nullptr ||
                span.endUs - span.startUs >
                    root->endUs - root->startUs)
                root = &span;
        }
        if (root == nullptr)
            continue;
        std::printf("critical path (trace %s):\n",
                    formatTraceId(trace).c_str());
        const ShardSpan *current = root;
        std::set<std::uint64_t> visited;
        while (current != nullptr &&
               visited.insert(current->span).second) {
            std::printf("  %s (%s)\n", current->name.c_str(),
                        seconds(current->endUs - current->startUs)
                            .c_str());
            const ShardSpan *next = nullptr;
            const auto it = children.find(current->span);
            if (it != children.end())
                for (const ShardSpan *child : it->second)
                    if (child->trace == trace &&
                        (next == nullptr ||
                         child->endUs > next->endUs))
                        next = child;
            current = next;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, std::string> known{
        {"dir", "trace shard directory (the traced run's "
                "SBN_TRACE_DIR)"},
        {"merge", "emit one Perfetto-loadable Chrome trace JSON "
                  "object on stdout"},
        {"summary", "per-kind totals, slowest attempts and critical "
                    "paths on stdout"},
        {"check", "validate span structure and cross-process "
                  "monotone nesting; nonzero exit on violation"},
    };
    const CommandLine cli(argc, argv, known);

    const std::string dir = cli.getString("dir", "");
    if (dir.empty())
        sbn_fatal("sbn_trace needs --dir=DIR (the traced run's "
                  "SBN_TRACE_DIR)");
    const bool merge = cli.getBool("merge", false);
    const bool summary = cli.getBool("summary", false);
    const bool check = cli.getBool("check", false);
    if (!merge && !summary && !check)
        sbn_fatal("pick at least one of --merge, --summary, --check");

    const std::vector<std::string> shards = findShards(dir);
    if (shards.empty())
        sbn_fatal("no trace-*.jsonl shards under '", dir,
                  "'; was the run traced (--trace / SBN_TRACE_DIR)?");
    const std::vector<ShardSpan> spans = loadSpans(shards);
    std::fprintf(stderr, "sbn_trace: %zu span(s) from %zu shard(s)\n",
                 spans.size(), shards.size());

    if (check && !checkSpans(spans))
        return 1;
    if (merge)
        emitChromeTrace(spans);
    if (summary)
        emitSummary(spans);
    return 0;
}
