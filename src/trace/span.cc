#include "trace/span.hh"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/fingerprint.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

const char *const kTraceDirEnvVar = "SBN_TRACE_DIR";
const char *const kTraceCtxEnvVar = "SBN_TRACE_CTX";

namespace {

/**
 * Per-process span-id source: pid and a nanosecond startup stamp mix
 * into every id, so two processes (even with a recycled pid) never
 * collide, and ids stay nonzero (0 means "no span").
 */
std::uint64_t
idSalt()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    const auto ns = static_cast<std::uint64_t>(ts.tv_sec) *
                        1000000000ull +
                    static_cast<std::uint64_t>(ts.tv_nsec);
    return fingerprintMix(
        fingerprintMix(0x53424e5452414345ull,
                       static_cast<std::uint64_t>(::getpid())),
        ns);
}

std::uint64_t
nextSpanId()
{
    static std::mutex mutex;
    static std::uint64_t salt = 0;
    static pid_t saltPid = -1;
    static std::uint64_t counter = 0;
    std::lock_guard<std::mutex> lock(mutex);
    // Fork safety: a child inherits these statics, and replaying the
    // parent's (salt, counter) sequence would collide with ids the
    // parent allocates after the fork. A pid change re-salts (the
    // salt mixes pid and a fresh clock reading), so the sequences
    // diverge even though the counter carries over.
    const pid_t pid = ::getpid();
    if (salt == 0 || pid != saltPid) {
        salt = idSalt();
        saltPid = pid;
    }
    std::uint64_t id = 0;
    while (id == 0)
        id = fingerprintMix(salt, ++counter);
    return id;
}

/**
 * The per-process shard appender. One unbuffered write per span line;
 * O_APPEND keeps concurrent processes' lines intact. Fork safety: the
 * open descriptor remembers which pid opened it, and any caller in a
 * different pid (a forked child inheriting the parent's state)
 * reopens its own trace-<pid>.jsonl first.
 */
class TraceWriter
{
  public:
    void write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const pid_t pid = ::getpid();
        if (fd_ < 0 || pid != ownerPid_) {
            if (fd_ >= 0)
                ::close(fd_);
            const std::string path = traceShardDir() + "/trace-" +
                                     std::to_string(pid) + ".jsonl";
            fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0666);
            if (fd_ < 0) {
                // Tracing is an observer: a shard that cannot open
                // (bad dir, permissions) warns once and stays dark
                // rather than failing the traced work.
                if (!warned_) {
                    sbn_warn("cannot open trace shard '", path,
                             "': ", std::strerror(errno),
                             " - span tracing disabled in this "
                             "process");
                    warned_ = true;
                }
                ownerPid_ = pid;
                return;
            }
            ownerPid_ = pid;
        }
        std::size_t done = 0;
        while (done < line.size()) {
            const ssize_t wrote = ::write(fd_, line.data() + done,
                                          line.size() - done);
            if (wrote < 0) {
                if (errno == EINTR)
                    continue;
                return; // best effort; never fail the traced work
            }
            done += static_cast<std::size_t>(wrote);
        }
    }

  private:
    std::mutex mutex_;
    int fd_ = -1;
    pid_t ownerPid_ = -1;
    bool warned_ = false;
};

TraceWriter &
writer()
{
    static TraceWriter instance;
    return instance;
}

} // namespace

std::string
formatTraceId(std::uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

bool
parseTraceId(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 16 ||
        text.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 16);
    return true;
}

bool
traceEnabled()
{
    const char *dir = std::getenv(kTraceDirEnvVar);
    return dir != nullptr && *dir != '\0';
}

std::string
traceShardDir()
{
    const char *dir = std::getenv(kTraceDirEnvVar);
    return dir != nullptr ? dir : "";
}

std::uint64_t
traceNowMicros()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

TraceContext
inheritedTraceContext()
{
    const char *env = std::getenv(kTraceCtxEnvVar);
    TraceContext ctx;
    if (env != nullptr && *env != '\0' &&
        !parseTraceContext(env, ctx)) {
        sbn_warn("malformed ", kTraceCtxEnvVar, " '", env,
                 "' - starting a fresh trace context");
        ctx = TraceContext{};
    }
    return ctx;
}

std::string
formatTraceContext(const TraceContext &ctx)
{
    return formatTraceId(ctx.traceId) + ":" + formatTraceId(ctx.spanId);
}

bool
parseTraceContext(const std::string &text, TraceContext &out)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    std::uint64_t trace = 0, span = 0;
    if (!parseTraceId(text.substr(0, colon), trace) ||
        !parseTraceId(text.substr(colon + 1), span) || trace == 0)
        return false;
    out.traceId = trace;
    out.spanId = span;
    return true;
}

void
exportTraceContext(const TraceContext &ctx)
{
    ::setenv(kTraceCtxEnvVar, formatTraceContext(ctx).c_str(), 1);
}

std::uint64_t
newTraceId()
{
    return nextSpanId();
}

std::uint64_t
traceAllocSpanId()
{
    if (!traceEnabled())
        return 0;
    return nextSpanId();
}

std::uint64_t
traceEmitSpan(const TraceContext &trace, const std::string &kind,
              const std::string &name, std::uint64_t parent,
              std::uint64_t start_us, std::uint64_t end_us,
              const std::vector<TraceAttr> &attrs)
{
    if (!traceEnabled())
        return 0;
    const std::uint64_t span = nextSpanId();
    traceEmitSpanWithId(trace, span, kind, name, parent, start_us,
                        end_us, attrs);
    return span;
}

void
traceEmitSpanWithId(const TraceContext &trace, std::uint64_t span,
                    const std::string &kind, const std::string &name,
                    std::uint64_t parent, std::uint64_t start_us,
                    std::uint64_t end_us,
                    const std::vector<TraceAttr> &attrs)
{
    if (!traceEnabled() || span == 0)
        return;
    const TraceSpan line{trace.traceId, span, parent, kind, name,
                         static_cast<std::uint64_t>(::getpid()),
                         start_us, end_us, attrs};
    writer().write(formatSpanLine(line) + "\n");
}

std::string
formatSpanLine(const TraceSpan &span)
{
    FlatWriter line;
    line.string("type", "sbn.trace.v1")
        .string("trace", formatTraceId(span.trace))
        .string("span", formatTraceId(span.span))
        .string("parent", formatTraceId(span.parent))
        .string("kind", span.kind)
        .string("name", span.name)
        .unsignedInt("pid", span.pid)
        .unsignedInt("start_us", span.startUs)
        .unsignedInt("end_us", span.endUs);
    for (const TraceAttr &attr : span.attrs)
        line.string("a_" + attr.first, attr.second);
    return line.finish();
}

bool
parseSpanLine(const std::string &line, TraceSpan &out, std::string &error)
{
    FlatObject fields;
    if (!parseFlatObject(line, fields, error))
        return false;
    FlatReader read(fields, error);

    TraceSpan span;
    std::string type, traceHex, spanHex, parentHex;
    if (!read.string("type", type) || !read.string("trace", traceHex) ||
        !read.string("span", spanHex) ||
        !read.string("parent", parentHex) ||
        !read.string("kind", span.kind) || !read.string("name", span.name))
        return false;
    if (type != "sbn.trace.v1") {
        error = "unknown record type '" + type + "'";
        return false;
    }
    if (!parseTraceId(traceHex, span.trace) ||
        !parseTraceId(spanHex, span.span) ||
        !parseTraceId(parentHex, span.parent)) {
        error = "malformed trace/span/parent id";
        return false;
    }
    if (span.span == 0) {
        error = "span id must be nonzero";
        return false;
    }
    if (!read.unsignedInt("pid", span.pid) ||
        !read.unsignedInt("start_us", span.startUs) ||
        !read.unsignedInt("end_us", span.endUs))
        return false;

    for (const auto &[key, value] : fields) {
        if (key.compare(0, 2, "a_") != 0)
            continue;
        std::string text;
        if (!read.string(key, text))
            return false;
        span.attrs.emplace_back(key.substr(2), text);
    }
    if (!read.finish())
        return false;
    out = std::move(span);
    return true;
}

} // namespace sbn
