#include "service/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "shard/fault.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Submitted:
        return "submitted";
    case JobState::Running:
        return "running";
    case JobState::Merging:
        return "merging";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

bool
parseJobState(const std::string &text, JobState &out)
{
    static constexpr JobState kStates[] = {
        JobState::Submitted, JobState::Running, JobState::Merging,
        JobState::Done,      JobState::Failed,  JobState::Cancelled,
    };
    for (const JobState state : kStates) {
        if (text == jobStateName(state)) {
            out = state;
            return true;
        }
    }
    return false;
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
}

std::string
formatJournalEntry(const JobJournalEntry &entry)
{
    // Fixed key order, every key always present: the same strictness
    // discipline as the point-record format, so parsing never has to
    // guess and the bytes of a given transition are deterministic.
    return FlatWriter()
        .string("type", "sbn.job.v1")
        .unsignedInt("job", entry.job)
        .string("state", jobStateName(entry.state))
        .string("spec", entry.spec)
        .exact("timeout_s", entry.timeoutSeconds)
        .exact("started_unix", entry.startedUnix)
        .integer("exit", entry.exitCode)
        .string("reason", entry.reason)
        .finish();
}

bool
parseJournalEntry(const std::string &line, JobJournalEntry &out,
                  std::string &error)
{
    FlatObject object;
    if (!parseFlatObject(line, object, error))
        return false;
    FlatReader read(object, error);

    std::string type;
    if (!read.string("type", type))
        return false;
    if (type != "sbn.job.v1") {
        error = "not a job journal line (type \"" + type + "\")";
        return false;
    }

    JobJournalEntry entry;
    std::string state;
    std::uint64_t exit_code = 0;
    if (!read.unsignedInt("job", entry.job) || !read.string("state", state))
        return false;
    if (!parseJobState(state, entry.state)) {
        error = "unknown job state \"" + state + "\"";
        return false;
    }
    if (!read.string("spec", entry.spec) ||
        !read.finiteDouble("timeout_s", entry.timeoutSeconds) ||
        !read.finiteDouble("started_unix", entry.startedUnix) ||
        !read.unsignedInt("exit", exit_code) ||
        !read.string("reason", entry.reason) || !read.finish())
        return false;
    // Exit codes are process dispositions, 0-255.
    if (exit_code > 255) {
        error = "\"exit\" must be an exit status (0-255)";
        return false;
    }
    entry.exitCode = static_cast<int>(exit_code);
    out = entry;
    return true;
}

JobJournal::JobJournal(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd_ < 0)
        sbn_fatal("cannot open job journal '", path,
                  "' for appending: ", std::strerror(errno));
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JobJournal::append(const JobJournalEntry &entry)
{
    const std::string line = formatJournalEntry(entry) + "\n";
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t got = ::write(fd_, line.data() + written,
                                    line.size() - written);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            sbn_fatal("job journal '", path_,
                      "': write failed: ", std::strerror(errno));
        }
        written += static_cast<std::size_t>(got);
    }
    if (::fsync(fd_) != 0)
        sbn_fatal("job journal '", path_,
                  "': fsync failed: ", std::strerror(errno));
    ++appends_;
    ++fsyncs_;
    // The durability point: the transition is on disk. This is
    // exactly where kill-anywhere testing wants its crash.
    faultAfterJournalState(jobStateName(entry.state));
}

std::vector<JobJournalEntry>
replayJobJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        struct stat info;
        if (::stat(path.c_str(), &info) == 0)
            sbn_fatal("job journal '", path,
                      "' exists but cannot be opened - refusing to "
                      "silently forget jobs");
        return {}; // fresh daemon, no journal yet
    }

    // job id -> folded latest entry (submit spec + latest state).
    std::map<std::uint64_t, JobJournalEntry> jobs;
    std::string line;
    std::size_t lineno = 0;
    std::uint64_t goodBytes = 0; //!< file offset past the last good line
    bool pendingTail = false;
    std::string tailError;
    while (std::getline(in, line)) {
        ++lineno;
        if (pendingTail)
            sbn_fatal("job journal '", path, "' line ", lineno - 1,
                      ": ", tailError,
                      " (only the final line may be torn)");
        JobJournalEntry entry;
        std::string error;
        if (!parseJournalEntry(line, entry, error)) {
            // Tolerate only as a torn tail: remember and fail if any
            // line follows.
            pendingTail = true;
            tailError = error;
            continue;
        }
        // Every good line is followed by more bytes (at worst the
        // torn tail itself), so its terminating '\n' is on disk and
        // this offset is exact.
        goodBytes += line.size() + 1;
        const auto it = jobs.find(entry.job);
        if (entry.state == JobState::Submitted) {
            if (it != jobs.end())
                sbn_fatal("job journal '", path, "' line ", lineno,
                          ": job ", entry.job, " submitted twice");
            jobs.emplace(entry.job, entry);
            continue;
        }
        if (it == jobs.end())
            sbn_fatal("job journal '", path, "' line ", lineno,
                      ": job ", entry.job, " reaches state '",
                      jobStateName(entry.state),
                      "' without a submitted entry");
        // Fold: keep the submit description, take the new state.
        entry.spec = it->second.spec;
        entry.timeoutSeconds = it->second.timeoutSeconds;
        it->second = entry;
    }
    if (pendingTail) {
        sbn_warn("job journal '", path,
                 "': dropped torn final line (", tailError,
                 ") - the artifact of a kill mid-append");
        // Dropping the tail from the replay is not enough: the
        // journal writer appends with O_APPEND, so leaving the torn
        // bytes on disk would glue the next entry onto them -
        // producing a malformed MID-file line that turns the next
        // restart fatal. Truncate to the last good line now.
        in.close();
        const int fd = ::open(path.c_str(), O_WRONLY);
        if (fd < 0 ||
            ::ftruncate(fd, static_cast<off_t>(goodBytes)) != 0 ||
            ::fsync(fd) != 0)
            sbn_fatal("job journal '", path,
                      "': cannot truncate torn tail: ",
                      std::strerror(errno));
        ::close(fd);
    }

    std::vector<JobJournalEntry> result;
    result.reserve(jobs.size());
    for (const auto &pair : jobs)
        result.push_back(pair.second);
    return result;
}

} // namespace sbn
