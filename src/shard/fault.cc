#include "shard/fault.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include "util/logging.hh"

namespace sbn {

const char *const kFaultEnvVar = "SBN_FAULT";
const char *const kFaultAttemptEnvVar = "SBN_FAULT_ATTEMPT";

namespace {

// Process-local identity for fault targeting. Plain values, not
// atomics: scope is set once before any worker thread exists.
std::size_t g_scopeShard = kFaultNoShard;
unsigned g_scopeAttempt = 0;

bool
parseClauseValue(const std::string &value, std::uint64_t &out)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

[[noreturn]] void
dieBySigkill()
{
    // The honest crash: no atexit, no stream flushes, no destructors.
    // raise(SIGKILL) cannot be caught or ignored; the _exit is an
    // unreachable belt-and-suspenders fallback.
    ::raise(SIGKILL);
    ::_exit(137);
}

[[noreturn]] void
hangForever()
{
    // A wedged worker: alive (the supervisor sees the pid), never
    // making record progress. pause() in a loop survives stray
    // signals; only SIGKILL ends it.
    for (;;)
        ::pause();
}

bool
isKnownJournalState(const std::string &value)
{
    for (const char *state : kFaultJournalStates)
        if (value == state)
            return true;
    return false;
}

} // namespace

// Kept in sync with jobStateName() (service/journal.hh) by
// tests/test_service.cc; the shard layer must not depend on the
// service layer, so the list is duplicated here on purpose.
const char *const kFaultJournalStates[6] = {
    "submitted", "running", "merging", "done", "failed", "cancelled",
};

bool
parseFaultPlan(const std::string &text, FaultPlan &out, std::string &error)
{
    FaultPlan plan;
    if (text.empty()) {
        out = plan;
        return true;
    }
    plan.active = true;

    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string clause = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (clause.empty()) {
            error = "empty clause (stray comma)";
            return false;
        }

        const std::size_t eq = clause.find('=');
        const std::string key = clause.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : clause.substr(eq + 1);

        std::uint64_t number = 0;
        if (key == "shard") {
            if (value == "any") {
                plan.shard = kFaultAnyShard;
            } else if (parseClauseValue(value, number) &&
                       number < kFaultNoShard) {
                plan.shard = static_cast<std::size_t>(number);
            } else {
                // The two largest values are the 'any' and
                // non-worker sentinels, not indices.
                error = "shard= needs an index below " +
                        std::to_string(kFaultNoShard) + " or 'any': " +
                        clause;
                return false;
            }
        } else if (key == "attempt") {
            if (value == "any") {
                plan.attempt = kFaultAnyAttempt;
            } else if (parseClauseValue(value, number) &&
                       number < kFaultAnyAttempt) {
                plan.attempt = static_cast<unsigned>(number);
            } else {
                error = "attempt= needs a number below " +
                        std::to_string(kFaultAnyAttempt) + " or 'any': " +
                        clause;
                return false;
            }
        } else if (key == "kill_after_records") {
            if (!parseClauseValue(value, plan.killAfterRecords) ||
                plan.killAfterRecords == 0) {
                error = "kill_after_records= needs a positive count: " +
                        clause;
                return false;
            }
        } else if (key == "truncate_tail") {
            if (!parseClauseValue(value, plan.truncateTail) ||
                plan.truncateTail == 0) {
                error =
                    "truncate_tail= needs a positive byte count: " +
                    clause;
                return false;
            }
        } else if (key == "hang_after_records") {
            if (!parseClauseValue(value, plan.hangAfterRecords) ||
                plan.hangAfterRecords == 0) {
                error = "hang_after_records= needs a positive count: " +
                        clause;
                return false;
            }
        } else if (key == "fail_write_at") {
            if (!parseClauseValue(value, plan.failWriteAt) ||
                plan.failWriteAt == 0) {
                error = "fail_write_at= needs a positive 1-based "
                        "ordinal: " +
                        clause;
                return false;
            }
        } else if (key == "abort_in_merge") {
            if (!value.empty()) {
                error = "abort_in_merge takes no value: " + clause;
                return false;
            }
            plan.abortInMerge = true;
        } else if (key == "crash_after_journal") {
            if (!isKnownJournalState(value)) {
                error = "crash_after_journal= needs a job journal "
                        "state (submitted, running, merging, done, "
                        "failed or cancelled): " +
                        clause;
                return false;
            }
            plan.crashAfterJournal = value;
        } else if (key == "crash_in_merge") {
            if (!value.empty()) {
                error = "crash_in_merge takes no value: " + clause;
                return false;
            }
            plan.crashInMerge = true;
        } else if (key == "stall_accept") {
            if (!value.empty()) {
                error = "stall_accept takes no value: " + clause;
                return false;
            }
            plan.stallAccept = true;
        } else {
            error = "unknown fault clause '" + key + "'";
            return false;
        }
    }

    if (plan.truncateTail != 0 && plan.killAfterRecords == 0) {
        error = "truncate_tail= modifies kill_after_records=, which "
                "is missing";
        return false;
    }
    if (plan.killAfterRecords != 0 && plan.hangAfterRecords != 0) {
        error = "kill_after_records= and hang_after_records= are "
                "mutually exclusive";
        return false;
    }
    if (plan.killAfterRecords == 0 && plan.hangAfterRecords == 0 &&
        plan.failWriteAt == 0 && !plan.abortInMerge &&
        plan.crashAfterJournal.empty() && !plan.crashInMerge &&
        !plan.stallAccept) {
        error = "no fault action given (selectors only)";
        return false;
    }
    out = plan;
    return true;
}

FaultPlan
currentFaultPlan()
{
    const char *env = std::getenv(kFaultEnvVar);
    if (env == nullptr || *env == '\0')
        return {};
    FaultPlan plan;
    std::string error;
    if (!parseFaultPlan(env, plan, error))
        sbn_fatal(kFaultEnvVar, ": ", error,
                  " (a malformed fault spec must not silently run "
                  "fault-free)");
    return plan;
}

void
setFaultProcessScope(std::size_t shard_index, unsigned attempt)
{
    g_scopeShard = shard_index;
    g_scopeAttempt = attempt;
}

unsigned
faultAttemptFromEnvironment()
{
    const char *env = std::getenv(kFaultAttemptEnvVar);
    if (env == nullptr || *env == '\0')
        return 0;
    std::uint64_t attempt = 0;
    if (!parseClauseValue(env, attempt) || attempt >= kFaultAnyAttempt)
        sbn_fatal(kFaultAttemptEnvVar, " must be a decimal attempt "
                  "number below ", kFaultAnyAttempt, ", got '", env,
                  "'");
    return static_cast<unsigned>(attempt);
}

bool
faultArmed(const FaultPlan &plan)
{
    if (!plan.active)
        return false;
    if (plan.shard != kFaultAnyShard && plan.shard != g_scopeShard)
        return false;
    return plan.attempt == kFaultAnyAttempt ||
           plan.attempt == g_scopeAttempt;
}

bool
faultInjectWriteFailure(std::size_t ordinal)
{
    const FaultPlan plan = currentFaultPlan();
    return faultArmed(plan) && plan.failWriteAt == ordinal;
}

void
faultAtRecordBoundary(std::size_t ordinal, const std::string &line,
                      int fd)
{
    const FaultPlan plan = currentFaultPlan();
    if (!faultArmed(plan))
        return;
    if (plan.killAfterRecords == ordinal) {
        if (plan.truncateTail != 0 && fd >= 0) {
            // Tear the file the way a kill mid-append does: the first
            // truncate_tail bytes of a record, no newline. Determinism
            // comes from reusing the just-written record's serialized
            // bytes.
            const std::size_t bytes =
                plan.truncateTail < line.size()
                    ? static_cast<std::size_t>(plan.truncateTail)
                    : line.size();
            // The return value is irrelevant on the way to SIGKILL,
            // but gcc warns on ignoring write(2)'s result.
            if (::write(fd, line.data(), bytes) < 0) {
            }
        }
        dieBySigkill();
    }
    if (plan.hangAfterRecords == ordinal)
        hangForever();
}

void
faultMaybeAbortInMerge()
{
    const FaultPlan plan = currentFaultPlan();
    if (faultArmed(plan) && plan.abortInMerge)
        std::abort();
}

void
faultAfterJournalState(const char *state)
{
    const FaultPlan plan = currentFaultPlan();
    if (faultArmed(plan) && plan.crashAfterJournal == state)
        dieBySigkill();
}

void
faultMaybeCrashInMerge()
{
    const FaultPlan plan = currentFaultPlan();
    if (faultArmed(plan) && plan.crashInMerge)
        dieBySigkill();
}

void
faultMaybeStallAccept()
{
    const FaultPlan plan = currentFaultPlan();
    if (faultArmed(plan) && plan.stallAccept)
        hangForever();
}

} // namespace sbn
