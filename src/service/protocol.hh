/**
 * @file
 * The sbn_sweepd wire protocol: line-delimited JSON requests and
 * responses over a byte stream (TCP).
 *
 * Every request is ONE flat JSON object on ONE line; every response
 * is one flat JSON object on one line, except `results`, whose
 * header line is followed by exactly `bytes` bytes of raw merged
 * JSONL payload (the job's point records, byte-identical to the
 * serial sweep). Flat means: string / number / boolean / null
 * values only, no nesting. Every line is read and written by the
 * one flat-JSON codec (util/flatjson.hh), the same one the record
 * format uses (shard/result_io.hh).
 *
 * Requests (the `cmd` key selects; docs/service.md has the full
 * grammar and examples):
 *
 *   {"cmd":"submit","spec":"--n=8 --m=16 --p=0.2,0.6 --spawn=2"}
 *       optional: "timeout_s": wall-clock budget for the job.
 *   {"cmd":"status"}            daemon + per-job summary
 *   {"cmd":"status","job":3}    one job
 *   {"cmd":"cancel","job":3}
 *   {"cmd":"results","job":3}
 *   {"cmd":"wait","job":3}      block until the job is terminal;
 *                               the reply is job 3's status line
 *   {"cmd":"metrics"}           daemon metrics snapshot
 *   {"cmd":"metrics","job":3}   one job's metrics
 *   {"cmd":"drain"}
 *
 * Responses always carry "ok" (boolean). Failures carry a
 * machine-readable "error" code (bad_request, bad_spec, queue_full,
 * draining, unknown_job, not_ready, terminal_job) plus a
 * human-readable "message". The submit acknowledgment is written
 * only after the job is durably journaled (service/journal.hh).
 */

#ifndef SBN_SERVICE_PROTOCOL_HH
#define SBN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace sbn {

/** What a parsed request asks for. */
enum class RequestKind
{
    Submit,
    Status,
    Cancel,
    Results,
    Drain,
    Metrics,
    Wait,
};

/** Canonical wire name of a request kind ("submit", ...). */
const char *requestKindName(RequestKind kind);

/** One parsed client request. */
struct Request
{
    RequestKind kind = RequestKind::Status;
    std::string spec;          //!< submit: sbn_sweep-style flag string
    double timeoutSeconds = 0; //!< submit: 0 = no job timeout
    bool hasJob = false;       //!< a "job" key was supplied
    std::uint64_t job = 0;
};

/**
 * Parse one request line. Returns false with a human-readable
 * @p error on anything malformed: unknown cmd, missing/extra keys
 * for that cmd, wrong types, a job id that is not plain decimal
 * digits within 64 bits, a timeout that is negative or not finite.
 * cancel, results and wait require "job"; status and metrics take
 * it optionally.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** Serialize @p request back to its canonical wire line (no
 *  newline). Inverse of parseRequest for valid requests. */
std::string formatRequest(const Request &request);

/** `{"ok":false,"error":code,"message":...}` (no newline). */
std::string errorResponse(const std::string &code,
                          const std::string &message);

} // namespace sbn

#endif // SBN_SERVICE_PROTOCOL_HH
