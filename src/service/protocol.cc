#include "service/protocol.hh"

#include "util/flatjson.hh"

namespace sbn {

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Submit:
        return "submit";
    case RequestKind::Status:
        return "status";
    case RequestKind::Cancel:
        return "cancel";
    case RequestKind::Results:
        return "results";
    case RequestKind::Drain:
        return "drain";
    case RequestKind::Metrics:
        return "metrics";
    case RequestKind::Wait:
        return "wait";
    }
    return "unknown";
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    FlatObject object;
    if (!parseFlatObject(line, object, error))
        return false;
    FlatReader read(object, error);

    std::string cmd;
    if (!read.string("cmd", cmd))
        return false;

    Request request;
    const auto readJob = [&] {
        request.hasJob = read.has("job");
        return !request.hasJob || read.unsignedInt("job", request.job);
    };
    if (cmd == "submit") {
        request.kind = RequestKind::Submit;
        if (!read.string("spec", request.spec))
            return false;
        if (request.spec.empty()) {
            error = "submit needs a non-empty \"spec\" "
                    "(sbn_sweep-style flags)";
            return false;
        }
        if (read.has("timeout_s")) {
            if (!read.finiteDouble("timeout_s", request.timeoutSeconds))
                return false;
            if (request.timeoutSeconds < 0) {
                error = "\"timeout_s\" must be a non-negative number";
                return false;
            }
        }
    } else if (cmd == "status" || cmd == "metrics") {
        // Both take an optional job id: bare = whole-daemon summary
        // or metrics snapshot, with "job" = one job's view.
        request.kind =
            cmd == "status" ? RequestKind::Status : RequestKind::Metrics;
        if (!readJob())
            return false;
    } else if (cmd == "cancel" || cmd == "results" || cmd == "wait") {
        request.kind = cmd == "cancel"    ? RequestKind::Cancel
                       : cmd == "results" ? RequestKind::Results
                                          : RequestKind::Wait;
        if (!readJob())
            return false;
        if (!request.hasJob) {
            error = cmd + " needs a \"job\" id";
            return false;
        }
    } else if (cmd == "drain") {
        request.kind = RequestKind::Drain;
    } else {
        error = "unknown cmd \"" + cmd + "\"";
        return false;
    }
    // A key the command does not take is a client bug, not something
    // to ignore.
    if (!read.finish())
        return false;
    out = request;
    return true;
}

std::string
formatRequest(const Request &request)
{
    FlatWriter line;
    line.string("cmd", requestKindName(request.kind));
    if (request.kind == RequestKind::Submit) {
        line.string("spec", request.spec);
        if (request.timeoutSeconds > 0)
            line.exact("timeout_s", request.timeoutSeconds);
    }
    if (request.hasJob)
        line.unsignedInt("job", request.job);
    return line.finish();
}

std::string
errorResponse(const std::string &code, const std::string &message)
{
    return FlatWriter()
        .boolean("ok", false)
        .string("error", code)
        .string("message", message)
        .finish();
}

} // namespace sbn
