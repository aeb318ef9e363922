#include "service/metrics.hh"

#include "util/flatjson.hh"

namespace sbn {

namespace {

/**
 * Append the snapshot's fields, for the metrics response and the
 * heartbeat to put in their own envelopes. `active_job` is a number,
 * or null when no runner is alive. Key order is fixed and
 * documented; consumers may rely on it.
 */
void
writeDaemonMetricsFields(FlatWriter &out, const DaemonMetricsSnapshot &m)
{
    // Millisecond resolution is plenty for uptime; fixed-point keeps
    // the field regular for line-oriented consumers (no exponents).
    out.fixed("uptime_s", m.uptimeSeconds, 3)
        .unsignedInt("queued", m.queued)
        .unsignedInt("running", m.running)
        .unsignedInt("done", m.done)
        .unsignedInt("failed", m.failed)
        .unsignedInt("cancelled", m.cancelled)
        .unsignedInt("jobs_total", m.jobsTotal)
        .unsignedInt("queue_depth", m.queueDepth)
        .boolean("draining", m.draining)
        .unsignedInt("journal_appends", m.journalAppends)
        .unsignedInt("journal_fsyncs", m.journalFsyncs)
        .unsignedInt("results_bytes_served", m.resultsBytesServed)
        .unsignedInt("runner_relaunches", m.runnerRelaunches);
    if (m.hasActiveJob)
        out.unsignedInt("active_job", m.activeJob);
    else
        out.null("active_job");
}

} // namespace

std::string
formatDaemonMetricsResponse(const DaemonMetricsSnapshot &m)
{
    FlatWriter out;
    out.boolean("ok", true).string("type", "sbn.metrics.v1");
    writeDaemonMetricsFields(out, m);
    return out.finish();
}

std::string
formatHeartbeatV2(const DaemonMetricsSnapshot &m, long long ts_unix)
{
    FlatWriter out;
    out.string("type", "sbn.heartbeat.v2").integer("ts_unix", ts_unix);
    writeDaemonMetricsFields(out, m);
    return out.finish() + "\n";
}

} // namespace sbn
