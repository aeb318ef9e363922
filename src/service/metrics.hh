/**
 * @file
 * The sbn_sweepd metrics snapshot: one flat-JSON view of daemon
 * health, shared verbatim by the `metrics` protocol verb and the
 * heartbeat file (docs/observability.md).
 *
 * The snapshot is assembled from in-memory daemon state only - no
 * file reads, no blocking calls - so the poll loop can answer a
 * metrics request while a job is running without ever stalling on
 * it. Formatting lives here, outside the daemon, so tests can pin
 * the exact wire shape without standing a daemon up.
 */

#ifndef SBN_SERVICE_METRICS_HH
#define SBN_SERVICE_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace sbn {

/** Everything the daemon reports about itself at one instant. */
struct DaemonMetricsSnapshot
{
    double uptimeSeconds = 0; //!< since this daemon incarnation
    bool draining = false;

    // Jobs by state (terminal counts include journal-replayed jobs
    // from previous incarnations - they stay queryable, so they are
    // part of this daemon's view).
    std::size_t queued = 0;
    std::size_t running = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t jobsTotal = 0; //!< every job the daemon knows about

    /** Jobs awaiting a runner: the queue's instantaneous depth (same
     *  quantity as `queued`, named for what it measures). */
    std::size_t queueDepth = 0;

    std::uint64_t journalAppends = 0; //!< durable lines this writer
    std::uint64_t journalFsyncs = 0;
    std::uint64_t resultsBytesServed = 0; //!< payload bytes of results
    /** Runner processes forked beyond each job's first launch of this
     *  incarnation - crash recoveries, not steady state. */
    std::uint64_t runnerRelaunches = 0;

    bool hasActiveJob = false; //!< at least one runner is alive
    std::uint64_t activeJob = 0; //!< lowest-id running job when so
};

/** The full `metrics` response line (no newline):
 *  `{"ok":true,"type":"sbn.metrics.v1",<fields>}`. */
std::string formatDaemonMetricsResponse(const DaemonMetricsSnapshot &m);

/**
 * The heartbeat file body (one line, trailing newline included):
 * `{"type":"sbn.heartbeat.v2","ts_unix":<now>,<fields>}`. Every
 * sbn.heartbeat.v1 key (ts_unix, queued, running, draining) is still
 * present with its v1 meaning, so v1 consumers keep working; only
 * the type tag and the extra fields are new.
 */
std::string formatHeartbeatV2(const DaemonMetricsSnapshot &m,
                              long long ts_unix);

} // namespace sbn

#endif // SBN_SERVICE_METRICS_HH
