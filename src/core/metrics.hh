/**
 * @file
 * Measured outputs of one simulation run.
 */

#ifndef SBN_CORE_METRICS_HH
#define SBN_CORE_METRICS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/accumulator.hh"
#include "stats/histogram.hh"

namespace sbn {

/**
 * Canonical bin layout for the per-request latency histograms
 * (config.collectLatency). Every producer uses this exact layout so
 * histograms from different runs/replications are always mergeable
 * and flat-JSON renders are byte-comparable. Samples are integer bus
 * cycles; a zero-cycle wait lands in underflow, anything at or above
 * 2^20 cycles in overflow.
 */
inline Histogram
makeLatencyHistogram()
{
    return Histogram::logScale(1.0, 1048576.0, 120);
}

/**
 * Bin lookup of the makeLatencyHistogram() layout for the ticks below
 * 4096, the latency probe's Histogram::addTick() table. Built on
 * first use, once per process, and shared by every run after that.
 */
const TickBins &latencyTickBins();

/**
 * Quantile summary extracted from a wait/residence histogram pair,
 * as carried in sweep point records. Values are bin upper edges
 * except max, which is the exact largest sample.
 */
struct LatencySummary
{
    std::uint64_t samples = 0; //!< completed requests measured

    double waitP50 = 0.0;
    double waitP90 = 0.0;
    double waitP99 = 0.0;
    double waitMax = 0.0;

    double residenceP50 = 0.0;
    double residenceP90 = 0.0;
    double residenceP99 = 0.0;
    double residenceMax = 0.0;
};

/**
 * Steady-state metrics over the measurement window. All "per
 * processor cycle" figures use the paper's (r+2)-bus-cycle processor
 * cycle as the unit.
 */
struct Metrics
{
    std::uint64_t measuredCycles = 0;     //!< window length (bus cycles)
    std::uint64_t completedRequests = 0;  //!< services delivered
    std::uint64_t issuedRequests = 0;     //!< requests issued
    std::uint64_t busBusyCycles = 0;      //!< cycles the bus transferred

    /**
     * Effective bandwidth: requests serviced per processor cycle,
     * completedRequests / (measuredCycles / (r+2)). The paper's
     * primary figure of merit.
     */
    double ebw = 0.0;

    /** EBW via the identity Pb*(r+2)/2; equals ebw asymptotically. */
    double ebwFromBusUtilization = 0.0;

    /** Pb: fraction of bus cycles carrying a transfer. */
    double busUtilization = 0.0;

    /** Mean fraction of time a module spends accessing. */
    double meanModuleUtilization = 0.0;

    /**
     * EBW / n: average fraction of time a processor's current request
     * is in its minimal (r+2)-cycle service pattern. Figure 3 plots
     * this divided by p.
     */
    double processorEfficiency = 0.0;

    /** Mean queueing delay: service span minus the minimal r+2. */
    double meanWaitCycles = 0.0;

    /** Mean issue-to-delivery span in bus cycles. */
    double meanServiceCycles = 0.0;

    /** Waiting time spread (same samples as meanWaitCycles). */
    Accumulator waitStats;

    /** Completions per processor, for fairness checks. */
    std::vector<std::uint64_t> perProcessorCompletions;

    // Per-module breakdowns (config.collectPerModule); empty vectors
    // otherwise. Additive and passively collected: enabling them
    // changes no other field.

    /** Per-module cycles spent accessing within the window. */
    std::vector<std::uint64_t> perModuleBusyCycles;

    /** perModuleBusyCycles / measuredCycles; its mean equals
     *  meanModuleUtilization. */
    std::vector<double> perModuleUtilization;

    /**
     * Time-averaged queue depth per module: requests waiting for the
     * module (issued but not yet in service; buffered organizations
     * count a granted request until its access starts), averaged over
     * the measurement window.
     */
    std::vector<double> perModuleQueueDepthAvg;

    /** Maximum queue depth held for a nonzero span of window time. */
    std::vector<std::uint64_t> perModuleQueueDepthMax;

    // Per-request latency distributions (config.collectLatency), in
    // the makeLatencyHistogram() layout. Passive like the per-module
    // breakdowns: enabling them changes no other field.

    /** Wait time, issue to service start, in bus cycles. */
    std::optional<Histogram> latencyWait;

    /** Residence time, issue to response delivery, in bus cycles. */
    std::optional<Histogram> latencyResidence;
};

/**
 * Condense a wait/residence histogram pair into the record-carried
 * quantile summary (p50/p90/p99 at bin granularity, exact max).
 */
LatencySummary summarizeLatency(const Histogram &wait,
                                const Histogram &residence);

} // namespace sbn

#endif // SBN_CORE_METRICS_HH
