/**
 * @file
 * Exact occupancy chain generalized to non-uniform module-selection
 * probabilities - the analytic cross-check of the workload layer.
 *
 * The paper's Section 3.1.1 chain (analytic/occupancy_chain.hh) lumps
 * permutation-equivalent occupancy states, which is only sound when
 * every module is equally likely (hypothesis (e)). With a non-uniform
 * selection vector q the modules are distinguishable, so this chain
 * runs over the full occupancy *vectors* (n_1..n_m >= 0, sum = n -
 * compositions of n into m parts), with dynamics otherwise identical
 * to the uniform chain:
 *
 *  1. p = 1: every processor is blocked on exactly one request.
 *  2. With x busy modules, K = min(x, cap) complete one service; for
 *     x > cap the serviced subset is uniform among the K-subsets of
 *     the busy set (random arbitration, hypothesis (h)).
 *  3. Each serviced processor immediately redraws module j with
 *     probability q_j (multinomial redistribution).
 *
 * Scope: module-selection must be processor-independent (Uniform,
 * HotSpot, Weighted - not Favorite, whose per-processor homes make
 * the occupancy vector an insufficient state). The state space is
 * C(n+m-1, m-1), so this is a small-(n, m) validation tool, not a
 * production model; construction refuses shapes beyond a few
 * thousand states.
 *
 * For uniform q the solution collapses to the lumped chain's - the
 * test suite pins the two against each other to ~1e-10 - and for the
 * memory-priority single bus (cap = r+1) the same useful-cycle
 * weighting as memprioExactEbw turns the busy-count law into EBW,
 * which tests/test_workload.cc pins against the simulator.
 */

#ifndef SBN_WORKLOAD_ANALYTIC_HH
#define SBN_WORKLOAD_ANALYTIC_HH

#include <cstddef>
#include <vector>

#include "markov/dtmc.hh"
#include "workload/workload.hh"

namespace sbn {

/** Solved weighted occupancy chain (see OccupancyChainResult). */
struct WeightedChainResult
{
    /**
     * Stationary distribution of the number of busy modules:
     * busyPmf[x] = P(x modules have >= 1 pending request).
     */
    std::vector<double> busyPmf;

    /** Per-module stationary busy probability P(n_j >= 1). */
    std::vector<double> moduleBusy;

    double meanBusy = 0.0;     //!< E[busy module count]
    double meanServiced = 0.0; //!< E[min(busy, cap)]
};

/**
 * Build and solve the weighted occupancy chain.
 *
 * @param n    processors (outstanding requests, p = 1)
 * @param m    memory modules
 * @param cap  per-cycle service cap b (r+1 for the memory-priority
 *             single bus); >= 1
 * @param q    module-selection probabilities, size m, sum ~1
 */
WeightedChainResult solveWeightedOccupancyChain(
    int n, int m, int cap, const std::vector<double> &q);

/**
 * Memoized front end of solveWeightedOccupancyChain. Thread-safe;
 * the returned reference lives for the process.
 */
const WeightedChainResult &solveWeightedOccupancyChainCached(
    int n, int m, int cap, const std::vector<double> &q);

/**
 * Exact EBW of the memory-priority multiplexed single bus under a
 * processor-independent workload reference pattern with p = 1: the
 * weighted chain with cap r+1, weighted by the same useful-cycle
 * fraction as memprioExactEbw. For a Uniform workload this equals
 * memprioExactEbw(n, m, r) to solver precision.
 */
double workloadExactMemprioEbw(int n, int m, int r,
                               const WorkloadConfig &workload);

} // namespace sbn

#endif // SBN_WORKLOAD_ANALYTIC_HH
