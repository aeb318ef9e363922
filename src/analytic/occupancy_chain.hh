/**
 * @file
 * Exact memory-interference Markov chain over request-occupancy
 * states, with a per-cycle service cap.
 *
 * This is the shared analytical engine behind three models:
 *
 *  - crossbar (Bhandarkar [1]):       cap b >= min(n, m) - never binds;
 *  - multiple-bus (Valero et al [5]): cap b = number of buses;
 *  - multiplexed single-bus with priority to memory modules and p = 1
 *    (the paper's Section 3.1.1):     cap b = r + 1, because the bus
 *    can inject at most r+1 requests before the first response is due
 *    back, i.e. it behaves like an (r+1)-bus network per processor
 *    cycle.
 *
 * Model dynamics (one transition == one processor cycle):
 *
 *  1. The system state is the multiset {n_1..n_m} of per-module
 *     pending-request counts (sum = n, processors blocked on one
 *     request each, p = 1). States that are permutations of each other
 *     are lumped: the canonical state is the descending partition.
 *  2. With x busy (requested) modules, K = min(x, b) of them complete
 *     one service; when x > b the serviced subset is chosen uniformly
 *     at random (random arbitration, paper hypothesis (h)).
 *  3. Each serviced processor immediately issues a fresh request to a
 *     uniformly random module (paper hypothesis (e)-(f) with p = 1).
 *
 * Transition probabilities are computed exactly by enumerating
 * serviced-subset choices and redistribution patterns grouped by
 * equal-valued module classes, which keeps the enumeration polynomial
 * for the paper-scale systems (n, m <= 16).
 */

#ifndef SBN_ANALYTIC_OCCUPANCY_CHAIN_HH
#define SBN_ANALYTIC_OCCUPANCY_CHAIN_HH

#include <cstddef>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "markov/dtmc.hh"

namespace sbn {

/** Solved occupancy chain: states, stationary law, busy-count pmf. */
struct OccupancyChainResult
{
    /**
     * Canonical states: descending positive occupancies (implicit
     * zeros up to m modules). states[s] sums to n.
     */
    std::vector<std::vector<int>> states;

    /** Stationary probability of each state. */
    std::vector<double> pi;

    /**
     * Stationary distribution of the number of busy modules:
     * busyPmf[x] = P(x modules have >= 1 pending request),
     * x = 0..min(n, m). Entry 0 is 0 for n >= 1.
     */
    std::vector<double> busyPmf;

    /** E[number of busy modules]. */
    double meanBusy = 0.0;

    /** E[min(x, cap)] - requests serviced per cycle (bandwidth). */
    double meanServiced = 0.0;
};

/**
 * Builder/solver for the occupancy chain.
 */
class OccupancyChain
{
  public:
    /**
     * @param n    number of processors (outstanding requests, p = 1)
     * @param m    number of memory modules
     * @param cap  per-cycle service cap b (buses / r+1); >= 1
     */
    OccupancyChain(int n, int m, int cap);

    /** Number of canonical states (partitions of n into <= m parts). */
    std::size_t numStates() const { return states_.size(); }

    /** Canonical state list, in enumeration order. */
    const std::vector<std::vector<int>> &states() const { return states_; }

    /** The underlying transition matrix (built on first access). */
    const Dtmc &chain();

    /** Solve for the stationary law and summary statistics. */
    OccupancyChainResult solve();

  private:
    void buildStates();
    void buildTransitions();

    /** Enumerate serviced-count splits across equal-value groups. */
    void forEachServicedSplit(
        const std::vector<std::pair<int, int>> &groups, int k,
        const std::function<void(const std::vector<int> &, double)> &visit)
        const;

    /** Enumerate redistribution patterns over grouped cells. */
    void forEachRedistribution(
        const std::vector<std::pair<int, int>> &cell_groups, int k,
        const std::function<void(const std::vector<std::vector<int>> &,
                                 double)> &visit) const;

    std::size_t stateIndex(const std::vector<int> &state) const;

    int n_;
    int m_;
    int cap_;
    std::vector<std::vector<int>> states_;
    std::map<std::vector<int>, std::size_t> index_;
    Dtmc dtmc_;
    bool built_ = false;
};

/**
 * Solve the (n, m, cap) chain once per process and hand out the
 * cached result thereafter. Chain construction enumerates every
 * transition (the expensive part); sweeps and model cross-checks hit
 * the same handful of shapes over and over, so the analytic model
 * entry points route through this cache.
 *
 * Thread-safe; the returned reference lives for the process.
 */
const OccupancyChainResult &solveOccupancyChainCached(int n, int m,
                                                      int cap);

} // namespace sbn

#endif // SBN_ANALYTIC_OCCUPANCY_CHAIN_HH
