/**
 * @file
 * Independent-replications estimator.
 *
 * Runs a seeded experiment K times with derived seeds and reports a
 * Student-t confidence interval across the replication results.
 * Replications remove initialization bias concerns at the cost of
 * repeated warmups.
 */

#ifndef SBN_STATS_REPLICATION_HH
#define SBN_STATS_REPLICATION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "stats/accumulator.hh"
#include "util/random.hh"

namespace sbn {

/**
 * Round-based replication accumulation that reuses prior
 * replications.
 *
 * Adaptive-precision runs grow a replication count in rounds: each
 * round extends the same experiment with a few more replications and
 * re-evaluates the confidence interval over *all* replications so
 * far, never discarding earlier work. This class owns the per-round
 * bookkeeping:
 *
 *  - the seed stream: seedsForExtension(k) hands out the seeds for
 *    replications [completed, k) from the master derivation stream,
 *    so replication i receives the *same* seed whether the run grows
 *    in rounds or derives all k seeds in one shot (the
 *    runReplications stream);
 *  - the accumulator: accept() folds the extension's results in, in
 *    replication order, so the running estimate after k replications
 *    is bit-identical to a one-shot k-replication run.
 *
 * The caller supplies the execution: derive seeds, map them to values
 * (serially or on a pool - order of evaluation does not matter, only
 * the order of the values handed back), then accept().
 */
class ReplicationRounds
{
  public:
    /** @param level confidence level for estimate(). */
    explicit ReplicationRounds(std::uint64_t master_seed,
                               double level = 0.95);

    /** Replications accumulated so far. */
    unsigned completed() const
    {
        return static_cast<unsigned>(acc_.count());
    }

    /**
     * Seeds for extending the run to @p target replications: the
     * derivation-stream seeds for replications [completed, target),
     * in replication order (empty when target <= completed). Every
     * call must be followed by the matching accept() before the next
     * extension.
     */
    std::vector<std::uint64_t> seedsForExtension(unsigned target);

    /**
     * Fold in the results for the last handed-out extension, in the
     * same order as the seeds. @p values must have exactly one entry
     * per outstanding seed.
     */
    void accept(const std::vector<double> &values);

    /**
     * Estimate over every replication accepted so far; matches the
     * runReplications() conventions (halfWidth 0 with fewer than two
     * replications).
     */
    Estimate estimate() const;

  private:
    RandomGenerator seeder_;
    Accumulator acc_;
    unsigned derived_ = 0; //!< seeds handed out so far
    double level_;
};

/**
 * Run @p experiment once per replication with a deterministic derived
 * seed and summarize the scalar results.
 *
 * A single replication (replications == 1) is accepted: the estimate
 * then carries the lone result as its mean with halfWidth 0 (no
 * confidence interval - use >= 2 replications for one) and samples
 * always reports the replication count actually run.
 *
 * Execution is delegated to the exec layer: replications run on
 * defaultExecThreads() workers (serial unless configured), with
 * results bit-identical to serial execution at any worker count.
 *
 * @param experiment    callable mapping a seed to a scalar result;
 *                      must be safe to call concurrently when the
 *                      default worker count is raised above 1
 * @param replications  number of independent runs (>= 1)
 * @param master_seed   seed for the seed-derivation stream
 * @param level         confidence level for the interval
 */
Estimate runReplications(
    const std::function<double(std::uint64_t)> &experiment,
    unsigned replications, std::uint64_t master_seed = 1,
    double level = 0.95);

} // namespace sbn

#endif // SBN_STATS_REPLICATION_HH
