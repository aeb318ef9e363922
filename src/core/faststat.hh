/**
 * @file
 * FastStat: the statistical fast-path kernel.
 *
 * FastStatSystem is the shared driver (core/bus_kernel.hh) under
 * FastStatPolicy: the same bus machine, fused one-tick flight, module
 * transitions, eligibility, selection and metric accounting as the
 * exact CycleSkip kernel (core/system.hh), shared through
 * core/bus_machine.hh. The policy deliberately breaks the shared-RNG
 * draw-order contract that pins CycleSkip to the classic kernel's
 * trajectories. What that buys:
 *
 *  - **O(1) think intervals.** Each processor owns a counter-based
 *    RNG stream (CounterRng, keyed by the config fingerprint and the
 *    processor index). A ready processor draws its whole geometric
 *    think span in one inversion instead of one Bernoulli per
 *    processor cycle; in the saturated regime (p = 1) the draw is
 *    free and the think structures are never touched at all.
 *  - **An arbitration stream of its own** (stream n), drawn only
 *    when a Random selection has more than one candidate.
 *  - **Integer wait moments**, summarized into an Accumulator once
 *    at the end of the run.
 *
 * The cost is bit-compatibility: FastStat trajectories differ from
 * CycleSkip's for the same seed, so CycleSkip's golden pins do not
 * apply. FastStat has its own bit-level pin
 * (tests/golden/faststat_metrics.txt, FastStatGolden.*), which guards
 * its trajectory. Whether that trajectory simulates the same process
 * as CycleSkip's is checked statistically - CI-overlap equivalence
 * across the config/workload grid and agreement with the analytic
 * occupancy chains (tests/test_faststat.cc, docs/performance.md
 * "FastStat").
 *
 * Determinism still holds in the reproducibility sense: a fixed
 * config (fingerprint + seed) yields a fixed trajectory, on every
 * platform, because every draw comes from a counter stream and every
 * tie-break is ordered.
 */

#ifndef SBN_CORE_FASTSTAT_HH
#define SBN_CORE_FASTSTAT_HH

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/bus_kernel.hh"
#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "util/random.hh"
#include "workload/workload.hh"

namespace sbn {

/** FastStat's policy for the shared driver (see the file comment). */
class FastStatPolicy
{
  public:
    /**
     * The delivered processor draws at the grant, with the landing
     * tick. Deferring it to the landing would move FastStat's pinned
     * trajectory.
     */
    static constexpr bool kDeliverAtLanding = false;

    /** Seeds tick 0: every processor draws then, in index order. */
    FastStatPolicy(const SystemConfig &cfg, BusMachine &bus);

    Tick
    nextThink() const
    {
        return thinkHeap_.empty() ? kNever : thinkHeap_.front().first;
    }

    /** Issue every think wake-up due at now. */
    void drawThinks(BusMachine &bus, Tick now);

    /** proc is ready at now: draw its geometric think span. */
    void deliver(BusMachine &bus, int proc, Tick now);

    /** Random selection: a singleton set has nothing to tie-break. */
    std::size_t
    pick(std::size_t count)
    {
        return count == 1 ? 0 : arbRng_.pickIndex(count);
    }

    void addResidence(Tick residence);

    /**
     * Flushes no dispatch or calendar counts: ctr.sim.heap_events and
     * ctr.sim.calendar_drains count CycleSkip's events alone.
     */
    Metrics finish(BusMachine &bus, std::uint64_t dispatched);

    /**
     * Geometric think-interval draws performed. One per processor
     * ready event - O(1) per interval, against CycleSkip's one
     * Bernoulli per processor cycle (its thinkDraws()); the perf
     * tests assert the ratio.
     */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

    void
    appendScratchCapacities(std::vector<std::size_t> &caps) const
    {
        caps.push_back(thinkHeap_.capacity());
    }

  private:
    void issue(BusMachine &bus, int proc, Tick now);

    WorkloadModel workload_;
    Tick pc_; //!< processor cycle r + 2

    /** Per-processor counter streams + one for arbitration (stream n),
     *  all keyed by the config fingerprint. */
    std::vector<CounterRng> procRng_;
    CounterRng arbRng_;

    /** Per processor: log1p(-p), the geometric draw's denominator
     *  (0 where p is 0 or 1, which draw no uniform). */
    std::vector<double> thinkLog1mP_;

    /**
     * Pending think wake-ups (tick, proc), a binary min-heap over a
     * reserved vector. Only processors whose geometric draw came out
     * nonzero ever enter; at p = 1 it stays empty for the whole run.
     */
    std::vector<std::pair<Tick, int>> thinkHeap_;

    std::uint64_t thinkDraws_ = 0;

    /**
     * Wait-time moments, accumulated as exact integers (waits are
     * tick counts) and summarized into an Accumulator once in
     * finish() - no per-completion Welford division on the hot path.
     */
    std::uint64_t waitSum_ = 0;
    unsigned __int128 waitSumSq_ = 0;
    std::uint64_t waitMin_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t waitMax_ = 0;
};

/**
 * One FastStat simulation run. Construct with a SystemConfig (any
 * configuration the exact kernel accepts) and call run() once.
 */
using FastStatSystem = BusKernel<FastStatPolicy>;

extern template class BusKernel<FastStatPolicy>;

} // namespace sbn

#endif // SBN_CORE_FASTSTAT_HH
