/**
 * @file
 * CycleSkip: the exact kernel of the multiplexed single-bus
 * multiprocessor.
 *
 * SingleBusSystem is the shared driver (core/bus_kernel.hh) under
 * CycleSkipPolicy. The bus machine, its fused one-tick flight and
 * every module transition are shared with FastStat
 * (core/bus_machine.hh); this policy keeps what is CycleSkip's own:
 *
 *  - **One shared RNG stream** for the think draws, the target
 *    samples and the Random arbitration picks, consumed in classic
 *    event order. Within a tick: the think draws, then the delivered
 *    processor's draw at the landing, then the arbitration's pickIndex
 *    (always drawn, even over one candidate). This draw order is what
 *    every CycleSkip golden pin (tests/golden/kernel_metrics*.txt)
 *    holds.
 *  - **A think calendar.** Thinking processors sit in
 *    processorCycle() tick-buckets, so a think redraw costs one
 *    Bernoulli and O(1) bucket work. The next due bucket is the next
 *    nonempty residue, cyclically (IndexSet::nextCyclic).
 *  - **Welford wait moments**: the golden meanWait bits depend on
 *    this order of operations.
 *
 * Which module a request targets and how eagerly each processor
 * issues is owned by the WorkloadModel (workload/workload.hh). The
 * default Uniform + Homogeneous workload consumes the RNG stream in
 * the exact pre-workload order (one uniformInt per issue, one
 * bernoulli per draw), which is what keeps the golden pins valid.
 */

#ifndef SBN_CORE_SYSTEM_HH
#define SBN_CORE_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "core/bus_kernel.hh"
#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "util/index_set.hh"
#include "util/random.hh"
#include "workload/workload.hh"

namespace sbn {

/** CycleSkip's policy for the shared driver (see the file comment). */
class CycleSkipPolicy
{
  public:
    /** The delivered processor draws at the landing tick. */
    static constexpr bool kDeliverAtLanding = true;

    /** Seeds tick 0: every processor draws then, in index order. */
    CycleSkipPolicy(const SystemConfig &cfg, BusMachine &bus);

    Tick nextThink() const { return thinkNextDue_; }

    /** Drain the think bucket due at now. */
    void drawThinks(BusMachine &bus, Tick now);

    /** The delivered processor starts its next processor cycle. */
    void deliver(BusMachine &bus, int proc, Tick now);

    /** Random selection: pickIndex from the shared stream, every time. */
    std::size_t pick(std::size_t count) { return rng_.pickIndex(count); }

    void addResidence(Tick residence);

    Metrics finish(BusMachine &bus, std::uint64_t dispatched);

    /** Bernoulli think/issue draws performed. */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

    void appendScratchCapacities(std::vector<std::size_t> &caps) const;

  private:
    /**
     * One processor-cycle draw: issue (true) or think (false). The
     * single place the simulator consumes processor RNG; target and
     * think probability both come from the workload model.
     */
    bool drawProcessor(BusMachine &bus, int proc, Tick now);

    void enterThinking(int proc, Tick now);

    RandomGenerator rng_;
    WorkloadModel workload_;
    Tick pc_; //!< processor cycle r + 2

    /**
     * Think calendar: bucket b holds, in event order, the thinking
     * processors whose next draw is due at thinkBucketDue_[b] (always
     * congruent to b mod processorCycle()). Redraw ticks advance in
     * strides of exactly one processor cycle, so every pending entry
     * of a bucket shares one due tick and a failed draw stays in its
     * bucket in place.
     */
    std::vector<std::vector<int>> thinkBuckets_;
    std::vector<Tick> thinkBucketDue_;
    int thinkingCount_ = 0;
    std::uint64_t thinkDraws_ = 0;

    /**
     * Member b <=> thinkBuckets_[b] nonempty. Buckets come due in
     * cyclic residue order, so the next think tick is the next member
     * after the current residue, cyclically.
     */
    IndexSet thinkDue_;

    /**
     * Cached earliest pending think tick (kNever with nobody
     * thinking) and its bucket, so the driver loop compares two
     * integers instead of recomputing; maintained by drawThinks (full
     * refresh, residue already in hand) and enterThinking
     * (min-update).
     */
    Tick thinkNextDue_;
    std::size_t thinkNextIdx_ = 0;

    Accumulator waitStats_;
    Accumulator serviceStats_;
    std::uint64_t calendarDrains_ = 0;
};

/**
 * A complete simulated system: n processors, m memory modules, the
 * multiplexed bus and its arbiter, under the exact kernel.
 */
using SingleBusSystem = BusKernel<CycleSkipPolicy>;

extern template class BusKernel<CycleSkipPolicy>;

} // namespace sbn

#endif // SBN_CORE_SYSTEM_HH
