/**
 * @file
 * FastStat: the statistical fast-path kernel.
 *
 * Simulates the same stochastic process as the exact CycleSkip kernel
 * (core/system.hh) - the same module state machines, and the same
 * eligibility, selection and metric accounting, shared through
 * core/bus_machine.hh - but deliberately breaks the shared-RNG
 * draw-order contract that pins CycleSkip to the classic kernel's
 * trajectories. What that buys:
 *
 *  - **O(1) think intervals.** Each processor owns a counter-based
 *    RNG stream (CounterRng, keyed by the config fingerprint and the
 *    processor index). A ready processor draws its whole geometric
 *    think span in one inversion instead of one Bernoulli per
 *    processor cycle; in the saturated regime (p = 1) the draw is
 *    free and the think structures are never touched at all.
 *  - **Fused bus flight.** A transfer lasts exactly one tick and
 *    nothing arbitrates mid-flight, so a grant applies its delivery
 *    effects at once, with next-tick timestamps; the bus needs no
 *    in-flight states and arbitration runs on every event tick.
 *  - **Flattened, templated driver loop.** The per-event chain,
 *    BusMachine included, inlines into one loop per organization
 *    (buffered or not).
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
#include <vector>

#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "util/random.hh"
#include "workload/workload.hh"

namespace sbn {

/**
 * One FastStat simulation run. Construct with a SystemConfig (any
 * configuration the exact kernel accepts) and call run() once.
 */
class FastStatSystem
{
  public:
    explicit FastStatSystem(const SystemConfig &config);

    /** Run warmup + measurement and return the collected metrics. */
    Metrics run();

    /**
     * Geometric think-interval draws performed. One per processor
     * ready event - O(1) per interval, against CycleSkip's one
     * Bernoulli per processor cycle (its thinkDraws()); the perf
     * tests assert the ratio.
     */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

  private:
    /**
     * Unbuffered module service stages. The exact kernel's transient
     * in-flight stages do not appear: bus transfers take exactly one
     * tick and nothing arbitrates mid-flight, so grants apply their
     * delivery effects immediately with next-tick timestamps.
     */
    enum class ModState : std::uint8_t
    {
        Idle,
        Accessing,
        HoldingResponse,
    };

    // --- behaviour ---------------------------------------------------
    // The per-event chain is templated on the buffered/unbuffered
    // split: the driver loop instantiates each variant once, so the
    // saturated unbuffered path (the perf-critical regime) carries no
    // buffered branches or queue code at all.
    template <bool Buffered> void runLoop();
    void processorReady(int proc, Tick now);
    void issue(int proc, Tick now);
    template <bool Buffered> void memoryCompletion(int module, Tick now);
    void startQueuedAccess(int module, Tick now);
    template <bool Buffered> void arbitrate(Tick now);
    template <bool Buffered> void grantRequest(int proc, Tick now);
    template <bool Buffered> void grantResponse(int module, Tick now);

    void pushThinkWake(Tick due, int proc);

    SystemConfig cfg_;
    WorkloadModel workload_;
    BusMachine bus_;
    Tick pc_; //!< processor cycle r + 2

    /** Per-processor counter streams + one for arbitration (stream n),
     *  all keyed by the config fingerprint. */
    std::vector<CounterRng> procRng_;
    CounterRng arbRng_;

    /** Per processor: log1p(-p), the geometric draw's denominator
     *  (0 where p is 0 or 1, which draw no uniform). */
    std::vector<double> thinkLog1mP_;

    std::vector<ModState> modState_; //!< unbuffered organization

    /**
     * Next tick the bus can grant: now + 1 after a grant (the
     * transfer occupies one tick), the max Tick when the bus is idle
     * with no candidates (any event tick re-arbitrates).
     */
    Tick arbAt_;

    /**
     * Pending think wake-ups (tick, proc), a binary min-heap over a
     * reserved vector. Only processors whose geometric draw came out
     * nonzero ever enter; at p = 1 it stays empty for the whole run.
     */
    std::vector<std::pair<Tick, int>> thinkHeap_;

    std::uint64_t thinkDraws_ = 0;

    /**
     * Wait-time moments, accumulated as exact integers (waits are
     * tick counts) and summarized into an Accumulator once in run() -
     * no per-completion Welford division on the hot path.
     */
    std::uint64_t waitSum_ = 0;
    unsigned __int128 waitSumSq_ = 0;
    std::uint64_t waitMin_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t waitMax_ = 0;

    bool ran_ = false;
};

} // namespace sbn

#endif // SBN_CORE_FASTSTAT_HH
