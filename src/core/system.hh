/**
 * @file
 * Event-driven model of the multiplexed single-bus multiprocessor.
 *
 * One kernel tick is one bus cycle (the paper's basic cycle t). The
 * bus carries exactly one transfer per cycle: a processor request on
 * its way to a module, or a module response on its way back. Memory
 * accesses take r cycles; an uncontended request therefore completes
 * a processor cycle in r+2 bus cycles.
 *
 * The model is event-driven rather than cycle-stepped: the driver
 * visits only ticks where something happens, and quiescent spans
 * (all processors thinking / all modules accessing) are skipped.
 *
 * The system is synchronous to the bus cycle, so every scheduled
 * event lands at a fixed stride and needs no general event queue:
 *   - a memory completion at access start + r, kept in BusMachine's
 *     FIFO ring (accesses start at the monotone current tick and all
 *     last r, so schedule order is due order);
 *   - the transfer's landing at grant + 1, one slot.
 *
 * Order within one event tick:
 *   1. think-calendar draws (processor-ready updates);
 *   2. memory completions due now, in schedule order;
 *   3. the transfer landing now, if any;
 *   4. one arbitration, which therefore observes a consistent
 *      end-of-tick state (it returns at once with no candidates).
 * The shared-RNG draw order, and so every golden pin, depends on
 * this order. Completions can go first because none is ever
 * scheduled onto a tick whose transfer is already pending (asserted
 * where accesses start; tests/golden/kernel_metrics_r1.txt pins
 * r = 1, where the two share ticks). An arbitration without
 * candidates draws nothing, and a candidate only appears through a
 * state change, whose own tick then arbitrates: so a grant comes at
 * the first tick it can, and no RNG draw moves.
 *
 * Thinking processors sit in a calendar of processorCycle()
 * tick-buckets drained by the driver loop, so a think redraw costs
 * one Bernoulli and O(1) bucket work. The next due bucket is the next
 * nonempty residue, cyclically (IndexSet::nextCyclic).
 *
 * The driver loop (runCycleSkip) is flattened, as FastStat's is: the
 * whole per-event chain, BusMachine, the inline RNG draws
 * (util/random.hh) and the Welford update included, compiles into
 * that one function, so an event makes no call. docs/performance.md
 * "Kernel hot path" records its size.
 *
 * The bookkeeping this kernel shares with FastStat lives once, in
 * core/bus_machine.hh: outstanding requests, the buffered module
 * queues, the arbitration candidate bit-sets (maintained
 * incrementally at the state transitions that change eligibility),
 * the completion ring, FCFS/Random selection and the Metrics
 * accounting. This file keeps what is CycleSkip's own: the think
 * calendar, the bus's in-flight states and Welford wait moments. The
 * golden Metrics pins in tests/golden/kernel_metrics*.txt are the
 * regression net.
 *
 * Which module a request targets and how eagerly each processor
 * issues is owned by the WorkloadModel (workload/workload.hh). The
 * default Uniform + Homogeneous workload consumes the RNG stream in
 * the exact pre-workload order (one uniformInt per issue, one
 * bernoulli per draw), which is what keeps the golden pins valid.
 */

#ifndef SBN_CORE_SYSTEM_HH
#define SBN_CORE_SYSTEM_HH

#include <vector>

#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "util/index_set.hh"
#include "util/random.hh"
#include "workload/workload.hh"

namespace sbn {

/**
 * A complete simulated system: n processors, m memory modules, the
 * multiplexed bus and its arbiter. Construct with a SystemConfig and
 * call run() once to obtain Metrics.
 */
class SingleBusSystem
{
  public:
    explicit SingleBusSystem(const SystemConfig &config);

    /** Run warmup + measurement and return the collected metrics. */
    Metrics run();

    /**
     * Events dispatched so far: memory completions, transfer landings
     * and idle-bus arbitrations on ticks with candidates (perf
     * accounting).
     */
    std::uint64_t eventsDispatched() const { return dispatched_; }

    /** Bernoulli think/issue draws performed (perf accounting). */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

    /**
     * Capacities of every scratch/eligibility container arbitration
     * touches, in a fixed order (exposed for the zero-steady-state-
     * allocation test: capacities must not change across run()).
     */
    std::vector<std::size_t> scratchCapacities() const;

  private:
    /** Unbuffered module service stages. */
    enum class ModState
    {
        Idle,
        RequestInFlight, //!< granted request still on the bus
        Accessing,
        HoldingResponse, //!< done, response waiting for the bus
        ResponseInFlight //!< response on the bus
    };

    struct Module
    {
        ModState state = ModState::Idle; //!< unbuffered organization
        int reservedInput = 0; //!< buffered: granted requests on the bus
    };

    /** The transfer currently occupying the bus. */
    struct BusTransfer
    {
        enum class Kind { None, Request, Response } kind = Kind::None;
        int proc = -1;
        int module = -1;
    };

    // --- behaviour ---------------------------------------------------
    void memoryCompletion(int module);
    void transferDone();
    void arbitrate();
    void grantRequest(int proc);
    void grantResponse(int module);

    void refreshModule(int module);
    void startQueuedAccess(int module);
    void checkCompletionTick() const;

    /**
     * One processor-cycle draw: issue (true) or think (false). The
     * single place the simulator consumes processor RNG; target and
     * think probability both come from the workload model.
     */
    bool drawProcessor(int proc, Tick now);

    // --- cycle-skip kernel --------------------------------------------
    void runCycleSkip();
    void processThinkTick(Tick now, std::size_t bucket_idx);
    void enterThinking(int proc, Tick now);

    SystemConfig cfg_;
    RandomGenerator rng_;
    WorkloadModel workload_;
    BusMachine bus_;

    std::vector<Module> mods_;

    BusTransfer busTransfer_;

    // --- fixed-stride schedule ----------------------------------------
    Tick now_ = 0;
    std::uint64_t dispatched_ = 0;

    Tick busCycleAt_ = kNever; //!< the granted transfer lands

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
     * Cached earliest pending think tick and its bucket, so the
     * driver loop compares two integers instead of recomputing;
     * maintained by processThinkTick (full refresh, residue already
     * in hand) and enterThinking (min-update).
     */
    Tick thinkNextDue_ = 0;
    std::size_t thinkNextIdx_ = 0;

    /**
     * Wait and service moments, Welford-accumulated per completion
     * (the golden meanWait bits depend on this order of operations).
     */
    Accumulator waitStats_;
    Accumulator serviceStats_;
    std::uint64_t calendarDrains_ = 0;

    bool ran_ = false;
};

} // namespace sbn

#endif // SBN_CORE_SYSTEM_HH
