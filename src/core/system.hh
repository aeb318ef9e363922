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
 * The model is event-driven rather than cycle-stepped: arbitration
 * runs only in cycles where a grant could happen, and quiescent spans
 * (all processors thinking / all modules accessing) are skipped.
 *
 * The system is synchronous to the bus cycle, so every scheduled
 * event lands at a fixed stride and needs no general event queue:
 *   - a memory completion at access start + r, kept in BusMachine's
 *     FIFO ring (accesses start at the monotone current tick and all
 *     last r, so schedule order is due order);
 *   - the coalesced bus cycle (transfer done, then arbitrate) at
 *     grant + 1, one slot;
 *   - the idle-bus arbitration at the current tick, one slot.
 *
 * Order within one tick:
 *   1. think-calendar draws (processor-ready updates);
 *   2. memory completions due now, in schedule order;
 *   3. the bus cycle;
 *   4. the idle-bus arbitration, which therefore observes a
 *      consistent end-of-cycle state.
 * Same-tick updates (2 and 3) run in the order they were scheduled;
 * the shared-RNG draw order, and so every golden pin, depends on it.
 * Completions can go first because none is ever scheduled onto a
 * tick whose bus cycle is already pending (asserted where
 * completions are scheduled; tests/golden/kernel_metrics_r1.txt pins
 * r = 1, where the two share ticks).
 *
 * Thinking processors sit in a calendar of processorCycle()
 * tick-buckets drained by the driver loop, so a think redraw costs
 * one Bernoulli and O(1) bucket work.
 *
 * The bookkeeping this kernel shares with FastStat lives once, in
 * core/bus_machine.hh: outstanding requests, the arbitration
 * candidate bit-sets (maintained incrementally at the state
 * transitions that change eligibility), the completion ring,
 * FCFS/Random selection and the Metrics accounting. This file keeps
 * what is CycleSkip's own: the think calendar, the bus's in-flight
 * states, the arbitration schedule and Welford wait moments. The
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

#include <deque>
#include <vector>

#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
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

    /** The configuration this system was built with. */
    const SystemConfig &config() const { return cfg_; }

    /**
     * Scheduled events dispatched so far: memory completions, bus
     * cycles and idle-bus arbitrations (perf accounting).
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

    struct Response
    {
        int proc;
        Tick readyTick;
    };

    struct Module
    {
        // Unbuffered state machine.
        ModState state = ModState::Idle;

        // Buffered organization (config.buffered).
        bool accessing = false;
        std::deque<int> inputQueue;      //!< waiting request procs
        std::deque<Response> outputQueue; //!< waiting responses
        int reservedInput = 0; //!< granted requests still on the bus
    };

    /** The transfer currently occupying the bus. */
    struct BusTransfer
    {
        enum class Kind { None, Request, Response } kind = Kind::None;
        int proc = -1;
        int module = -1;
    };

    // --- behaviour ---------------------------------------------------
    void processorReady(int proc);
    void memoryCompletion(int module);
    void transferDone();
    void arbitrate();
    void busCycle();

    void requestArbitration();
    void startAccess(int module, int proc);
    void refreshModule(int module);
    void maybeStartBufferedAccess(int module);

    void grantRequest(int proc);
    void grantResponse(int module);

    /**
     * One processor-cycle draw: issue (true) or think (false). The
     * single place the simulator consumes processor RNG; target and
     * think probability both come from the workload model.
     */
    bool drawProcessor(int proc, Tick now);

    // --- cycle-skip kernel --------------------------------------------
    void runCycleSkip();
    Tick nextScheduled() const;
    void dispatchDue(Tick now);
    void processThinkTick(Tick now, std::size_t bucket_idx);
    void refreshNextThink(Tick now, std::size_t r0);
    void enterThinking(int proc, Tick now);

    SystemConfig cfg_;
    RandomGenerator rng_;
    WorkloadModel workload_;
    BusMachine bus_;

    std::vector<Module> mods_;

    BusTransfer busTransfer_;
    bool inArbitration_ = false; //!< guards re-entrant rescheduling
    bool inBusCycle_ = false;    //!< transfer phase of busCycle()

    // --- fixed-stride schedule ----------------------------------------
    Tick now_ = 0;
    std::uint64_t dispatched_ = 0;

    Tick busCycleAt_ = kNever;    //!< coalesced transfer+arbitrate
    Tick arbitrationAt_ = kNever; //!< idle-bus wakeup

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
     * Bit b set <=> thinkBuckets_[b] nonempty, for processor cycles
     * of at most 63 ticks (thinkMaskUsable_). Buckets come due in
     * cyclic residue order, so the next think tick is a rotate+ctz
     * instead of an O(processorCycle) scan of the due array.
     */
    std::uint64_t thinkMask_ = 0;
    std::uint64_t thinkMaskAll_ = 0; //!< low processorCycle() bits
    bool thinkMaskUsable_ = false;

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
