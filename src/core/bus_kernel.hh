/**
 * @file
 * The one driver loop of both simulation kernels.
 *
 * One kernel tick is one bus cycle (the paper's basic cycle t). The
 * bus carries exactly one transfer per cycle: a processor request on
 * its way to a module, or a module response on its way back. Memory
 * accesses take r cycles; an uncontended request therefore completes
 * a processor cycle in r+2 bus cycles.
 *
 * BusKernel<Policy> drives the shared bus machine
 * (core/bus_machine.hh) event by event: it visits only the ticks
 * where a think draw or a memory completion is due, or where the
 * transfer granted one tick earlier lands, and skips quiescent spans.
 * Each tick runs, in this order:
 *   1. the think draws due now;
 *   2. the memory completions due now, in schedule order;
 *   3. the landing of last tick's transfer, if any;
 *   4. one arbitration, over the settled end-of-tick state (an
 *      arbitration with no candidates draws nothing).
 * A grant applies every module effect at once, with the arrival tick
 * now + 1 (the bus flight in bus_machine.hh). A landing therefore
 * only delivers: it is where a policy that defers the delivered
 * processor's draw makes it.
 *
 * The Policy carries what differs between the kernels:
 *   - think draws: its constructor seeds tick 0, nextThink() is the
 *     earliest pending draw tick, drawThinks(now) runs the ones due;
 *   - the delivered processor's draw, deliver(proc, tick): at the
 *     landing when kDeliverAtLanding, else at the grant, with the
 *     landing tick;
 *   - the Random arbitration pick, pick(count);
 *   - wait moments, addResidence(residence);
 *   - the Metrics and telemetry, finish(bus, dispatched);
 *   - its scratch containers and think-draw count.
 *
 * runLoop<Buffered> is flattened: the whole per-event chain, the
 * policy, BusMachine and the inline RNG draws (util/random.hh)
 * compile into one function per (policy, organization), so an event
 * makes no call. Each policy's .cc explicitly instantiates its
 * kernel; docs/performance.md "Kernel hot path" records the sizes.
 */

#ifndef SBN_CORE_BUS_KERNEL_HH
#define SBN_CORE_BUS_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bus_machine.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

/**
 * One simulation run of the single-bus machine under a kernel Policy.
 * Construct with a SystemConfig and call run() once to obtain Metrics.
 */
template <class Policy>
class BusKernel
{
  public:
    explicit BusKernel(const SystemConfig &config)
        : cfg_(config), bus_((cfg_.validate(), cfg_)), policy_(cfg_, bus_)
    {
    }

    /** Run warmup + measurement and return the collected metrics. */
    Metrics run();

    /**
     * Events the run dispatched: memory completions, transfer
     * landings and idle-bus arbitrations on ticks with candidates
     * (perf accounting).
     */
    std::uint64_t eventsDispatched() const { return dispatched_; }

    /** The policy's think draws performed (perf accounting). */
    std::uint64_t thinkDraws() const { return policy_.thinkDraws(); }

    /**
     * Capacities of every scratch container the driver loop touches,
     * in a fixed order (exposed for the zero-steady-state-allocation
     * test: capacities must not change across run()).
     */
    std::vector<std::size_t>
    scratchCapacities() const
    {
        std::vector<std::size_t> caps;
        policy_.appendScratchCapacities(caps);
        bus_.appendScratchCapacities(caps);
        return caps;
    }

  private:
    template <bool Buffered> void runLoop();

    SystemConfig cfg_;
    BusMachine bus_;
    Policy policy_;
    std::uint64_t dispatched_ = 0;
    bool ran_ = false;
};

// Out of the class body, so not inline: each policy's .cc is the one
// place its kernel is instantiated (the extern template declarations
// stop every other translation unit), and only there are the policy's
// own member functions visible for flatten to inline.
template <class Policy>
Metrics
BusKernel<Policy>::run()
{
    sbn_assert(!ran_, "run may only be called once");
    ran_ = true;
    {
        TelemetryTimerScope timer(TelemetryTimer::SimRun);
        if (cfg_.buffered)
            runLoop<true>();
        else
            runLoop<false>();
    }
    return policy_.finish(bus_, dispatched_);
}

template <class Policy>
template <bool Buffered>
__attribute__((flatten)) void
BusKernel<Policy>::runLoop()
{
    const auto pick = [&](std::size_t count) {
        return policy_.pick(count);
    };
    const auto moments = [&](Tick residence) {
        policy_.addResidence(residence);
    };
    Tick landing = kNever; //!< the granted transfer lands
    int delivery = -1;     //!< its processor, if a deferred response
    std::uint64_t dispatched = 0; // a local, so it can stay in a register

    for (Tick now = 0; now < bus_.windowEnd();
         now = std::min({policy_.nextThink(), landing,
                         bus_.nextCompletion()})) {
        if (policy_.nextThink() == now)
            policy_.drawThinks(bus_, now);
        while (bus_.nextCompletion() == now) {
            ++dispatched;
            bus_.template memoryCompletion<Buffered>(now);
        }
        if (landing == now) {
            landing = kNever;
            ++dispatched;
            if (delivery >= 0) {
                policy_.deliver(bus_, delivery, now);
                delivery = -1;
            }
        } else if (bus_.hasCandidates()) {
            ++dispatched; // an idle-bus arbitration
        }

        int proc = -1;
        int module = -1;
        if (!bus_.template select<Buffered>(pick, proc, module))
            continue; // the bus goes idle
        landing = now + 1;
        if (proc >= 0) {
            bus_.template grantRequest<Buffered>(proc, now);
            continue;
        }
        const int to =
            bus_.template grantResponse<Buffered>(module, now, moments);
        if constexpr (Policy::kDeliverAtLanding)
            delivery = to;
        else
            policy_.deliver(bus_, to, landing);
    }
    dispatched_ = dispatched;
}

} // namespace sbn

#endif // SBN_CORE_BUS_KERNEL_HH
