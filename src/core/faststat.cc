#include "core/faststat.hh"

#include <algorithm>

#include "core/fingerprint.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

FastStatSystem::FastStatSystem(const SystemConfig &config)
    : cfg_(config),
      // cfg_ precedes workload_ in declaration order; validate before
      // the workload model builds alias tables from the raw fields.
      workload_((cfg_.validate(), cfg_.workload), cfg_.numProcessors,
                cfg_.numModules, cfg_.requestProbability),
      bus_(cfg_), pc_(static_cast<Tick>(cfg_.processorCycle()))
{
    // Stream family keyed by the full config fingerprint (seed
    // included): streams 0..n-1 drive the processors, stream n the
    // arbitration tie-breaks. Any config difference re-keys every
    // stream at once.
    const std::uint64_t key = configFingerprint(cfg_);
    const auto n = static_cast<std::size_t>(cfg_.numProcessors);
    const auto m = static_cast<std::size_t>(cfg_.numModules);
    procRng_.reserve(n);
    for (std::size_t p = 0; p < n; ++p)
        procRng_.emplace_back(key, static_cast<std::uint64_t>(p));
    arbRng_ = CounterRng(key, static_cast<std::uint64_t>(n));

    modState_.assign(m, ModState::Idle);
    modAccessing_.assign(m, 0u);
    inputQueues_.resize(m);
    outputQueues_.resize(m);

    arbAt_ = kNever;
    thinkHeap_.reserve(n);
}

void
FastStatSystem::refreshModule(int module)
{
    // Buffered organization only: the unbuffered transitions know
    // which flag flips and set it directly. No reservation term:
    // grants enqueue their request immediately (delivery is fused
    // into the grant), so the input queue alone is the occupancy.
    const auto idx = static_cast<std::size_t>(module);
    bus_.refreshModule(
        module,
        bus_.inputHasRoom(static_cast<int>(inputQueues_[idx].size()),
                          modAccessing_[idx] != 0),
        !outputQueues_[idx].empty());
}

void
FastStatSystem::pushThinkWake(Tick due, int proc)
{
    // (tick, proc) pairs compare lexicographically, so equal-tick
    // wake-ups pop in processor index order - a total, reproducible
    // order with no dependence on insertion history.
    thinkHeap_.emplace_back(due, proc);
    std::push_heap(thinkHeap_.begin(), thinkHeap_.end(),
                   std::greater<>());
}

void
FastStatSystem::processorReady(int proc, Tick now)
{
    ++thinkDraws_;
    const double p = workload_.thinkProbability(proc);
    if (p <= 0.0) {
        // Never issues again; park outside every structure (the exact
        // kernel redraws forever, statistically the same silence).
        return;
    }
    const std::uint64_t k = procRng_[static_cast<std::size_t>(proc)]
                                .geometric(p);
    if (k == 0) {
        issue(proc, now);
        return;
    }
    // A wake past the window can never fire (the driver loop stops
    // first); parking it keeps k * pc_ from overflowing for tiny p.
    if (k > (bus_.windowEnd() - now) / static_cast<std::uint64_t>(pc_))
        return;
    const Tick due = now + static_cast<Tick>(k) * pc_;
    pushThinkWake(due, proc);
}

void
FastStatSystem::issue(int proc, Tick now)
{
    bus_.issue(proc,
               workload_.sampleTarget(
                   proc, procRng_[static_cast<std::size_t>(proc)]),
               now);
}

template <bool Buffered>
void
FastStatSystem::memoryCompletion(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[idx] == ModState::Accessing,
                   "completion on non-accessing module");
        // Accessing -> HoldingResponse: the response flag flips on;
        // acceptance stays off.
        modState_[idx] = ModState::HoldingResponse;
        bus_.setResponse(module, true);
        bus_.finishAccess(module, now);
    } else {
        outputQueues_[idx].push_back(
            Response{bus_.finishAccess(module, now), now});
        modAccessing_[idx] = 0;
        refreshModule(module);
        maybeStartBufferedAccess(module, now);
    }
}

void
FastStatSystem::maybeStartBufferedAccess(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    if (modAccessing_[idx] || inputQueues_[idx].empty())
        return;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(outputQueues_[idx].size()) >=
            cfg_.outputCapacity)
        return; // blocked until a response drains

    const int proc = inputQueues_[idx].front();
    inputQueues_[idx].pop_front();
    modAccessing_[idx] = 1;
    bus_.noteQueueDepth(module, now, -1);
    bus_.startAccess(module, proc, now);
    refreshModule(module);
}

template <bool Buffered>
void
FastStatSystem::arbitrate(Tick now)
{
    // Selection and grant in one pass. The exact kernel's transient
    // bus-flight stages are fused away: the chosen transfer's delivery
    // effects apply immediately with next-tick timestamps, because the
    // flight lasts exactly one tick and nothing arbitrates mid-air.
    int proc = -1;
    int module = -1;
    const bool granted = bus_.select(
        [&](std::size_t count) {
            // A singleton set has nothing to tie-break; skip the draw.
            return count == 1 ? 0 : arbRng_.pickIndex(count);
        },
        [&](int m) {
            if constexpr (Buffered)
                return outputQueues_[static_cast<std::size_t>(m)]
                    .front()
                    .readyTick;
            else
                return bus_.accessStart(m) +
                       static_cast<Tick>(cfg_.memoryRatio);
        },
        proc, module);
    if (!granted) {
        arbAt_ = kNever; // re-armed by the next event tick
        return;
    }

    if (proc >= 0)
        grantRequest<Buffered>(proc, now);
    else
        grantResponse<Buffered>(module, now);
    bus_.countBusCycle(now);
    arbAt_ = now + 1;
}

template <bool Buffered>
void
FastStatSystem::grantRequest(int proc, Tick now)
{
    const int target = bus_.grantRequest(proc);
    const auto tgt = static_cast<std::size_t>(target);
    const Tick arrive = now + 1;

    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[tgt] == ModState::Idle,
                   "request granted to a non-idle module");
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        bus_.noteQueueDepth(target, now, -1);
        // Idle -> Accessing at the arrival tick: acceptance flips
        // off and the module's remaining waiters leave the candidate
        // set; the access completes a fixed stride later.
        modState_[tgt] = ModState::Accessing;
        bus_.setAccept(target, false);
        bus_.startAccess(target, proc, arrive);
    } else {
        inputQueues_[tgt].push_back(proc);
        refreshModule(target);
        maybeStartBufferedAccess(target, arrive);
    }
}

template <bool Buffered>
void
FastStatSystem::grantResponse(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    int proc = -1;

    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[idx] == ModState::HoldingResponse,
                   "response granted from module in wrong state");
        // HoldingResponse -> Idle: the response leaves, the module
        // becomes acceptable and its waiters re-enter the candidate
        // set (first visible to the next tick's arbitration).
        proc = bus_.serving(module);
        modState_[idx] = ModState::Idle;
        bus_.setResponse(module, false);
        bus_.setAccept(module, true);
    } else {
        proc = outputQueues_[idx].front().proc;
        outputQueues_[idx].pop_front();
        refreshModule(module);
        // The output slot freed; a blocked module resumes at the
        // grant tick itself, matching the exact kernel (which calls
        // maybeStartBufferedAccess from grantResponse at now).
        maybeStartBufferedAccess(module, now);
    }

    bus_.recordCompletion(proc, now, [&](Tick residence) {
        // Wait is an exact tick count: integer moments here, one
        // Accumulator summary at the end of run().
        const std::uint64_t wait = residence - pc_;
        waitSum_ += wait;
        waitSumSq_ += static_cast<unsigned __int128>(wait) * wait;
        if (wait < waitMin_)
            waitMin_ = wait;
        if (wait > waitMax_)
            waitMax_ = wait;
    });
    processorReady(proc, now + 1);
}

// Flatten: inline the whole per-event helper chain into the driver
// loop. Each transaction walks ~9 small helpers; at tens of millions
// of transactions per run the call overhead alone is measurable, and
// inlining lets the compiler keep loop-invariant config fields
// (selection, window bounds) in registers across the chain. The
// Buffered template parameter makes the buffered/unbuffered split a
// compile-time constant throughout the flattened body.
template <bool Buffered>
__attribute__((flatten)) void
FastStatSystem::runLoop()
{
    // Seed: every processor draws at tick 0, in index order, then the
    // bus decides - the same tick-0 structure as the exact kernel.
    for (int p = 0; p < cfg_.numProcessors; ++p)
        processorReady(p, 0);
    arbitrate<Buffered>(0);

    // Driver: jump to the earliest pending event tick. Per tick, the
    // update order matches the exact kernel's kUpdate phase
    // (completions, think expiries = issues) before the kDecide
    // arbitration observes the settled state; grants already applied
    // their delivery effects at the previous tick. Every structure is
    // O(1)/O(log n) per event and allocation-free in steady state.
    for (;;) {
        Tick next = std::min(arbAt_, bus_.nextCompletion());
        if (!thinkHeap_.empty() && thinkHeap_.front().first < next)
            next = thinkHeap_.front().first;
        if (next >= bus_.windowEnd())
            break;

        const Tick now = next;
        while (bus_.nextCompletion() == now)
            memoryCompletion<Buffered>(bus_.popCompletion(), now);
        while (!thinkHeap_.empty() &&
               thinkHeap_.front().first == now) {
            std::pop_heap(thinkHeap_.begin(), thinkHeap_.end(),
                          std::greater<>());
            const int proc = thinkHeap_.back().second;
            thinkHeap_.pop_back();
            // The geometric draw already placed the issue at this
            // tick; no redraw happens on wake.
            issue(proc, now);
        }
        arbitrate<Buffered>(now);
    }
}

Metrics
FastStatSystem::run()
{
    sbn_assert(!ran_, "FastStatSystem::run may only be called once");
    ran_ = true;

    {
        TelemetryTimerScope timer(TelemetryTimer::SimRun);
        if (cfg_.buffered)
            runLoop<true>();
        else
            runLoop<false>();
    }

    // Summarize the integer wait moments: mean = sum/n and
    // m2 = sumsq - sum^2/n (exact sums, so the subtraction is safe).
    const std::uint64_t completed = bus_.completed();
    Accumulator waitStats;
    if (completed != 0) {
        const auto n = static_cast<double>(completed);
        const double sum = static_cast<double>(waitSum_);
        const double sumsq = static_cast<double>(waitSumSq_);
        const double mean = sum / n;
        waitStats = Accumulator::fromMoments(
            completed, mean, sumsq - sum * mean,
            static_cast<double>(waitMin_),
            static_cast<double>(waitMax_));
    }
    return bus_.finish(
        thinkDraws_, waitStats,
        completed != 0 ? waitStats.mean() + static_cast<double>(pc_)
                       : 0.0);
}

} // namespace sbn
