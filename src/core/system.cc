#include "core/system.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

SingleBusSystem::SingleBusSystem(const SystemConfig &config)
    : cfg_(config), rng_(config.seed),
      // cfg_ precedes workload_ in declaration order; validate before
      // the workload model builds alias tables from the raw fields.
      workload_((cfg_.validate(), cfg_.workload), cfg_.numProcessors,
                cfg_.numModules, cfg_.requestProbability),
      bus_(cfg_)
{
    mods_.resize(cfg_.numModules);

    // Pre-size every container the hot path touches so steady-state
    // simulation performs no allocations (asserted by the perf tests
    // via scratchCapacities()).
    const auto pc = static_cast<std::size_t>(cfg_.processorCycle());
    thinkBuckets_.resize(pc);
    for (auto &bucket : thinkBuckets_)
        bucket.reserve(static_cast<std::size_t>(cfg_.numProcessors));
    thinkBucketDue_.assign(pc, 0);
    thinkDue_.resize(pc);
}

std::vector<std::size_t>
SingleBusSystem::scratchCapacities() const
{
    std::vector<std::size_t> caps;
    for (const auto &bucket : thinkBuckets_)
        caps.push_back(bucket.capacity());
    bus_.appendScratchCapacities(caps);
    return caps;
}

void
SingleBusSystem::refreshModule(int module)
{
    const Module &mod = mods_[module];
    if (cfg_.buffered)
        bus_.refreshQueued(module, mod.reservedInput);
    else
        bus_.refreshModule(module, mod.state == ModState::Idle,
                           mod.state == ModState::HoldingResponse);
}

void
SingleBusSystem::checkCompletionTick() const
{
    // Completions run before the transfer-done at a shared tick: a
    // transfer already pending at the due tick would have to go first.
    sbn_assert(now_ + static_cast<Tick>(cfg_.memoryRatio) != busCycleAt_,
               "completion scheduled onto a pending bus cycle's tick");
}

void
SingleBusSystem::startQueuedAccess(int module)
{
    if (bus_.startQueuedAccess(module, now_))
        checkCompletionTick();
    refreshModule(module);
}

bool
SingleBusSystem::drawProcessor(int proc, Tick now)
{
    ++thinkDraws_;
    if (!rng_.bernoulli(workload_.thinkProbability(proc))) {
        // One processor cycle of internal work, then draw again
        // (hypothesis (f): requests only start on processor-cycle
        // boundaries).
        return false;
    }
    bus_.issue(proc, workload_.sampleTarget(proc, rng_), now);
    return true;
}

void
SingleBusSystem::enterThinking(int proc, Tick now)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    const Tick due = now + pc;
    const auto idx = static_cast<std::size_t>(due % pc);
    auto &bucket = thinkBuckets_[idx];
    if (bucket.empty()) {
        thinkBucketDue_[idx] = due;
        thinkDue_.insert(idx);
    } else {
        sbn_assert(thinkBucketDue_[idx] == due,
                   "think bucket due-tick invariant violated");
    }
    bucket.push_back(proc);
    if (thinkingCount_++ == 0 || due < thinkNextDue_) {
        thinkNextDue_ = due;
        thinkNextIdx_ = idx;
    }
}

void
SingleBusSystem::processThinkTick(Tick now, std::size_t idx)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    auto &bucket = thinkBuckets_[idx];
    sbn_assert(!bucket.empty() && thinkBucketDue_[idx] == now,
               "processing a think bucket at the wrong tick");
    ++calendarDrains_;

    // Draw in bucket order (== event sequence order). A failure's
    // next draw is due exactly one processor cycle later, i.e. in
    // this same bucket: compact survivors in place, stably. Issue
    // side effects never append to the calendar synchronously, so
    // the snapshot count is safe.
    const std::size_t count = bucket.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const int proc = bucket[i];
        if (!drawProcessor(proc, now))
            bucket[keep++] = proc;
    }
    bucket.resize(keep);
    thinkBucketDue_[idx] = now + pc;
    thinkingCount_ -= static_cast<int>(count - keep);
    if (keep == 0)
        thinkDue_.erase(idx);
    if (thinkingCount_ == 0) {
        thinkNextDue_ = kNever;
        return;
    }
    // Every nonempty bucket is due within (now, now + pc], and
    // residues come due in cyclic order: the next one is the first
    // nonempty residue after idx, or idx itself a full cycle out.
    const std::size_t next = thinkDue_.nextCyclic(
        idx + 1 == thinkBuckets_.size() ? 0 : idx + 1);
    thinkNextIdx_ = next;
    thinkNextDue_ = now + (next > idx ? static_cast<Tick>(next - idx)
                                      : pc - static_cast<Tick>(idx - next));
}

void
SingleBusSystem::memoryCompletion(int module)
{
    if (cfg_.buffered) {
        bus_.finishQueuedAccess(module, now_);
        startQueuedAccess(module);
        return;
    }
    Module &mod = mods_[module];
    sbn_assert(mod.state == ModState::Accessing,
               "completion on non-accessing module");
    bus_.finishAccess(module, now_);
    mod.state = ModState::HoldingResponse;
    refreshModule(module);
}

void
SingleBusSystem::transferDone()
{
    const BusTransfer xfer = busTransfer_;
    busTransfer_ = BusTransfer{};
    sbn_assert(xfer.kind != BusTransfer::Kind::None,
               "transfer-done with idle bus");
    Module &mod = mods_[xfer.module];

    if (xfer.kind == BusTransfer::Kind::Request) {
        if (cfg_.buffered) {
            --mod.reservedInput;
            sbn_assert(mod.reservedInput >= 0, "reservation underflow");
            bus_.enqueueRequest(xfer.module, xfer.proc);
            startQueuedAccess(xfer.module);
            return;
        }
        sbn_assert(mod.state == ModState::RequestInFlight,
                   "request arrived at module in wrong state");
        mod.state = ModState::Accessing;
        checkCompletionTick();
        bus_.startAccess(xfer.module, xfer.proc, now_);
        refreshModule(xfer.module);
        return;
    }

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::ResponseInFlight,
                   "response finished from module in wrong state");
        mod.state = ModState::Idle;
        refreshModule(xfer.module);
    }

    // Deliver to the processor; it immediately starts its next
    // processor cycle (issue or think).
    if (!drawProcessor(xfer.proc, now_))
        enterThinking(xfer.proc, now_);
}

void
SingleBusSystem::arbitrate()
{
    const Tick now = now_;
    sbn_assert(busTransfer_.kind == BusTransfer::Kind::None,
               "arbitrating while the bus is busy");

    // Random draws pickIndex over the candidate count from the shared
    // stream, every time - the historical draw order exactly.
    const auto pick = [&](std::size_t count) { return rng_.pickIndex(count); };
    int chosen_proc = -1;
    int chosen_mod = -1;
    if (!(cfg_.buffered ? bus_.select<true>(pick, chosen_proc, chosen_mod)
                        : bus_.select<false>(pick, chosen_proc, chosen_mod)))
        return; // bus goes idle

    if (chosen_proc >= 0)
        grantRequest(chosen_proc);
    else
        grantResponse(chosen_mod);

    bus_.countBusCycle(now);
    // The transfer lands, and the bus decides again, next cycle.
    busCycleAt_ = now + 1;
}

void
SingleBusSystem::grantRequest(int proc)
{
    const int target = bus_.grantRequest(proc);
    Module &mod = mods_[target];

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Idle,
                   "request granted to a non-idle module");
        mod.state = ModState::RequestInFlight;
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        bus_.noteQueueDepth(target, now_, -1);
    } else {
        ++mod.reservedInput;
    }
    refreshModule(target);

    busTransfer_ = BusTransfer{BusTransfer::Kind::Request, proc, target};
}

void
SingleBusSystem::grantResponse(int module)
{
    const Tick now = now_;
    Module &mod = mods_[module];
    int proc = -1;

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::HoldingResponse,
                   "response granted from module in wrong state");
        proc = bus_.serving(module);
        mod.state = ModState::ResponseInFlight;
        refreshModule(module);
    } else {
        proc = bus_.popResponse(module);
        // The output slot freed; a blocked module can resume.
        startQueuedAccess(module);
    }

    busTransfer_ = BusTransfer{BusTransfer::Kind::Response, proc, module};
    bus_.recordCompletion(proc, now, [&](Tick residence) {
        const auto service = static_cast<double>(residence);
        serviceStats_.add(service);
        waitStats_.add(service -
                       static_cast<double>(cfg_.processorCycle()));
    });
}

// Flatten, as FastStat's runLoop: inline the whole per-event chain
// (transferDone -> drawProcessor -> the RNG draws, BusMachine and the
// Welford update) into the driver loop, so an event makes no call.
__attribute__((flatten)) void
SingleBusSystem::runCycleSkip()
{
    // Seed: every processor draws at tick 0, in index order.
    auto &bucket0 = thinkBuckets_[0];
    for (int p = 0; p < cfg_.numProcessors; ++p)
        bucket0.push_back(p);
    thinkBucketDue_[0] = 0;
    thinkDue_.insert(0);
    thinkingCount_ = cfg_.numProcessors;
    thinkNextDue_ = 0;
    thinkNextIdx_ = 0;

    // Driver: jump to the earliest tick holding think draws, memory
    // completions or a landing transfer, and run that tick in the
    // order the file comment gives. The think calendar goes first:
    // its draws are processor-ready updates booked a full processor
    // cycle earlier than anything else due at the tick.
    while (true) {
        const Tick tc = thinkingCount_ > 0 ? thinkNextDue_ : kNever;
        const Tick now = std::min({tc, busCycleAt_, bus_.nextCompletion()});
        if (now >= bus_.windowEnd())
            break;
        now_ = now;
        if (tc == now)
            processThinkTick(now, thinkNextIdx_);
        while (bus_.nextCompletion() == now) {
            ++dispatched_;
            memoryCompletion(bus_.popCompletion());
        }
        if (busCycleAt_ == now) {
            busCycleAt_ = kNever;
            ++dispatched_;
            transferDone();
        } else if (bus_.hasCandidates()) {
            ++dispatched_; // an idle-bus arbitration
        }
        arbitrate();
    }
}

Metrics
SingleBusSystem::run()
{
    sbn_assert(!ran_, "SingleBusSystem::run may only be called once");
    ran_ = true;

    {
        TelemetryTimerScope timer(TelemetryTimer::SimRun);
        runCycleSkip();
    }

    telemetryAdd(TelemetryCounter::SimHeapEvents, dispatched_);
    telemetryAdd(TelemetryCounter::SimCalendarDrains, calendarDrains_);
    return bus_.finish(thinkDraws_, waitStats_, serviceStats_.mean());
}

} // namespace sbn
