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
    thinkMaskUsable_ = pc <= 63;
    thinkMaskAll_ = thinkMaskUsable_ ? (1ull << pc) - 1 : 0;
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
    bool accept = mod.state == ModState::Idle;
    bool response = mod.state == ModState::HoldingResponse;
    if (cfg_.buffered) {
        // Granted requests still on the bus hold their input slot.
        accept = bus_.inputHasRoom(
            static_cast<int>(mod.inputQueue.size()) + mod.reservedInput,
            mod.accessing);
        response = !mod.outputQueue.empty();
    }
    bus_.refreshModule(module, accept, response);
}

void
SingleBusSystem::requestArbitration()
{
    // While arbitrate() itself runs (granting), candidates surfacing
    // from its side effects are covered by the post-grant arbitration
    // at the next cycle; scheduling here would double-grant the bus
    // within one cycle.
    if (inArbitration_ || arbitrationAt_ != kNever)
        return;
    // The coalesced bus cycle already ends in an arbitration.
    if (inBusCycle_ || busCycleAt_ != kNever)
        return;
    // With incrementally maintained candidate sets an empty-handed
    // arbitration is knowable in advance (no RNG, no state change).
    if (!bus_.hasCandidates())
        return;
    arbitrationAt_ = now_;
}

void
SingleBusSystem::startAccess(int module, int proc)
{
    // Same-tick updates run in the order they were scheduled, and
    // dispatchDue runs completions before the bus cycle: a bus cycle
    // already pending at the due tick would have to go first.
    sbn_assert(now_ + static_cast<Tick>(cfg_.memoryRatio) != busCycleAt_,
               "completion scheduled onto a pending bus cycle's tick");
    bus_.startAccess(module, proc, now_);
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
    const int target = workload_.sampleTarget(proc, rng_);
    bus_.issue(proc, target, now);
    if (bus_.canAccept(target))
        requestArbitration();
    return true;
}

void
SingleBusSystem::processorReady(int proc)
{
    if (drawProcessor(proc, now_))
        return;
    enterThinking(proc, now_);
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
        if (thinkMaskUsable_)
            thinkMask_ |= 1ull << idx;
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
SingleBusSystem::refreshNextThink(Tick now, std::size_t r0)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    if (thinkingCount_ == 0) {
        thinkNextDue_ = kNever;
        return;
    }
    if (thinkMaskUsable_) {
        // Every nonempty bucket is due within (now, now + pc], and
        // residues come due in cyclic order, so rotating the
        // nonempty mask to put now's residue at bit 0 turns the
        // lookup into a count-trailing-zeros. Bit 0 after rotation
        // is now's own bucket, just processed: due a full cycle out.
        std::uint64_t rotated = thinkMask_;
        if (r0 != 0) {
            rotated = (rotated >> r0) |
                      (rotated << (static_cast<unsigned>(pc) -
                                   static_cast<unsigned>(r0)));
            rotated &= thinkMaskAll_;
        }
        sbn_assert(rotated != 0, "refreshNextThink with no thinkers");
        Tick dist;
        if ((rotated & 1u) != 0 && (rotated &= rotated - 1) == 0)
            dist = pc;
        else
            dist = static_cast<Tick>(__builtin_ctzll(rotated));
        const Tick raw = static_cast<Tick>(r0) + dist;
        thinkNextIdx_ =
            static_cast<std::size_t>(raw >= pc ? raw - pc : raw);
        thinkNextDue_ = now + dist;
        return;
    }

    Tick next = kNever;
    std::size_t idx = 0;
    for (std::size_t b = 0; b < thinkBuckets_.size(); ++b) {
        if (!thinkBuckets_[b].empty() && thinkBucketDue_[b] < next) {
            next = thinkBucketDue_[b];
            idx = b;
        }
    }
    thinkNextDue_ = next;
    thinkNextIdx_ = idx;
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
    if (keep == 0 && thinkMaskUsable_)
        thinkMask_ &= ~(1ull << idx);
    refreshNextThink(now, idx);
}

void
SingleBusSystem::memoryCompletion(int module)
{
    Module &mod = mods_[module];
    const int proc = bus_.finishAccess(module, now_);

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Accessing,
                   "completion on non-accessing module");
        mod.state = ModState::HoldingResponse;
        refreshModule(module);
        requestArbitration();
        return;
    }

    mod.outputQueue.push_back(Response{proc, now_});
    mod.accessing = false;
    refreshModule(module);
    maybeStartBufferedAccess(module);
    requestArbitration();
}

void
SingleBusSystem::maybeStartBufferedAccess(int module)
{
    Module &mod = mods_[module];
    if (mod.accessing || mod.inputQueue.empty())
        return;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(mod.outputQueue.size()) >= cfg_.outputCapacity)
        return; // blocked until a response drains

    const int proc = mod.inputQueue.front();
    mod.inputQueue.pop_front();
    mod.accessing = true;
    bus_.noteQueueDepth(module, now_, -1);
    startAccess(module, proc);
    refreshModule(module);
    // An input slot freed: a waiting processor may now be eligible.
    requestArbitration();
}

void
SingleBusSystem::transferDone()
{
    const BusTransfer xfer = busTransfer_;
    busTransfer_ = BusTransfer{};

    if (xfer.kind == BusTransfer::Kind::Request) {
        Module &mod = mods_[xfer.module];
        if (!cfg_.buffered) {
            sbn_assert(mod.state == ModState::RequestInFlight,
                       "request arrived at module in wrong state");
            mod.state = ModState::Accessing;
            startAccess(xfer.module, xfer.proc);
            refreshModule(xfer.module);
        } else {
            --mod.reservedInput;
            sbn_assert(mod.reservedInput >= 0, "reservation underflow");
            mod.inputQueue.push_back(xfer.proc);
            refreshModule(xfer.module);
            maybeStartBufferedAccess(xfer.module);
        }
        return;
    }

    sbn_assert(xfer.kind == BusTransfer::Kind::Response,
               "transfer-done with idle bus");

    if (!cfg_.buffered) {
        Module &mod = mods_[xfer.module];
        sbn_assert(mod.state == ModState::ResponseInFlight,
                   "response finished from module in wrong state");
        mod.state = ModState::Idle;
        refreshModule(xfer.module);
        // Requests queued for this module become eligible.
        requestArbitration();
    }

    // Deliver to the processor; it immediately starts its next
    // processor cycle (issue or think).
    processorReady(xfer.proc);
}

void
SingleBusSystem::busCycle()
{
    // Coalesced bus cycle: the transfer completes, then -- all
    // same-tick state updates having already run, since nothing can
    // be scheduled between the two -- the next arbitration decides,
    // exactly where a separate idle-bus arbitration would have run.
    inBusCycle_ = true;
    transferDone();
    inBusCycle_ = false;
    arbitrate();
}

void
SingleBusSystem::arbitrate()
{
    const Tick now = now_;
    sbn_assert(busTransfer_.kind == BusTransfer::Kind::None,
               "arbitrating while the bus is busy");
    inArbitration_ = true;

    // Random draws pickIndex over the candidate count from the shared
    // stream, every time - the historical draw order exactly.
    int chosen_proc = -1;
    int chosen_mod = -1;
    const bool granted = bus_.select(
        [&](std::size_t count) { return rng_.pickIndex(count); },
        [&](int m) {
            return cfg_.buffered
                       ? mods_[m].outputQueue.front().readyTick
                       : bus_.accessStart(m) +
                             static_cast<Tick>(cfg_.memoryRatio);
        },
        chosen_proc, chosen_mod);
    if (!granted) {
        // Bus goes idle; a future state change reschedules us.
        inArbitration_ = false;
        return;
    }

    if (chosen_proc >= 0)
        grantRequest(chosen_proc);
    else
        grantResponse(chosen_mod);

    bus_.countBusCycle(now);
    // One coalesced bus cycle replaces the transfer-done/arbitrate
    // pair: the bus stays busy through the next cycle either way.
    busCycleAt_ = now + 1;
    inArbitration_ = false;
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
        proc = mod.outputQueue.front().proc;
        mod.outputQueue.pop_front();
        refreshModule(module);
        // The output slot freed; a blocked module can resume.
        maybeStartBufferedAccess(module);
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
// (dispatchDue -> busCycle -> transferDone -> processorReady ->
// drawProcessor -> the RNG draws, BusMachine and the Welford update)
// into the driver loop, so an event makes no call.
__attribute__((flatten)) void
SingleBusSystem::runCycleSkip()
{
    // Seed: every processor draws at tick 0, in index order.
    auto &bucket0 = thinkBuckets_[0];
    for (int p = 0; p < cfg_.numProcessors; ++p)
        bucket0.push_back(p);
    thinkBucketDue_[0] = 0;
    if (thinkMaskUsable_)
        thinkMask_ |= 1ull << 0;
    thinkingCount_ = cfg_.numProcessors;
    thinkNextDue_ = 0;
    thinkNextIdx_ = 0;

    // Driver: jump to the earliest tick holding think draws or
    // scheduled events. The think calendar goes first on a tie: its
    // draws are processor-ready updates booked a full processor cycle
    // earlier than anything else due at the tick.
    while (true) {
        const Tick tc = thinkingCount_ > 0 ? thinkNextDue_ : kNever;
        const Tick now = std::min(tc, nextScheduled());
        if (now >= bus_.windowEnd())
            break;
        now_ = now;
        if (tc == now)
            processThinkTick(now, thinkNextIdx_);
        dispatchDue(now);
    }
}

Tick
SingleBusSystem::nextScheduled() const
{
    return std::min({busCycleAt_, arbitrationAt_, bus_.nextCompletion()});
}

void
SingleBusSystem::dispatchDue(Tick now)
{
    // Nothing run here schedules anything due at this tick except
    // the idle-bus arbitration, which runs last.
    while (bus_.nextCompletion() == now) {
        ++dispatched_;
        memoryCompletion(bus_.popCompletion());
    }
    if (busCycleAt_ == now) {
        busCycleAt_ = kNever;
        ++dispatched_;
        busCycle();
    }
    if (arbitrationAt_ == now) {
        arbitrationAt_ = kNever;
        ++dispatched_;
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
