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
                cfg_.numModules, cfg_.requestProbability)
{
    procs_.resize(cfg_.numProcessors);
    mods_.resize(cfg_.numModules);
    completions_.resize(static_cast<std::size_t>(cfg_.numModules));

    windowStart_ = cfg_.warmupCycles;
    windowEnd_ = cfg_.warmupCycles + cfg_.measureCycles;
    perProcCompleted_.assign(cfg_.numProcessors, 0);

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
    candProcSet_.resize(static_cast<std::size_t>(cfg_.numProcessors));
    candModSet_.resize(static_cast<std::size_t>(cfg_.numModules));
    waiterSets_.assign(
        static_cast<std::size_t>(cfg_.numModules),
        IndexSet(static_cast<std::size_t>(cfg_.numProcessors)));
    // Every module starts idle and empty: accepting, no response.
    modCanAccept_.assign(static_cast<std::size_t>(cfg_.numModules), 1);
    modHasResponse_.assign(static_cast<std::size_t>(cfg_.numModules),
                           0);

    if (cfg_.collectPerModule) {
        const auto m = static_cast<std::size_t>(cfg_.numModules);
        perModBusy_.assign(m, 0);
        perModDepth_.assign(m, 0);
        perModDepthArea_.assign(m, 0);
        perModDepthSince_.assign(m, 0);
        perModDepthMax_.assign(m, 0);
    }

    if (cfg_.collectLatency) {
        procServiceStart_.assign(
            static_cast<std::size_t>(cfg_.numProcessors), 0);
        latWaitHist_.emplace(makeLatencyHistogram());
        latResidenceHist_.emplace(makeLatencyHistogram());
    }
}

std::vector<std::size_t>
SingleBusSystem::scratchCapacities() const
{
    std::vector<std::size_t> caps;
    for (const auto &bucket : thinkBuckets_)
        caps.push_back(bucket.capacity());
    caps.push_back(perModBusy_.capacity());
    caps.push_back(perModDepth_.capacity());
    caps.push_back(perModDepthArea_.capacity());
    caps.push_back(perModDepthSince_.capacity());
    caps.push_back(perModDepthMax_.capacity());
    return caps;
}

bool
SingleBusSystem::moduleCanAcceptRequest(const Module &mod) const
{
    if (!cfg_.buffered)
        return mod.state == ModState::Idle;

    // A request heading to an idle, empty module occupies the server,
    // not a buffer slot; otherwise it needs a free input slot.
    const int occupied =
        static_cast<int>(mod.inputQueue.size()) + mod.reservedInput;
    if (cfg_.inputCapacity == 0)
        return true;
    if (!mod.accessing && occupied == 0)
        return true;
    return occupied < cfg_.inputCapacity;
}

bool
SingleBusSystem::moduleHasResponse(const Module &mod) const
{
    if (!cfg_.buffered)
        return mod.state == ModState::HoldingResponse;
    return !mod.outputQueue.empty();
}

void
SingleBusSystem::procBecomesWaiting(int proc, int target)
{
    waiterSets_[target].insert(proc);
    if (modCanAccept_[target])
        candProcSet_.insert(proc);
}

void
SingleBusSystem::refreshModule(int module)
{
    const Module &mod = mods_[module];
    const bool accept = moduleCanAcceptRequest(mod);
    if (accept != static_cast<bool>(modCanAccept_[module])) {
        modCanAccept_[module] = accept ? 1 : 0;
        if (!waiterSets_[module].empty()) {
            if (accept)
                candProcSet_.insertAll(waiterSets_[module]);
            else
                candProcSet_.eraseAll(waiterSets_[module]);
        }
    }
    const bool response = moduleHasResponse(mod);
    if (response != static_cast<bool>(modHasResponse_[module])) {
        modHasResponse_[module] = response ? 1 : 0;
        if (response)
            candModSet_.insert(module);
        else
            candModSet_.erase(module);
    }
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
    if (candProcSet_.empty() && candModSet_.empty())
        return;
    arbitrationAt_ = now_;
}

void
SingleBusSystem::scheduleCompletion(int module)
{
    const Tick due = now_ + static_cast<Tick>(cfg_.memoryRatio);
    // Same-tick updates run in the order they were scheduled, and
    // dispatchDue runs completions before the bus cycle: a bus cycle
    // already pending at the due tick would have to go first.
    sbn_assert(due != busCycleAt_,
               "completion scheduled onto a pending bus cycle's tick");
    sbn_debug_assert(completionCount_ < completions_.size(),
                     "completion ring overflow");
    std::size_t slot = completionHead_ + completionCount_;
    if (slot >= completions_.size())
        slot -= completions_.size();
    completions_[slot] = Completion{due, module};
    ++completionCount_;
}

bool
SingleBusSystem::drawProcessor(int proc, Tick now)
{
    Processor &p = procs_[proc];
    ++thinkDraws_;

    if (rng_.bernoulli(workload_.thinkProbability(proc))) {
        p.state = ProcState::WaitingGrant;
        p.target = workload_.sampleTarget(proc, rng_);
        p.issueTick = now;
        if (inWindow(now))
            ++issued_;
        procBecomesWaiting(proc, p.target);
        if (cfg_.collectPerModule)
            noteQueueDepth(p.target, now, +1);
        if (modCanAccept_[p.target])
            requestArbitration();
        return true;
    }

    // One processor cycle of internal work, then draw again
    // (hypothesis (f): requests only start on processor-cycle
    // boundaries).
    p.state = ProcState::Thinking;
    return false;
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
    const Tick now = now_;
    Module &mod = mods_[module];

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Accessing,
                   "completion on non-accessing module");
        mod.state = ModState::HoldingResponse;
        recordAccessSpan(module, mod.accessStart, now);
        refreshModule(module);
        requestArbitration();
        return;
    }

    mod.outputQueue.push_back(Response{mod.servingProc, now});
    mod.accessing = false;
    mod.servingProc = -1;
    recordAccessSpan(module, mod.accessStart, now);
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

    const Tick now = now_;
    mod.servingProc = mod.inputQueue.front();
    mod.inputQueue.pop_front();
    mod.accessing = true;
    mod.accessStart = now;
    if (cfg_.collectLatency)
        procServiceStart_[static_cast<std::size_t>(mod.servingProc)] =
            now;
    if (cfg_.collectPerModule)
        noteQueueDepth(module, now, -1);
    scheduleCompletion(module);
    refreshModule(module);
    // An input slot freed: a waiting processor may now be eligible.
    requestArbitration();
}

void
SingleBusSystem::transferDone()
{
    const Tick now = now_;
    const BusTransfer xfer = busTransfer_;
    busTransfer_ = BusTransfer{};

    if (xfer.kind == BusTransfer::Kind::Request) {
        Module &mod = mods_[xfer.module];
        if (!cfg_.buffered) {
            sbn_assert(mod.state == ModState::RequestInFlight,
                       "request arrived at module in wrong state");
            mod.state = ModState::Accessing;
            mod.servingProc = xfer.proc;
            mod.accessStart = now;
            if (cfg_.collectLatency)
                procServiceStart_[static_cast<std::size_t>(xfer.proc)] =
                    now;
            scheduleCompletion(xfer.module);
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
        mod.servingProc = -1;
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
SingleBusSystem::selectIncremental(int &chosen_proc, int &chosen_mod)
{
    if (candProcSet_.empty() && candModSet_.empty())
        return;

    const bool procs_first =
        cfg_.policy == ArbitrationPolicy::ProcessorPriority;
    const bool grant_proc =
        !candProcSet_.empty() && (procs_first || candModSet_.empty());

    // The sets iterate in ascending index order, FCFS keeps the
    // strict-< lowest-index tie-break, and Random draws pickIndex
    // over the candidate count - the historical scan order exactly.
    if (grant_proc) {
        int chosen;
        if (cfg_.selection == SelectionRule::Random) {
            chosen = static_cast<int>(
                candProcSet_.nth(rng_.pickIndex(candProcSet_.count())));
        } else {
            int best = -1;
            candProcSet_.forEach([&](std::size_t p) {
                const int proc = static_cast<int>(p);
                if (best < 0 ||
                    procs_[proc].issueTick < procs_[best].issueTick)
                    best = proc;
            });
            chosen = best;
        }
        chosen_proc = chosen;
    } else {
        int chosen;
        if (cfg_.selection == SelectionRule::Random) {
            chosen = static_cast<int>(
                candModSet_.nth(rng_.pickIndex(candModSet_.count())));
        } else {
            auto ready = [&](int m) {
                const Module &mod = mods_[m];
                return cfg_.buffered ? mod.outputQueue.front().readyTick
                                     : mod.accessStart +
                                           static_cast<Tick>(
                                               cfg_.memoryRatio);
            };
            int best = -1;
            candModSet_.forEach([&](std::size_t m) {
                const int mod = static_cast<int>(m);
                if (best < 0 || ready(mod) < ready(best))
                    best = mod;
            });
            chosen = best;
        }
        chosen_mod = chosen;
    }
}

void
SingleBusSystem::arbitrate()
{
    const Tick now = now_;
    sbn_assert(busTransfer_.kind == BusTransfer::Kind::None,
               "arbitrating while the bus is busy");
    inArbitration_ = true;

    int chosen_proc = -1;
    int chosen_mod = -1;
    selectIncremental(chosen_proc, chosen_mod);

    if (chosen_proc < 0 && chosen_mod < 0) {
        // Bus goes idle; a future state change reschedules us.
        inArbitration_ = false;
        return;
    }

    if (chosen_proc >= 0)
        grantRequest(chosen_proc);
    else
        grantResponse(chosen_mod);

    if (inWindow(now))
        ++busBusy_;
    // One coalesced bus cycle replaces the transfer-done/arbitrate
    // pair: the bus stays busy through the next cycle either way.
    busCycleAt_ = now + 1;
    inArbitration_ = false;
}

void
SingleBusSystem::grantRequest(int proc)
{
    Processor &p = procs_[proc];
    Module &mod = mods_[p.target];
    p.state = ProcState::WaitingResponse;

    waiterSets_[p.target].erase(proc);
    candProcSet_.erase(proc);

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Idle,
                   "request granted to a non-idle module");
        mod.state = ModState::RequestInFlight;
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        if (cfg_.collectPerModule)
            noteQueueDepth(p.target, now_, -1);
    } else {
        ++mod.reservedInput;
    }
    refreshModule(p.target);

    busTransfer_ = BusTransfer{BusTransfer::Kind::Request, proc, p.target};
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
        proc = mod.servingProc;
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
    recordCompletion(proc, now);
}

void
SingleBusSystem::recordCompletion(int proc, Tick grant_tick)
{
    if (!inWindow(grant_tick))
        return;
    ++completed_;
    ++perProcCompleted_[proc];
    const Tick delivery = grant_tick + 1;
    const double service =
        static_cast<double>(delivery - procs_[proc].issueTick);
    const double wait =
        service - static_cast<double>(cfg_.processorCycle());
    serviceStats_.add(service);
    waitStats_.add(wait);
    if (latWaitHist_) {
        latWaitHist_->add(static_cast<double>(
            procServiceStart_[static_cast<std::size_t>(proc)] -
            procs_[proc].issueTick));
        latResidenceHist_->add(
            static_cast<double>(delivery - procs_[proc].issueTick));
    }
}

void
SingleBusSystem::recordAccessSpan(int module, Tick start, Tick end)
{
    const Tick lo = std::max(start, windowStart_);
    const Tick hi = std::min(end, windowEnd_);
    if (hi > lo) {
        accessCycles_ += static_cast<double>(hi - lo);
        if (cfg_.collectPerModule)
            perModBusy_[static_cast<std::size_t>(module)] +=
                static_cast<std::uint64_t>(hi - lo);
    }
}

void
SingleBusSystem::noteQueueDepth(int module, Tick now, int delta)
{
    const auto idx = static_cast<std::size_t>(module);
    const Tick lo = std::max(perModDepthSince_[idx], windowStart_);
    const Tick hi = std::min(now, windowEnd_);
    if (hi > lo) {
        perModDepthArea_[idx] +=
            perModDepth_[idx] * static_cast<std::uint64_t>(hi - lo);
        if (perModDepth_[idx] > perModDepthMax_[idx])
            perModDepthMax_[idx] = perModDepth_[idx];
    }
    const auto next =
        static_cast<std::int64_t>(perModDepth_[idx]) + delta;
    sbn_debug_assert(next >= 0, "module queue depth went negative");
    perModDepth_[idx] = static_cast<std::uint64_t>(next);
    perModDepthSince_[idx] = now;
}

void
SingleBusSystem::finishPerModule(Metrics &out)
{
    const auto m = static_cast<std::size_t>(cfg_.numModules);
    const auto cycles = static_cast<double>(out.measuredCycles);
    out.perModuleBusyCycles = perModBusy_;
    out.perModuleUtilization.resize(m);
    out.perModuleQueueDepthAvg.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
        // Close the depth integral at the window end (delta 0).
        noteQueueDepth(static_cast<int>(j), windowEnd_, 0);
        out.perModuleUtilization[j] =
            static_cast<double>(perModBusy_[j]) / cycles;
        out.perModuleQueueDepthAvg[j] =
            static_cast<double>(perModDepthArea_[j]) / cycles;
    }
    out.perModuleQueueDepthMax = perModDepthMax_;
}

void
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
        if (now >= windowEnd_)
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
    Tick next = std::min(busCycleAt_, arbitrationAt_);
    if (completionCount_ != 0)
        next = std::min(next, completions_[completionHead_].due);
    return next;
}

void
SingleBusSystem::dispatchDue(Tick now)
{
    // Nothing run here schedules anything due at this tick except
    // the idle-bus arbitration, which runs last.
    while (completionCount_ != 0 &&
           completions_[completionHead_].due == now) {
        const int module = completions_[completionHead_].module;
        if (++completionHead_ == completions_.size())
            completionHead_ = 0;
        --completionCount_;
        ++dispatched_;
        memoryCompletion(module);
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

    // Flush the run's locally accumulated counts in one batch; the
    // inner loops never touch the telemetry registry.
    telemetryAdd(TelemetryCounter::SimRuns, 1);
    telemetryAdd(TelemetryCounter::SimHeapEvents, dispatched_);
    telemetryAdd(TelemetryCounter::SimCalendarDrains, calendarDrains_);
    telemetryAdd(TelemetryCounter::SimThinkDraws, thinkDraws_);
    telemetryAdd(TelemetryCounter::SimRequestsIssued, issued_);
    telemetryAdd(TelemetryCounter::SimRequestsCompleted, completed_);

    Metrics out;
    out.measuredCycles = windowEnd_ - windowStart_;
    out.completedRequests = completed_;
    out.issuedRequests = issued_;
    out.busBusyCycles = busBusy_;

    const auto cycles = static_cast<double>(out.measuredCycles);
    const auto pc = static_cast<double>(cfg_.processorCycle());
    out.ebw = static_cast<double>(completed_) * pc / cycles;
    out.busUtilization = static_cast<double>(busBusy_) / cycles;
    out.ebwFromBusUtilization = out.busUtilization * pc / 2.0;
    out.meanModuleUtilization =
        accessCycles_ / (cycles * static_cast<double>(cfg_.numModules));
    out.processorEfficiency =
        out.ebw / static_cast<double>(cfg_.numProcessors);
    out.meanWaitCycles = waitStats_.mean();
    out.meanServiceCycles = serviceStats_.mean();
    out.waitStats = waitStats_;
    out.perProcessorCompletions = perProcCompleted_;
    out.latencyWait = latWaitHist_;
    out.latencyResidence = latResidenceHist_;
    if (cfg_.collectPerModule)
        finishPerModule(out);
    return out;
}

} // namespace sbn
