/**
 * @file
 * The bookkeeping both simulation kernels share.
 *
 * CycleSkip (core/system.hh) and FastStat (core/faststat.hh) simulate
 * one machine: n processors and m modules on one multiplexed bus.
 * They differ in how processors draw think time, how a bus flight is
 * modelled and how wait moments are summed. Everything else lives
 * here, once:
 *
 *  - **Outstanding requests and module servers**: each processor's
 *    target and issue tick, each module's served processor and access
 *    start.
 *  - **Buffered module queues** (config.buffered): each module's input
 *    and output queues and server flag, with the enqueue, start,
 *    finish and pop transitions and the acceptance rule.
 *  - **Arbitration eligibility**: candidate bit-sets kept in lockstep
 *    with the state transitions that change them. An unbuffered
 *    kernel decides whether a module can accept a request or holds a
 *    response and feeds the two booleans to refreshModule(); a
 *    buffered module's flags follow from its queues
 *    (refreshQueued()).
 *  - **Completion ring**: every access starts at the monotone current
 *    tick and lasts exactly r, so pending completions form a FIFO ring
 *    of m slots (a module runs one access at a time).
 *  - **Selection**: the policy and FCFS/Random rule. The kernel passes
 *    the Random draw in, so each keeps its own RNG stream.
 *  - **Observation**: window counters, per-module busy and queue-depth
 *    integration, the latency histograms and the Metrics assembly.
 *
 * Both kernels arbitrate once at the end of every event tick, after
 * that tick's state changes.
 *
 * Header-only, so both kernels' flattened driver loops inline all of
 * it. Nothing here draws random numbers: the kernels' RNG streams,
 * and so every golden pin, are untouched by this bookkeeping.
 */

#ifndef SBN_CORE_BUS_MACHINE_HH
#define SBN_CORE_BUS_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "core/config.hh"
#include "core/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/index_set.hh"
#include "util/logging.hh"

namespace sbn {

/** "No event pending" for the kernels' next-event ticks. */
inline constexpr Tick kNever = std::numeric_limits<Tick>::max();

/**
 * One run's shared bus-machine state, owned by a kernel and driven
 * through the transitions below. Construct from the kernel's
 * validated SystemConfig.
 */
class BusMachine
{
  public:
    explicit BusMachine(const SystemConfig &cfg)
        : memoryRatio_(static_cast<Tick>(cfg.memoryRatio)),
          processorCycle_(static_cast<Tick>(cfg.processorCycle())),
          numProcessors_(cfg.numProcessors),
          numModules_(cfg.numModules),
          inputCapacity_(cfg.inputCapacity),
          outputCapacity_(cfg.outputCapacity),
          procsFirst_(cfg.policy == ArbitrationPolicy::ProcessorPriority),
          random_(cfg.selection == SelectionRule::Random),
          perModule_(cfg.collectPerModule),
          windowStart_(cfg.warmupCycles),
          windowEnd_(cfg.warmupCycles + cfg.measureCycles)
    {
        const auto n = static_cast<std::size_t>(cfg.numProcessors);
        const auto m = static_cast<std::size_t>(cfg.numModules);
        procTarget_.assign(n, -1);
        procIssue_.assign(n, 0);
        modServing_.assign(m, -1);
        modAccessStart_.assign(m, 0);
        completions_.resize(m);
        if (cfg.buffered) {
            modAccessing_.assign(m, 0u);
            inputQueues_.resize(m);
            outputQueues_.resize(m);
        }

        candProcs_.resize(n);
        candMods_.resize(m);
        waiterSets_.assign(m, IndexSet(n));
        // Every module starts idle and empty: accepting, no response.
        modCanAccept_.assign(m, 1u);
        modHasResponse_.assign(m, 0u);

        perProcCompleted_.assign(n, 0);
        if (perModule_) {
            perModBusy_.assign(m, 0);
            perModDepth_.assign(m, 0);
            perModDepthArea_.assign(m, 0);
            perModDepthSince_.assign(m, 0);
            perModDepthMax_.assign(m, 0);
        }
        if (cfg.collectLatency) {
            procServiceStart_.assign(n, 0);
            latWaitHist_.emplace(makeLatencyHistogram());
            latResidenceHist_.emplace(makeLatencyHistogram());
            latTickBins_ = &latencyTickBins();
        }
    }

    Tick windowEnd() const { return windowEnd_; }

    // --- requests and module servers ----------------------------------
    int serving(int module) const { return modServing_[idx(module)]; }

    /** proc issues a request to target at now and starts waiting. */
    void
    issue(int proc, int target, Tick now)
    {
        procTarget_[idx(proc)] = target;
        procIssue_[idx(proc)] = now;
        if (inWindow(now))
            ++issued_;
        waiterSets_[idx(target)].insert(idx(proc));
        if (modCanAccept_[idx(target)])
            candProcs_.insert(idx(proc));
        noteQueueDepth(target, now, +1);
    }

    /** proc's request won the bus: it stops waiting. Returns its target. */
    int
    grantRequest(int proc)
    {
        const int target = procTarget_[idx(proc)];
        waiterSets_[idx(target)].erase(idx(proc));
        candProcs_.erase(idx(proc));
        return target;
    }

    /**
     * module starts serving proc at now: the completion is due r
     * ticks later. Accesses start at the monotone current tick, so the
     * ring stays in due order; checked here in every build.
     */
    void
    startAccess(int module, int proc, Tick now)
    {
        modServing_[idx(module)] = proc;
        modAccessStart_[idx(module)] = now;
        if (!procServiceStart_.empty())
            procServiceStart_[idx(proc)] = now;
        const Tick due = now + memoryRatio_;
        sbn_assert(completionCount_ < completions_.size() &&
                       due >= lastCompletionDue_,
                   "completion ring overflow or out of due order");
        lastCompletionDue_ = due;
        std::size_t slot = completionHead_ + completionCount_;
        if (slot >= completions_.size())
            slot -= completions_.size();
        completions_[slot] = Completion{due, module};
        ++completionCount_;
    }

    /** Due tick of the earliest pending completion, or kNever. */
    Tick
    nextCompletion() const
    {
        return completionCount_ != 0 ? completions_[completionHead_].due
                                     : kNever;
    }

    /** Dequeue the earliest pending completion; returns its module. */
    int
    popCompletion()
    {
        const int module = completions_[completionHead_].module;
        if (++completionHead_ == completions_.size())
            completionHead_ = 0;
        --completionCount_;
        return module;
    }

    /** module's access ends at now; returns the processor it served. */
    int
    finishAccess(int module, Tick now)
    {
        // now is an event tick, so now < windowEnd_ always holds; only
        // the start needs clamping to the window.
        const Tick lo = std::max(modAccessStart_[idx(module)], windowStart_);
        if (now > lo) {
            accessCycles_ += now - lo;
            if (perModule_)
                perModBusy_[idx(module)] += now - lo;
        }
        return modServing_[idx(module)];
    }

    // --- buffered module queues (config.buffered) ---------------------
    /** A granted request joins module's input queue. */
    void
    enqueueRequest(int module, int proc)
    {
        inputQueues_[idx(module)].push_back(proc);
    }

    /**
     * Start module's next queued request at now, unless its server is
     * busy, its input queue is empty or a bounded output queue is full
     * (blocked until a response drains). Returns whether one started.
     */
    bool
    startQueuedAccess(int module, Tick now)
    {
        const auto j = idx(module);
        std::deque<int> &input = inputQueues_[j];
        if (modAccessing_[j] || input.empty())
            return false;
        if (outputCapacity_ > 0 &&
            static_cast<int>(outputQueues_[j].size()) >= outputCapacity_)
            return false;
        const int proc = input.front();
        input.pop_front();
        modAccessing_[j] = 1;
        noteQueueDepth(module, now, -1);
        startAccess(module, proc, now);
        return true;
    }

    /** module's access ends at now; its response joins the output queue. */
    void
    finishQueuedAccess(int module, Tick now)
    {
        outputQueues_[idx(module)].push_back(
            Response{finishAccess(module, now), now});
        modAccessing_[idx(module)] = 0;
    }

    /** Dequeue module's oldest response; returns its processor. */
    int
    popResponse(int module)
    {
        std::deque<Response> &output = outputQueues_[idx(module)];
        const int proc = output.front().proc;
        output.pop_front();
        return proc;
    }

    /**
     * Bring a buffered module's flags up to date from its queues.
     * @p reserved input slots are held by granted requests still on
     * the bus. A request heading to an idle, empty module occupies the
     * server, not a buffer slot.
     */
    void
    refreshQueued(int module, int reserved)
    {
        const auto j = idx(module);
        const int occupied =
            static_cast<int>(inputQueues_[j].size()) + reserved;
        const bool accept = inputCapacity_ == 0 ||
                            (!modAccessing_[j] && occupied == 0) ||
                            occupied < inputCapacity_;
        refreshModule(module, accept, !outputQueues_[j].empty());
    }

    // --- arbitration eligibility --------------------------------------
    bool hasCandidates() const
    {
        return !candProcs_.empty() || !candMods_.empty();
    }

    /** Bring module's cached flags and the candidate sets up to date. */
    void
    refreshModule(int module, bool accept, bool response)
    {
        if (accept != static_cast<bool>(modCanAccept_[idx(module)]))
            setAccept(module, accept);
        if (response != static_cast<bool>(modHasResponse_[idx(module)]))
            setResponse(module, response);
    }

    /** Flip module's acceptance; @pre it differs from the cached flag. */
    void
    setAccept(int module, bool accept)
    {
        modCanAccept_[idx(module)] = accept ? 1 : 0;
        const IndexSet &waiters = waiterSets_[idx(module)];
        if (waiters.empty())
            return;
        if (accept)
            candProcs_.insertAll(waiters);
        else
            candProcs_.eraseAll(waiters);
    }

    /** Flip module's response flag; @pre it differs from the cache. */
    void
    setResponse(int module, bool response)
    {
        modHasResponse_[idx(module)] = response ? 1 : 0;
        if (response)
            candMods_.insert(idx(module));
        else
            candMods_.erase(idx(module));
    }

    /**
     * Choose the next grant: sets @p proc (a request) or @p module (a
     * response) and returns true, or returns false when nothing is
     * eligible. Random selection takes index pick(count) of the
     * ascending candidate set; FCFS takes the earliest issue tick, or
     * the earliest tick a response became ready, lowest index on a
     * tie. @p Buffered is config.buffered, fixed at compile time so a
     * templated driver loop carries only its own response key.
     */
    template <bool Buffered, typename Pick>
    bool
    select(Pick &&pick, int &proc, int &module) const
    {
        sbn_debug_assert(Buffered == !outputQueues_.empty(),
                         "select's Buffered differs from config.buffered");
        if (!hasCandidates())
            return false;
        const bool grant_proc =
            !candProcs_.empty() && (procsFirst_ || candMods_.empty());
        const IndexSet &set = grant_proc ? candProcs_ : candMods_;
        int chosen;
        if (random_)
            chosen = static_cast<int>(set.nth(pick(set.count())));
        else if (grant_proc)
            chosen = earliest(set, [&](int p) { return procIssue_[idx(p)]; });
        else if constexpr (Buffered)
            chosen = earliest(set, [&](int m) {
                return outputQueues_[idx(m)].front().readyTick;
            });
        else
            chosen = earliest(set, [&](int m) {
                return modAccessStart_[idx(m)] + memoryRatio_;
            });
        (grant_proc ? proc : module) = chosen;
        return true;
    }

    // --- observation --------------------------------------------------
    /** The bus transfers during cycle now. */
    void countBusCycle(Tick now)
    {
        if (inWindow(now))
            ++busBusy_;
    }

    /**
     * Count the response granted to proc at grant_tick, delivered one
     * tick later, if the grant falls in the window. Feeds the latency
     * histograms and hands the request's residence (delivery - issue)
     * to @p moments, the kernel's own wait accounting.
     */
    template <typename Moments>
    void
    recordCompletion(int proc, Tick grant_tick, Moments &&moments)
    {
        if (!inWindow(grant_tick))
            return;
        ++completed_;
        ++perProcCompleted_[idx(proc)];
        const Tick residence = grant_tick + 1 - procIssue_[idx(proc)];
        moments(residence);
        if (latWaitHist_) {
            latWaitHist_->addTick(
                procServiceStart_[idx(proc)] - procIssue_[idx(proc)],
                *latTickBins_);
            latResidenceHist_->addTick(residence, *latTickBins_);
        }
    }

    /**
     * Per-module queue depth (collectPerModule; a no-op otherwise):
     * every depth change accrues depth x (window-clipped span since
     * the last change). Purely passive.
     */
    void
    noteQueueDepth(int module, Tick now, int delta)
    {
        if (!perModule_)
            return;
        const auto j = idx(module);
        const Tick lo = std::max(perModDepthSince_[j], windowStart_);
        const Tick hi = std::min(now, windowEnd_);
        if (hi > lo) {
            perModDepthArea_[j] += perModDepth_[j] * (hi - lo);
            if (perModDepth_[j] > perModDepthMax_[j])
                perModDepthMax_[j] = perModDepth_[j];
        }
        const auto next = static_cast<std::int64_t>(perModDepth_[j]) + delta;
        sbn_debug_assert(next >= 0, "module queue depth went negative");
        perModDepth_[j] = static_cast<std::uint64_t>(next);
        perModDepthSince_[j] = now;
    }

    std::uint64_t completed() const { return completed_; }

    /** Capacities of the per-module scratch (no-allocation test). */
    void
    appendScratchCapacities(std::vector<std::size_t> &caps) const
    {
        caps.push_back(perModBusy_.capacity());
        caps.push_back(perModDepth_.capacity());
        caps.push_back(perModDepthArea_.capacity());
        caps.push_back(perModDepthSince_.capacity());
        caps.push_back(perModDepthMax_.capacity());
    }

    /**
     * Flush the run's counts to telemetry in one batch (the inner
     * loops never touch the registry) and assemble its Metrics from
     * the window counters and the kernel's wait moments.
     */
    Metrics
    finish(std::uint64_t think_draws, const Accumulator &wait_stats,
           double mean_service)
    {
        telemetryAdd(TelemetryCounter::SimRuns, 1);
        telemetryAdd(TelemetryCounter::SimThinkDraws, think_draws);
        telemetryAdd(TelemetryCounter::SimRequestsIssued, issued_);
        telemetryAdd(TelemetryCounter::SimRequestsCompleted, completed_);

        Metrics out;
        out.measuredCycles = windowEnd_ - windowStart_;
        out.completedRequests = completed_;
        out.issuedRequests = issued_;
        out.busBusyCycles = busBusy_;

        const auto cycles = static_cast<double>(out.measuredCycles);
        const auto pc = static_cast<double>(processorCycle_);
        out.ebw = static_cast<double>(completed_) * pc / cycles;
        out.busUtilization = static_cast<double>(busBusy_) / cycles;
        out.ebwFromBusUtilization = out.busUtilization * pc / 2.0;
        out.meanModuleUtilization =
            static_cast<double>(accessCycles_) /
            (cycles * static_cast<double>(numModules_));
        out.processorEfficiency =
            out.ebw / static_cast<double>(numProcessors_);
        out.meanWaitCycles = wait_stats.mean();
        out.meanServiceCycles = mean_service;
        out.waitStats = wait_stats;
        out.perProcessorCompletions = perProcCompleted_;
        out.latencyWait = latWaitHist_;
        out.latencyResidence = latResidenceHist_;
        if (perModule_)
            finishPerModule(out);
        return out;
    }

  private:
    /** A pending memory completion: module's access ends at due. */
    struct Completion
    {
        Tick due;
        int module;
    };

    /** A buffered module's finished access awaiting the bus. */
    struct Response
    {
        int proc;
        Tick readyTick;
    };

    static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

    bool inWindow(Tick t) const
    {
        return t >= windowStart_ && t < windowEnd_;
    }

    /** Member of @p set with the smallest key, lowest index on a tie. */
    template <typename Key>
    static int
    earliest(const IndexSet &set, Key &&key)
    {
        int best = -1;
        Tick best_key = 0;
        set.forEach([&](std::size_t i) {
            const int member = static_cast<int>(i);
            const Tick k = key(member);
            if (best < 0 || k < best_key) {
                best = member;
                best_key = k;
            }
        });
        return best;
    }

    void
    finishPerModule(Metrics &out)
    {
        const auto m = idx(numModules_);
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

    // Loop-invariant configuration, copied so the flattened driver
    // loops can keep it in registers.
    Tick memoryRatio_;
    Tick processorCycle_;
    int numProcessors_;
    int numModules_;
    int inputCapacity_;
    int outputCapacity_;
    bool procsFirst_;
    bool random_;
    bool perModule_;
    Tick windowStart_;
    Tick windowEnd_;

    std::vector<int> procTarget_; //!< module of the outstanding request
    std::vector<Tick> procIssue_; //!< issue tick of the outstanding request
    std::vector<int> modServing_;   //!< processor the module serves
    std::vector<Tick> modAccessStart_;

    // Buffered organization only (otherwise empty and untouched).
    std::vector<std::uint32_t> modAccessing_; //!< server busy
    std::vector<std::deque<int>> inputQueues_; //!< waiting request procs
    std::vector<std::deque<Response>> outputQueues_;

    std::vector<Completion> completions_;
    std::size_t completionHead_ = 0;
    std::size_t completionCount_ = 0;
    Tick lastCompletionDue_ = 0;

    /**
     * candProcs_ = waiting processors whose target can accept,
     * candMods_ = modules holding a deliverable response. The flag
     * arrays are uint32_t, not char: char stores may legally alias
     * anything, so each one would force the optimizer to reload every
     * cached pointer in FastStat's flattened driver loop.
     */
    IndexSet candProcs_;
    IndexSet candMods_;
    std::vector<IndexSet> waiterSets_; //!< per module: waiting procs
    std::vector<std::uint32_t> modCanAccept_;
    std::vector<std::uint32_t> modHasResponse_;

    std::uint64_t busBusy_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t accessCycles_ = 0;
    std::vector<std::uint64_t> perProcCompleted_;

    // Per-module busy ticks and queue-depth integral (collectPerModule;
    // otherwise empty and untouched).
    std::vector<std::uint64_t> perModBusy_;
    std::vector<std::uint64_t> perModDepth_;
    std::vector<std::uint64_t> perModDepthArea_;
    std::vector<Tick> perModDepthSince_;
    std::vector<std::uint64_t> perModDepthMax_;

    // Latency distributions (collectLatency; otherwise empty and
    // untouched): procServiceStart_[p] is the tick module service
    // began for p's outstanding request.
    std::vector<Tick> procServiceStart_;
    std::optional<Histogram> latWaitHist_;
    std::optional<Histogram> latResidenceHist_;
    const TickBins *latTickBins_ = nullptr; //!< their integer-tick bins
};

} // namespace sbn

#endif // SBN_CORE_BUS_MACHINE_HH
