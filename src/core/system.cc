#include "core/system.hh"

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

CycleSkipPolicy::CycleSkipPolicy(const SystemConfig &cfg, BusMachine &)
    : rng_(cfg.seed),
      workload_(cfg.workload, cfg.numProcessors, cfg.numModules,
                cfg.requestProbability),
      pc_(static_cast<Tick>(cfg.processorCycle()))
{
    // Pre-size every container the hot path touches so steady-state
    // simulation performs no allocations (asserted by the perf tests
    // via scratchCapacities()).
    const auto pc = static_cast<std::size_t>(pc_);
    thinkBuckets_.resize(pc);
    for (auto &bucket : thinkBuckets_)
        bucket.reserve(static_cast<std::size_t>(cfg.numProcessors));
    thinkBucketDue_.assign(pc, 0);
    thinkDue_.resize(pc);

    for (int p = 0; p < cfg.numProcessors; ++p)
        thinkBuckets_[0].push_back(p);
    thinkDue_.insert(0);
    thinkingCount_ = cfg.numProcessors;
    thinkNextDue_ = 0;
}

void
CycleSkipPolicy::appendScratchCapacities(
    std::vector<std::size_t> &caps) const
{
    for (const auto &bucket : thinkBuckets_)
        caps.push_back(bucket.capacity());
}

bool
CycleSkipPolicy::drawProcessor(BusMachine &bus, int proc, Tick now)
{
    ++thinkDraws_;
    if (!rng_.bernoulli(workload_.thinkProbability(proc))) {
        // One processor cycle of internal work, then draw again
        // (hypothesis (f): requests only start on processor-cycle
        // boundaries).
        return false;
    }
    bus.issue(proc, workload_.sampleTarget(proc, rng_), now);
    return true;
}

void
CycleSkipPolicy::enterThinking(int proc, Tick now)
{
    const Tick due = now + pc_;
    const auto idx = static_cast<std::size_t>(due % pc_);
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
CycleSkipPolicy::deliver(BusMachine &bus, int proc, Tick now)
{
    if (!drawProcessor(bus, proc, now))
        enterThinking(proc, now);
}

void
CycleSkipPolicy::drawThinks(BusMachine &bus, Tick now)
{
    const std::size_t idx = thinkNextIdx_;
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
        if (!drawProcessor(bus, proc, now))
            bucket[keep++] = proc;
    }
    bucket.resize(keep);
    thinkBucketDue_[idx] = now + pc_;
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
                                      : pc_ - static_cast<Tick>(idx - next));
}

void
CycleSkipPolicy::addResidence(Tick residence)
{
    const auto service = static_cast<double>(residence);
    serviceStats_.add(service);
    waitStats_.add(service - static_cast<double>(pc_));
}

Metrics
CycleSkipPolicy::finish(BusMachine &bus, std::uint64_t dispatched)
{
    telemetryAdd(TelemetryCounter::SimHeapEvents, dispatched);
    telemetryAdd(TelemetryCounter::SimCalendarDrains, calendarDrains_);
    return bus.finish(thinkDraws_, waitStats_, serviceStats_.mean());
}

template class BusKernel<CycleSkipPolicy>;

} // namespace sbn
