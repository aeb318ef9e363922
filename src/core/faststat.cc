#include "core/faststat.hh"

#include <algorithm>
#include <cmath>

#include "core/fingerprint.hh"

namespace sbn {

FastStatPolicy::FastStatPolicy(const SystemConfig &cfg, BusMachine &bus)
    : workload_(cfg.workload, cfg.numProcessors, cfg.numModules,
                cfg.requestProbability),
      pc_(static_cast<Tick>(cfg.processorCycle()))
{
    // Stream family keyed by the full config fingerprint (seed
    // included): streams 0..n-1 drive the processors, stream n the
    // arbitration tie-breaks. Any config difference re-keys every
    // stream at once.
    const std::uint64_t key = configFingerprint(cfg);
    const auto n = static_cast<std::size_t>(cfg.numProcessors);
    procRng_.reserve(n);
    thinkLog1mP_.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        procRng_.emplace_back(key, static_cast<std::uint64_t>(p));
        const double prob = workload_.thinkProbability(static_cast<int>(p));
        thinkLog1mP_.push_back(prob > 0.0 && prob < 1.0 ? std::log1p(-prob)
                                                        : 0.0);
    }
    arbRng_ = CounterRng(key, static_cast<std::uint64_t>(n));
    thinkHeap_.reserve(n);

    for (int p = 0; p < cfg.numProcessors; ++p)
        deliver(bus, p, 0);
}

void
FastStatPolicy::deliver(BusMachine &bus, int proc, Tick now)
{
    ++thinkDraws_;
    const double p = workload_.thinkProbability(proc);
    if (p <= 0.0) {
        // Never issues again; park outside every structure (the exact
        // kernel redraws forever, statistically the same silence).
        return;
    }
    // Geometric think span, with log1p(-p) taken once per processor.
    const auto i = static_cast<std::size_t>(proc);
    const std::uint64_t k =
        p >= 1.0 ? 0 : procRng_[i].geometricWithLog(thinkLog1mP_[i]);
    if (k == 0) {
        issue(bus, proc, now);
        return;
    }
    // A wake past the window can never fire (the driver loop stops
    // first); parking it keeps k * pc_ from overflowing for tiny p.
    if (k > (bus.windowEnd() - now) / static_cast<std::uint64_t>(pc_))
        return;
    // (tick, proc) pairs compare lexicographically, so equal-tick
    // wake-ups pop in processor index order - a total, reproducible
    // order with no dependence on insertion history.
    thinkHeap_.emplace_back(now + static_cast<Tick>(k) * pc_, proc);
    std::push_heap(thinkHeap_.begin(), thinkHeap_.end(), std::greater<>());
}

void
FastStatPolicy::issue(BusMachine &bus, int proc, Tick now)
{
    bus.issue(proc,
              workload_.sampleTarget(
                  proc, procRng_[static_cast<std::size_t>(proc)]),
              now);
}

void
FastStatPolicy::drawThinks(BusMachine &bus, Tick now)
{
    while (!thinkHeap_.empty() && thinkHeap_.front().first == now) {
        std::pop_heap(thinkHeap_.begin(), thinkHeap_.end(),
                      std::greater<>());
        const int proc = thinkHeap_.back().second;
        thinkHeap_.pop_back();
        // The geometric draw already placed the issue at this tick; no
        // redraw happens on wake.
        issue(bus, proc, now);
    }
}

void
FastStatPolicy::addResidence(Tick residence)
{
    const std::uint64_t wait = residence - pc_;
    waitSum_ += wait;
    waitSumSq_ += static_cast<unsigned __int128>(wait) * wait;
    if (wait < waitMin_)
        waitMin_ = wait;
    if (wait > waitMax_)
        waitMax_ = wait;
}

Metrics
FastStatPolicy::finish(BusMachine &bus, std::uint64_t)
{
    // Summarize the integer wait moments: mean = sum/n and
    // m2 = sumsq - sum^2/n (exact sums, so the subtraction is safe).
    const std::uint64_t completed = bus.completed();
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
    return bus.finish(
        thinkDraws_, waitStats,
        completed != 0 ? waitStats.mean() + static_cast<double>(pc_)
                       : 0.0);
}

template class BusKernel<FastStatPolicy>;

} // namespace sbn
