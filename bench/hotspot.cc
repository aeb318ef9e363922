/**
 * @file
 * Hot-spot workload scenario (extension beyond paper hypothesis (e)):
 * saturation bandwidth vs the hot-spot fraction h.
 *
 * One module absorbs an extra fraction h of all memory traffic
 * (workload pattern HotSpot: the hot module's total share is
 * h + (1-h)/m); the rest of the system is the paper's saturated
 * baseline (p = 1). As h grows the hot module serializes the machine
 * and EBW collapses toward the single-module bound, buffered or not -
 * the classic hot-spot result for bus-based multiprocessors.
 *
 * The h sweep is a SweepSpec workload axis, so --shard=i/N (and the
 * rest of the bench shard flags) work here exactly as for the paper
 * figures; merged shard output is byte-identical to the serial run.
 *
 * A small-(n, m) cross-check column pins the simulator against the
 * generalized occupancy-chain model (workload/analytic.hh) under the
 * chain's hypotheses (memory priority, p = 1).
 */

#include "bench_common.hh"

#include "workload/analytic.hh"

namespace {

constexpr double kHs[] = {0.0, 0.1, 0.2, 0.3, 0.4,
                          0.5, 0.6, 0.7, 0.8, 0.9};

void
printSaturationCurve()
{
    using namespace sbn;
    using namespace sbn::bench;

    TextTable table("\nSaturation EBW vs hot-spot fraction h "
                    "(p = 1, r = 8, priority to processors)");
    // The hot module's total share h + (1-h)/m depends on m: print
    // it per system width.
    table.setHeader({"h", "share% m=8", "n=8 m=8", "n=8 m=8 buf",
                     "share% m=16", "n=16 m=16"});

    // One grid: (n, buffered) x h, h innermost.
    SweepSpec spec;
    spec.base = simConfig(8, 8, 8,
                          ArbitrationPolicy::ProcessorPriority, false);
    spec.hotFractions.assign(std::begin(kHs), std::end(kHs));
    spec.buffering = {false, true};
    const std::vector<double> small = sweepEbw(spec);

    SweepSpec wide = spec;
    wide.base.numProcessors = 16;
    wide.base.numModules = 16;
    wide.buffering = {};
    const std::vector<double> large = sweepEbw(wide);

    const std::size_t num_hs = std::size(kHs);
    for (std::size_t i = 0; i < num_hs; ++i) {
        const auto share = [&](int m) {
            return 100.0 * (kHs[i] + (1.0 - kHs[i]) / m);
        };
        table.addNumericRow(
            TextTable::formatFixed(kHs[i], 1),
            {share(8), small[i], small[num_hs + i], share(16),
             large[i]});
    }
    table.print(std::cout);
    std::printf("shape: h = 0 is the uniform baseline; EBW falls "
                "monotonically toward the\nsingle-module bound as the "
                "hot module serializes the machine. Buffers keep\n"
                "an edge but cannot remove the serialization.\n");
}

void
printLatencyTails()
{
    using namespace sbn;
    using namespace sbn::bench;

    if (shardMode().active)
        return; // serial add-on column, cheap enough to skip sharding

    std::printf("\nPer-request wait-time distribution vs h (n=8, m=8, "
                "r=8, p=1, unbuffered):\nquantiles in bus cycles from "
                "latency histograms merged over 4 replications\n"
                "(config.collectLatency; see docs/observability.md).\n");
    TextTable table;
    table.setHeader({"h", "mean", "p50", "p90", "p99", "max"});

    for (const double h : {0.0, 0.4, 0.8}) {
        Histogram wait = makeLatencyHistogram();
        for (std::uint64_t rep = 0; rep < 4; ++rep) {
            SystemConfig cfg = simConfig(
                8, 8, 8, ArbitrationPolicy::ProcessorPriority, false);
            cfg.workload.pattern = ReferencePattern::HotSpot;
            cfg.workload.hotFraction = h;
            cfg.measureCycles = 100000;
            cfg.collectLatency = true;
            cfg.seed += rep;
            const Metrics m = runOnce(cfg);
            wait.merge(*m.latencyWait);
        }
        table.addNumericRow(TextTable::formatFixed(h, 1),
                            {wait.mean(), wait.quantile(0.50),
                             wait.quantile(0.90), wait.quantile(0.99),
                             wait.maxSample()});
    }
    table.print(std::cout);
    std::printf("shape: the mean hides the damage - as h grows the "
                "p99/max tail stretches far\nfaster than the median "
                "while non-hot requests still complete quickly.\n");
}

void
printAnalyticCrossCheck()
{
    using namespace sbn;
    using namespace sbn::bench;

    std::printf("\nAnalytic cross-check (n=4, m=4, r=4, memory "
                "priority, p=1): simulator vs the\ngeneralized "
                "occupancy chain over module-selection probabilities "
                "(docs/workloads.md).\n");
    TextTable table;
    table.setHeader({"h", "sim EBW", "chain EBW", "sim/chain"});

    DiffTracker diff;
    for (const double h : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        SystemConfig cfg = simConfig(
            4, 4, 4, ArbitrationPolicy::MemoryPriority, false);
        cfg.workload.pattern = ReferencePattern::HotSpot;
        cfg.workload.hotFraction = h;

        WorkloadConfig workload = cfg.workload;
        const double sim = sbn::bench::shardMode().active
                               ? std::numeric_limits<double>::quiet_NaN()
                               : runEbw(cfg);
        const double chain =
            workloadExactMemprioEbw(4, 4, 4, workload);
        table.addNumericRow(TextTable::formatFixed(h, 1),
                            {sim, chain, sim / chain});
        diff.add(chain, sim);
    }
    table.print(std::cout);
    diff.report("sim vs generalized chain");
}

void
printReproduction()
{
    using namespace sbn::bench;
    banner("Hot-spot workload",
           "Scenario study (not a paper artifact): saturation "
           "bandwidth vs hot-spot fraction h,\nwith an exact "
           "generalized-occupancy-chain cross-check at small (n, m).");
    printSaturationCurve();
    printLatencyTails();
    printAnalyticCrossCheck();
}

void
BM_HotSpotSim(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    const double h = static_cast<double>(state.range(0)) / 10.0;
    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            8, 8, 8, ArbitrationPolicy::ProcessorPriority, false);
        cfg.workload.pattern = ReferencePattern::HotSpot;
        cfg.workload.hotFraction = h;
        cfg.warmupCycles = 0;
        cfg.measureCycles = 200000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
        cycles += cfg.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HotSpotSim)->Arg(0)->Arg(5)->Arg(9)->Unit(
    benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
