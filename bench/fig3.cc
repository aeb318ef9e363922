/**
 * @file
 * Reproduces paper Figure 3: processor utilization EBW/(n*p) vs the
 * request probability p, for n = 8, m = 16 systems (unbuffered,
 * priority to processors) at several memory/bus ratios r.
 *
 * Shape properties: utilization decreases as p grows (more
 * contention) and increases with r (more bus capacity per processor
 * cycle); at light load EBW/(n*p) -> 1.
 */

#include "bench_common.hh"

namespace {

constexpr int kRs[] = {4, 8, 12, 16};
constexpr double kPs[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                          0.6, 0.7, 0.8, 0.9, 1.0};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Figure 3",
           "Processor utilization EBW/(n*p) vs p; n = 8, m = 16, "
           "unbuffered, priority to processors.");

    TextTable table;
    std::vector<std::string> header{"p"};
    for (int r : kRs)
        header.push_back("r=" + std::to_string(r));
    table.setHeader(header);

    // The whole r x p grid runs as one adaptive-precision sweep
    // (r outer, p inner in the materialized order): shorter
    // replications per point, grown per point until the EBW CI
    // half-width is within 1% of the mean or the cap. Every number is
    // bit-identical at any thread count.
    SweepSpec spec;
    spec.base = simConfig(8, 16, kRs[0],
                          ArbitrationPolicy::ProcessorPriority, false);
    spec.base.warmupCycles = 5000;
    spec.base.measureCycles = 100000;
    spec.memoryRatios.assign(std::begin(kRs), std::end(kRs));
    spec.requestProbabilities.assign(std::begin(kPs), std::end(kPs));

    PrecisionTarget target;
    target.relative = 0.01;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;
    const std::vector<AdaptiveEstimate> grid =
        adaptiveSweepEbw(spec, target, schedule);

    const std::size_t num_ps = std::size(kPs);
    for (std::size_t i = 0; i < num_ps; ++i) {
        std::vector<double> row;
        for (std::size_t j = 0; j < std::size(kRs); ++j)
            row.push_back(grid[j * num_ps + i].estimate.mean /
                          (8.0 * kPs[i]));
        table.addNumericRow(TextTable::formatFixed(kPs[i], 1), row);
    }
    table.print(std::cout);

    reportAdaptivity(grid);
    std::printf("shape: columns decrease in p and increase in r; "
                "p=0.1 row ~ 1.0 (no contention).\n");
}

void
BM_Fig3Point(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg =
            simConfig(8, 16, 8, ArbitrationPolicy::ProcessorPriority,
                      false, 0.5);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 50000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
    }
}
BENCHMARK(BM_Fig3Point)->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
