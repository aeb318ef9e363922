/**
 * @file
 * Reproduces paper Figure 6: processor utilization EBW/(n*p) vs p for
 * the BUFFERED system, n = 8, m = 16, several r values, alongside the
 * unbuffered utilization so the buffering benefit under partial load
 * is visible (Section 7: the benefit shrinks as p decreases).
 */

#include "bench_common.hh"

namespace {

constexpr int kRs[] = {4, 8, 12, 16};
constexpr double kPs[] = {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Figure 6",
           "Processor utilization EBW/(n*p) vs p for the buffered "
           "system; n = 8, m = 16,\npriority to processors. Cells: "
           "buffered (unbuffered).");

    TextTable table;
    std::vector<std::string> header{"p"};
    for (int r : kRs)
        header.push_back("r=" + std::to_string(r));
    table.setHeader(header);

    // One adaptive-precision sweep over the full r x p x buffering
    // grid (materialized order: r, then p, then buffering
    // true/false): per-point replication counts grow until the CI
    // half-width is within 1% of the mean or the cap.
    SweepSpec spec;
    spec.base = simConfig(8, 16, kRs[0],
                          ArbitrationPolicy::ProcessorPriority, false);
    spec.base.warmupCycles = 5000;
    spec.base.measureCycles = 100000;
    spec.memoryRatios.assign(std::begin(kRs), std::end(kRs));
    spec.requestProbabilities.assign(std::begin(kPs), std::end(kPs));
    spec.buffering = {true, false};

    PrecisionTarget target;
    target.relative = 0.01;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;
    const std::vector<AdaptiveEstimate> grid =
        adaptiveSweepEbw(spec, target, schedule);

    const std::size_t num_ps = std::size(kPs);
    for (std::size_t i = 0; i < num_ps; ++i) {
        std::vector<std::string> row{TextTable::formatFixed(kPs[i], 1)};
        for (std::size_t j = 0; j < std::size(kRs); ++j) {
            const std::size_t cell = 2 * (j * num_ps + i);
            const double scale = 8.0 * kPs[i];
            row.push_back(
                TextTable::formatFixed(
                    grid[cell].estimate.mean / scale, 3) +
                " (" +
                TextTable::formatFixed(
                    grid[cell + 1].estimate.mean / scale, 3) +
                ")");
        }
        table.addRow(row);
    }
    table.print(std::cout);

    reportAdaptivity(grid);

    std::printf("shape: buffered >= unbuffered everywhere; the gap "
                "narrows as p decreases\n(less interference to "
                "remove), matching Section 7.\n");
}

void
BM_Fig6Point(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            8, 16, 12, ArbitrationPolicy::ProcessorPriority, true, 0.5);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 50000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
    }
}
BENCHMARK(BM_Fig6Point)->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
