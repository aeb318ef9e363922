/**
 * @file
 * Reproduces paper Table 2: EBW via the Section 3.2 combinational
 * approximation (non-symmetric expression), priority to memory
 * modules, r = min(n, m) + 7. Also prints the symmetrized variant
 * (n* = min, m* = max) suggested in Section 5 and the error of each
 * against the exact chain.
 */

#include "bench_common.hh"

#include <algorithm>

#include "analytic/memprio.hh"

namespace {

constexpr int kSizes[4] = {2, 4, 6, 8};
constexpr double kPaper[4][4] = {
    {1.417, 1.625, 1.694, 1.729},
    {1.729, 2.392, 2.653, 2.792},
    {1.807, 2.778, 3.305, 3.570},
    {1.827, 2.987, 3.692, 4.178},
};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Table 2",
           "EBW approximate (combinational) values, priority to "
           "memory modules, r = min(n,m)+7. Cells: paper / ours.");

    TextTable table;
    std::vector<std::string> header{"n \\ m"};
    for (int m : kSizes)
        header.push_back(std::to_string(m));
    table.setHeader(header);

    DiffTracker diff;
    for (int i = 0; i < 4; ++i) {
        std::vector<std::string> row{std::to_string(kSizes[i])};
        for (int j = 0; j < 4; ++j) {
            const int n = kSizes[i];
            const int m = kSizes[j];
            const int r = std::min(n, m) + 7;
            const double ours = memprioApproxEbw(n, m, r);
            diff.add(kPaper[i][j], ours);
            row.push_back(TextTable::formatFixed(kPaper[i][j], 3) +
                          " / " + TextTable::formatFixed(ours, 3));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    diff.report("Table 2");

    // Section 5 remark: the exact results are symmetric, suggesting
    // the symmetrized approximation. Compare both against the exact
    // chain.
    std::printf("\nApproximation quality against the exact chain "
                "(max |rel diff| over the grid):\n");
    double worst_plain = 0.0, worst_sym = 0.0;
    for (int n : kSizes) {
        for (int m : kSizes) {
            const int r = std::min(n, m) + 7;
            const double exact = memprioExactEbw(n, m, r);
            worst_plain = std::max(
                worst_plain,
                std::abs(memprioApproxEbw(n, m, r) - exact) / exact);
            worst_sym = std::max(
                worst_sym,
                std::abs(memprioApproxSymmetricEbw(n, m, r) - exact) /
                    exact);
        }
    }
    std::printf("  non-symmetric expression: %.2f%% (paper: < 9%%)\n",
                100.0 * worst_plain);
    std::printf("  symmetrized (n*,m*):      %.2f%% (paper: 5-6%% in "
                "the r > m > n range)\n",
                100.0 * worst_sym);
}

void
BM_MemPrioApprox(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sbn::memprioApproxEbw(n, m, std::min(n, m) + 7));
    }
}
BENCHMARK(BM_MemPrioApprox)->Args({8, 8})->Args({16, 16});

} // namespace

SBN_BENCH_MAIN(printReproduction)
