/**
 * @file
 * Reproduces paper Table 1: EBW exact values via the Section 3.1.1
 * Markov chain, priority to memory modules, p = 1, r = min(n, m) + 7,
 * n and m in {2, 4, 6, 8}.
 */

#include "bench_common.hh"

#include <algorithm>

#include "analytic/memprio.hh"

namespace {

constexpr int kSizes[4] = {2, 4, 6, 8};
constexpr double kPaper[4][4] = {
    {1.417, 1.625, 1.694, 1.729},
    {1.625, 2.308, 2.603, 2.761},
    {1.694, 2.603, 3.164, 3.469},
    {1.729, 2.761, 3.469, 3.988},
};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Table 1",
           "EBW exact values, priority to memory modules, "
           "r = min(n,m)+7 (paper p.420). Cells: paper / ours.");

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
            const double ours = memprioExactEbw(n, m, r);
            diff.add(kPaper[i][j], ours);
            row.push_back(TextTable::formatFixed(kPaper[i][j], 3) +
                          " / " + TextTable::formatFixed(ours, 3));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    diff.report("Table 1");
}

void
BM_MemPrioExactChain(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    const int r = std::min(n, m) + 7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sbn::memprioExactEbw(n, m, r));
    }
}
BENCHMARK(BM_MemPrioExactChain)
    ->Args({2, 2})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Args({8, 16})
    ->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
