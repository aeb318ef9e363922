/**
 * @file
 * Reproduces the Section 6 model-validation experiment: if the
 * constant bus/memory service times of the buffered system are
 * replaced by exponentials, the system becomes a product-form closed
 * queueing network (BCMP) solvable by standard techniques (exact MVA
 * here). The paper reports that this characterization mispredicts
 * the constant-time simulation by MORE THAN 25%, pessimistically.
 */

#include "bench_common.hh"

#include "analytic/detmva.hh"
#include "analytic/mva.hh"

namespace {

constexpr int kNs[] = {4, 8, 16};
constexpr int kMs[] = {2, 4, 8};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Section 6 model validation",
           "EBW: constant-service simulation vs exponential "
           "product-form model (exact MVA).\nPaper claim: "
           "discrepancies exceed 25%, exponential is pessimistic.");

    TextTable table;
    table.setHeader({"n", "m", "r", "sim (const)", "MVA (expo)",
                     "(sim-mva)/mva %", "det-MVA (ext)", "det err %"});

    // The grid is irregular (r depends on m), so materialize the
    // simulation points explicitly and fan them out in input order.
    std::vector<sbn::SystemConfig> points;
    for (int n : kNs)
        for (int m : kMs)
            for (int r : {2 * m, 4 * m})
                points.push_back(simConfig(
                    n, m, r, ArbitrationPolicy::ProcessorPriority,
                    true));
    const std::vector<double> sims = sweepEbw(points);

    double worst = 0.0;
    int worst_n = 0, worst_m = 0, worst_r = 0;
    double worst_det = 0.0;
    bool always_pessimistic = true;
    std::size_t cell = 0;
    for (int n : kNs) {
        for (int m : kMs) {
            for (int r : {2 * m, 4 * m}) {
                const double sim = sims[cell++];
                const double expo = mvaBufferedBus(n, m, r).ebw;
                const double det =
                    mvaBufferedBusDeterministic(n, m, r).ebw;
                const double gap = (sim - expo) / expo;
                const double det_gap = (det - sim) / sim;
                worst_det = std::max(worst_det, std::abs(det_gap));
                if (gap < -1e-3)
                    always_pessimistic = false;
                if (gap > worst) {
                    worst = gap;
                    worst_n = n;
                    worst_m = m;
                    worst_r = r;
                }
                table.addRow({std::to_string(n), std::to_string(m),
                              std::to_string(r),
                              TextTable::formatFixed(sim, 3),
                              TextTable::formatFixed(expo, 3),
                              TextTable::formatFixed(100.0 * gap, 1),
                              TextTable::formatFixed(det, 3),
                              TextTable::formatFixed(
                                  100.0 * det_gap, 1)});
            }
        }
    }
    table.print(std::cout);

    std::printf("\nmax discrepancy: %.1f%% at n=%d m=%d r=%d "
                "(paper: exceeds 25%%)  %s\n",
                100.0 * worst, worst_n, worst_m, worst_r,
                worst > 0.25 ? "REPRODUCED" : "NOT REPRODUCED");
    std::printf("exponential model pessimistic everywhere: %s "
                "(paper: pessimistic)\n",
                always_pessimistic ? "yes" : "NO");
    std::printf("\nThe gap peaks where bus and memory service rates "
                "balance (r ~ 2m): constant\nservice pipelines "
                "deterministically while the exponential model pays "
                "full queueing\nvariance at both resources.\n");
    std::printf("\nExtension (Section 6 open problem): the "
                "deterministic-residual MVA ('det-MVA')\nmodels the "
                "buffered system analytically within %.1f%% over this "
                "grid - the\nanalytical model the paper says is 'not "
                "constructed so far'.\n",
                100.0 * worst_det);
}

void
BM_MvaSolve(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sbn::mvaBufferedBus(n, 8, 16).ebw);
    }
}
BENCHMARK(BM_MvaSolve)->Arg(8)->Arg(64);

} // namespace

SBN_BENCH_MAIN(printReproduction)
