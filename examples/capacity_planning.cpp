/**
 * @file
 * Capacity planning: the paper's Section 7 design workflow. Given a
 * crossbar reference system (expensive: n*m crosspoints), find the
 * cheapest multiplexed single-bus configuration (n+m connections)
 * that matches its effective bandwidth, trading extra memory modules
 * and memory/bus speed ratio - with and without Section-6 buffers.
 *
 *   ./capacity_planning --n=8 --target=8 --max-m=24 --max-r=24
 *
 * finds configurations matching the 8x8 crossbar (the paper's
 * conclusion: m=14, r=8 unbuffered; fewer modules suffice buffered).
 */

#include <cstdio>
#include <iostream>

#include "analytic/crossbar.hh"
#include "core/experiment.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace sbn;

    const CommandLine cli(
        argc, argv,
        {{"n", "processors (default 8)"},
         {"target", "crossbar is n x target (default = n)"},
         {"max-m", "largest module count to try (default 24)"},
         {"max-r", "largest speed ratio to try (default 24)"},
         {"tolerance", "match tolerance, fraction (default 0.01)"},
         {"threads", "worker threads for the design-space sweep "
                     "(default: all hardware threads)"}});

    const int n = static_cast<int>(cli.getInt("n", 8));
    const int xm = static_cast<int>(cli.getInt("target", n));
    const int max_m = static_cast<int>(cli.getInt("max-m", 24));
    const int max_r = static_cast<int>(cli.getInt("max-r", 24));
    const double tol = cli.getDouble("tolerance", 0.01);
    const long threads_arg = cli.getInt("threads", 0);
    if (threads_arg < 0 || threads_arg > 4096) {
        std::fprintf(stderr, "--threads must be in [0, 4096]\n");
        return 2;
    }
    ParallelRunner runner(static_cast<unsigned>(threads_arg));

    const double target = crossbarEbw(n, xm);
    std::printf("reference: %dx%d crossbar, EBW = %.3f (%d crosspoints)"
                "\ngoal: single-bus EBW >= %.3f (%.0f%% of target)\n\n",
                n, xm, target, n * xm, target * (1.0 - tol),
                100.0 * (1.0 - tol));

    for (bool buffered : {false, true}) {
        TextTable table(buffered ? "buffered memory modules"
                                 : "unbuffered");
        table.setHeader(
            {"m", "min r matching", "EBW there", "links n+m"});
        // The whole m x r design space runs as one parallel sweep;
        // the serial early-break per row becomes a scan of the
        // already-computed row (same answers, all cores busy).
        SweepSpec spec;
        spec.base.numProcessors = n;
        spec.base.buffered = buffered;
        spec.base.measureCycles = 200000;
        for (int m = n / 2; m <= max_m; m += 2)
            spec.modules.push_back(m);
        for (int r = 2; r <= max_r; r += 2)
            spec.memoryRatios.push_back(r);
        const std::vector<SystemConfig> points = spec.materialize();
        const std::vector<double> grid = runner.map<double>(
            points.size(),
            [&](std::size_t i) { return runEbw(points[i]); });
        const std::size_t num_rs = spec.memoryRatios.size();

        int found_any = 0;
        for (std::size_t mi = 0; mi < spec.modules.size(); ++mi) {
            const int m = spec.modules[mi];
            int best_r = -1;
            double best_e = 0.0;
            for (std::size_t ri = 0; ri < num_rs; ++ri) {
                const double e = grid[mi * num_rs + ri];
                if (e >= target * (1.0 - tol)) {
                    best_r = spec.memoryRatios[ri];
                    best_e = e;
                    break;
                }
                best_e = std::max(best_e, e);
            }
            if (best_r > 0) {
                table.addRow({std::to_string(m), std::to_string(best_r),
                              TextTable::formatFixed(best_e, 3),
                              std::to_string(n + m)});
                ++found_any;
            } else {
                table.addRow({std::to_string(m), "-",
                              TextTable::formatFixed(best_e, 3),
                              std::to_string(n + m)});
            }
        }
        table.print(std::cout);
        if (!found_any)
            std::printf("no matching configuration up to m=%d, r=%d\n",
                        max_m, max_r);
        std::printf("\n");
    }

    std::printf("reading: each row gives the smallest memory/bus speed "
                "ratio r at which m modules\nmatch the crossbar; '-' "
                "means unreachable. Buffering reaches the target with\n"
                "fewer modules or a smaller ratio (Section 7: a "
                "buffered bus with r=18 performs\nlike a 16x16 "
                "crossbar).\n");
    return 0;
}
