/**
 * @file
 * Hot-spot traffic study (extension beyond paper hypothesis (e)):
 * skew the memory-reference distribution so one module receives a
 * growing share of the traffic and watch the single bus degrade,
 * with and without Section-6 buffers.
 *
 *   ./hotspot_study --n=8 --m=8 --r=8 --weights=1,2,4,8,16
 *
 * The uniform-reference assumption is the best case for every
 * interconnect in this family; this example quantifies how much of
 * the paper's headline EBW survives realistic skew.
 */

#include <cstdio>
#include <iostream>

#include "analytic/crossbar.hh"
#include "core/experiment.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace sbn;

    const CommandLine cli(
        argc, argv,
        {{"n", "processors (default 8)"},
         {"m", "memory modules (default 8)"},
         {"r", "memory/bus cycle ratio (default 8)"},
         {"weights", "comma-separated hot-module weights to sweep "
                     "(default 1,2,4,8,16)"}});

    const int n = static_cast<int>(cli.getInt("n", 8));
    const int m = static_cast<int>(cli.getInt("m", 8));
    const int r = static_cast<int>(cli.getInt("r", 8));
    const auto hot_weights =
        cli.getIntList("weights", {1, 2, 4, 8, 16});

    std::printf("hot-spot study, %dx%d, r=%d, p=1: module 0 weighted "
                "w, others 1\n(uniform crossbar EBW for context: "
                "%.3f)\n\n",
                n, m, r, crossbarEbw(n, m));

    TextTable table;
    table.setHeader({"hot weight", "hot traffic share %",
                     "EBW unbuffered", "EBW buffered", "buffered "
                     "gain %", "hot module util"});

    for (auto w64 : hot_weights) {
        const auto w = static_cast<double>(w64);
        std::vector<double> weights(m, 1.0);
        weights[0] = w;
        const double share = w / (w + (m - 1));

        SystemConfig cfg;
        cfg.numProcessors = n;
        cfg.numModules = m;
        cfg.memoryRatio = r;
        cfg.workload.pattern = ReferencePattern::Weighted;
        cfg.workload.moduleWeights = weights;
        cfg.measureCycles = 300000;

        cfg.buffered = false;
        const Metrics plain = runOnce(cfg);
        cfg.buffered = true;
        const Metrics buf = runOnce(cfg);

        // Per-module utilization of the hot module approaches 1 as it
        // becomes the bottleneck; approximate it from the aggregate:
        // total access cycles concentrate on module 0.
        table.addRow(
            {TextTable::formatFixed(w, 0),
             TextTable::formatFixed(100.0 * share, 1),
             TextTable::formatFixed(plain.ebw, 3),
             TextTable::formatFixed(buf.ebw, 3),
             TextTable::formatFixed(
                 100.0 * (buf.ebw / plain.ebw - 1.0), 1),
             TextTable::formatFixed(
                 buf.meanModuleUtilization * m * share, 3)});
    }
    table.print(std::cout);

    std::printf("\nupper bound with a single hot module receiving "
                "share s of the traffic:\nEBW <= (r+2)/(r*s) (the hot "
                "module serializes its share). Buffering keeps\nthe "
                "module fed back-to-back but cannot beat that bound.\n");
    return 0;
}
