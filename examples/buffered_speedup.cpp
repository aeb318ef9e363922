/**
 * @file
 * Buffering study: quantify what the Section-6 input/output buffers
 * buy across the memory/bus speed ratio, including the shift in the
 * wait from issue to service start.
 *
 *   ./buffered_speedup --n=8 --m=16 --rs=4,8,12,16,20,24
 */

#include <cstdio>
#include <iostream>

#include "core/experiment.hh"
#include "exec/parallel_runner.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace sbn;

    const CommandLine cli(
        argc, argv,
        {{"n", "processors (default 8)"},
         {"m", "memory modules (default 16)"},
         {"rs", "comma-separated r values (default 4,8,12,16,20,24)"},
         {"p", "request probability (default 1.0)"},
         {"threads", "worker threads for the sweep (default: all "
                     "hardware threads)"},
         {"histogram", "also print wait (issue to service start) "
                       "histograms at the last r"}});

    const int n = static_cast<int>(cli.getInt("n", 8));
    const int m = static_cast<int>(cli.getInt("m", 16));
    const auto rs = cli.getIntList("rs", {4, 8, 12, 16, 20, 24});
    const double p = cli.getDouble("p", 1.0);

    std::printf("buffering speedup, %dx%d, p = %.2f, processor "
                "priority\n\n",
                n, m, p);

    TextTable table;
    table.setHeader({"r", "EBW plain", "EBW buffered", "speedup %",
                     "wait plain", "wait buffered", "module util "
                     "plain", "module util buf"});

    // Materialize the (r, buffered) grid and run every point through
    // the execution layer; full metrics come back in grid order.
    std::vector<SystemConfig> points;
    for (auto r64 : rs) {
        SystemConfig cfg;
        cfg.numProcessors = n;
        cfg.numModules = m;
        cfg.memoryRatio = static_cast<int>(r64);
        cfg.requestProbability = p;
        cfg.measureCycles = 300000;
        cfg.buffered = false;
        points.push_back(cfg);
        cfg.buffered = true;
        points.push_back(cfg);
    }
    const long threads_arg = cli.getInt("threads", 0);
    if (threads_arg < 0 || threads_arg > 4096) {
        std::fprintf(stderr, "--threads must be in [0, 4096]\n");
        return 2;
    }
    ParallelRunner runner(static_cast<unsigned>(threads_arg));
    const std::vector<Metrics> metrics = runner.map<Metrics>(
        points.size(),
        [&](std::size_t i) { return runOnce(points[i]); });

    for (std::size_t i = 0; i < rs.size(); ++i) {
        const int r = static_cast<int>(rs[i]);
        const Metrics &plain = metrics[2 * i];
        const Metrics &buf = metrics[2 * i + 1];

        table.addRow(
            {std::to_string(r),
             TextTable::formatFixed(plain.ebw, 3),
             TextTable::formatFixed(buf.ebw, 3),
             TextTable::formatFixed(
                 100.0 * (buf.ebw / plain.ebw - 1.0), 1),
             TextTable::formatFixed(plain.meanWaitCycles, 1),
             TextTable::formatFixed(buf.meanWaitCycles, 1),
             TextTable::formatFixed(plain.meanModuleUtilization, 3),
             TextTable::formatFixed(buf.meanModuleUtilization, 3)});
    }
    table.print(std::cout);

    if (cli.getBool("histogram", false) && !rs.empty()) {
        const int r = static_cast<int>(rs.back());
        for (bool buffered : {false, true}) {
            SystemConfig cfg;
            cfg.numProcessors = n;
            cfg.numModules = m;
            cfg.memoryRatio = r;
            cfg.requestProbability = p;
            cfg.buffered = buffered;
            cfg.collectLatency = true;
            cfg.measureCycles = 300000;
            const Metrics metrics = runOnce(cfg);
            std::printf("\nwait from issue to service start, r=%d, "
                        "%s:\n%s",
                        r, buffered ? "buffered" : "plain",
                        metrics.latencyWait->render().c_str());
        }
    }

    std::printf("\nnote: buffered waits can be LONGER per request "
                "while EBW is higher - requests\nqueue inside modules "
                "instead of blocking the processors' issue slots.\n");
    return 0;
}
