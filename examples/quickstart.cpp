/**
 * @file
 * Quickstart: build one multiplexed single-bus system, run it, and
 * print every metric the library measures.
 *
 *   ./quickstart --n=8 --m=16 --r=8 --p=1.0 --policy=proc \
 *                --buffered --seed=42
 */

#include <cstdio>
#include <iostream>

#include "core/experiment.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace sbn;

    const CommandLine cli(
        argc, argv,
        {{"n", "number of processors (default 8)"},
         {"m", "number of memory modules (default 16)"},
         {"r", "memory cycle / bus cycle ratio (default 8)"},
         {"p", "re-request probability (default 1.0)"},
         {"policy", "bus priority: proc | mem (default proc)"},
         {"buffered", "enable Section-6 memory buffers"},
         {"cycles", "measured bus cycles (default 400000)"},
         {"seed", "RNG seed (default 1)"},
         {"histogram", "print the wait (issue to service start) "
                       "histogram"}});

    SystemConfig cfg;
    cfg.numProcessors = static_cast<int>(cli.getInt("n", 8));
    cfg.numModules = static_cast<int>(cli.getInt("m", 16));
    cfg.memoryRatio = static_cast<int>(cli.getInt("r", 8));
    cfg.requestProbability = cli.getDouble("p", 1.0);
    cfg.policy = cli.getString("policy", "proc") == "mem"
                     ? ArbitrationPolicy::MemoryPriority
                     : ArbitrationPolicy::ProcessorPriority;
    cfg.buffered = cli.getBool("buffered", false);
    cfg.measureCycles = static_cast<Tick>(cli.getInt("cycles", 400000));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 1));
    cfg.collectLatency = cli.getBool("histogram", false);

    std::printf("multiplexed single-bus system: n=%d processors, m=%d "
                "modules, r=%d, p=%.2f,\n%s priority, %s\n\n",
                cfg.numProcessors, cfg.numModules, cfg.memoryRatio,
                cfg.requestProbability,
                cfg.policy == ArbitrationPolicy::ProcessorPriority
                    ? "processor"
                    : "memory",
                cfg.buffered ? "buffered memory modules" : "unbuffered");

    const Metrics m = runOnce(cfg);

    TextTable table("steady-state metrics over " +
                    std::to_string(m.measuredCycles) + " bus cycles");
    table.setHeader({"metric", "value"});
    auto add = [&](const char *name, double v, int prec = 4) {
        table.addRow({name, TextTable::formatFixed(v, prec)});
    };
    add("EBW (services per processor cycle)", m.ebw);
    add("EBW ceiling (r+2)/2", cfg.maxEbw(), 1);
    add("EBW via Pb*(r+2)/2", m.ebwFromBusUtilization);
    add("bus utilization Pb", m.busUtilization);
    add("mean module utilization", m.meanModuleUtilization);
    add("processor efficiency EBW/n", m.processorEfficiency);
    add("mean wait (bus cycles)", m.meanWaitCycles, 2);
    add("mean service span (bus cycles)", m.meanServiceCycles, 2);
    table.addRow({"completed requests",
                  std::to_string(m.completedRequests)});
    table.print(std::cout);

    // A replicated confidence interval on EBW.
    const Estimate est = replicateEbw(cfg, 5);
    std::printf("\nEBW over 5 independent replications: %.4f +/- %.4f "
                "(95%% CI)\n",
                est.mean, est.halfWidth);

    if (m.latencyWait) {
        std::printf("\nwait from issue to service start (bus "
                    "cycles):\n%s",
                    m.latencyWait->render().c_str());
    }
    return 0;
}
