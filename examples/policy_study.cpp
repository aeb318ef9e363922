/**
 * @file
 * Arbitration-policy study: sweep the memory/bus cycle ratio r and
 * compare the two bus-grant priorities (the paper's g' and g''), in
 * simulation and against the matching analytical models.
 *
 *   ./policy_study --n=8 --m=8 --rs=2,4,8,12,16
 *
 * This reproduces the Section 3 finding that processor priority
 * dominates, and shows how close the Section 3.1.1 / Section 4
 * chains track the simulator.
 */

#include <cstdio>
#include <iostream>

#include "analytic/memprio.hh"
#include "analytic/procprio.hh"
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
         {"rs", "comma-separated r values (default 2,4,8,12,16)"},
         {"cycles", "measured cycles per point (default 300000)"}});

    const int n = static_cast<int>(cli.getInt("n", 8));
    const int m = static_cast<int>(cli.getInt("m", 8));
    const auto rs = cli.getIntList("rs", {2, 4, 8, 12, 16});

    std::printf("bus-grant policy study, %dx%d, p = 1\n\n", n, m);

    TextTable table;
    table.setHeader({"r", "sim g' (proc)", "chain g'", "sim g'' (mem)",
                     "chain g''", "g' gain %"});

    for (auto r64 : rs) {
        const int r = static_cast<int>(r64);
        SystemConfig cfg;
        cfg.numProcessors = n;
        cfg.numModules = m;
        cfg.memoryRatio = r;
        cfg.measureCycles =
            static_cast<Tick>(cli.getInt("cycles", 300000));

        cfg.policy = ArbitrationPolicy::ProcessorPriority;
        const double sim_proc = runEbw(cfg);
        cfg.policy = ArbitrationPolicy::MemoryPriority;
        const double sim_mem = runEbw(cfg);

        const ProcPrioChain chain(n, m, r);
        const double model_proc = chain.ebw();
        const double model_mem = memprioExactEbw(n, m, r);

        table.addRow(
            {std::to_string(r), TextTable::formatFixed(sim_proc, 3),
             TextTable::formatFixed(model_proc, 3),
             TextTable::formatFixed(sim_mem, 3),
             TextTable::formatFixed(model_mem, 3),
             TextTable::formatFixed(
                 100.0 * (sim_proc / sim_mem - 1.0), 1)});
    }
    table.print(std::cout);

    std::printf("\ng': priority to processor requests; g'': priority "
                "to memory responses.\n'chain g'' is the exact Section "
                "3.1.1 model; 'chain g'' the Section 4 reduced "
                "chain.\n");
    return 0;
}
