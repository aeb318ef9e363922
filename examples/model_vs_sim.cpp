/**
 * @file
 * Model-validation workflow: for one system shape, line up every
 * analytical model in the library against the cycle-accurate
 * simulator - the workflow Sections 3-6 of the paper go through.
 *
 *   ./model_vs_sim --n=8 --m=8 --r=8
 */

#include <cstdio>
#include <iostream>

#include "analytic/crossbar.hh"
#include "analytic/memprio.hh"
#include "analytic/multibus.hh"
#include "analytic/mva.hh"
#include "analytic/procprio.hh"
#include "core/experiment.hh"
#include "exec/thread_pool.hh"
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
         {"rel", "target relative CI half-width in percent "
                 "(default 1)"},
         {"cap", "replication cap per estimate (default 16)"},
         {"threads", "worker threads for the replications (default: "
                     "all hardware threads; results identical at any "
                     "count)"}});

    const int n = static_cast<int>(cli.getInt("n", 8));
    const int m = static_cast<int>(cli.getInt("m", 8));
    const int r = static_cast<int>(cli.getInt("r", 8));
    const double rel = cli.getDouble("rel", 1.0);
    const long cap_arg = cli.getInt("cap", 16);
    const long threads_arg = cli.getInt("threads", 0);
    if (threads_arg < 0 || threads_arg > 4096) {
        std::fprintf(stderr, "--threads must be in [0, 4096]\n");
        return 2;
    }
    auto threads = static_cast<unsigned>(threads_arg);
    if (threads == 0)
        threads = ThreadPool::hardwareThreads();

    if (rel <= 0.0 || cap_arg < 2 || cap_arg > 100000) {
        std::fprintf(stderr,
                     "--rel must be positive, --cap in [2, 100000]\n");
        return 2;
    }
    const auto cap = static_cast<unsigned>(cap_arg);

    std::printf("model vs simulation, %dx%d, r=%d, p=1\n"
                "(adaptive replication: CI half-width target %.2f%% "
                "of the mean, cap %u)\n\n",
                n, m, r, rel, cap);

    // Adaptive precision: each simulation estimate grows its
    // replication count in deterministic rounds until the 95% CI
    // half-width meets the relative target or the cap. The estimate
    // is bit-identical at any thread count.
    PrecisionTarget target;
    target.relative = rel / 100.0;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = cap;

    auto simulate = [&](ArbitrationPolicy policy, bool buffered) {
        SystemConfig cfg;
        cfg.numProcessors = n;
        cfg.numModules = m;
        cfg.memoryRatio = r;
        cfg.policy = policy;
        cfg.buffered = buffered;
        cfg.measureCycles = 200000;
        return replicateEbwToPrecision(cfg, target, schedule, threads);
    };

    TextTable table;
    table.setHeader({"quantity", "model", "simulation (95% CI)",
                     "reps", "rel err %"});
    auto row = [&](const char *what, double model,
                   const AdaptiveEstimate &sim) {
        const Estimate &e = sim.estimate;
        table.addRow(
            {what, TextTable::formatFixed(model, 3),
             TextTable::formatFixed(e.mean, 3) + " +/- " +
                 TextTable::formatFixed(e.halfWidth, 3),
             std::to_string(e.samples) + (sim.converged ? "" : "*"),
             TextTable::formatFixed(
                 100.0 * (model - e.mean) / e.mean, 2)});
    };

    const auto sim_mem =
        simulate(ArbitrationPolicy::MemoryPriority, false);
    row("EBW, mem priority (S3.1.1 exact chain)",
        memprioExactEbw(n, m, r), sim_mem);
    row("EBW, mem priority (S3.2 approximation)",
        memprioApproxEbw(n, m, r), sim_mem);

    const auto sim_proc =
        simulate(ArbitrationPolicy::ProcessorPriority, false);
    const ProcPrioChain chain(n, m, r);
    row("EBW, proc priority (S4 reduced chain)", chain.ebw(), sim_proc);

    const auto sim_buf =
        simulate(ArbitrationPolicy::ProcessorPriority, true);
    row("EBW, buffered (S6 exponential MVA)", mvaBufferedBus(n, m, r).ebw,
        sim_buf);

    table.print(std::cout);

    std::printf("\n('*' in the reps column: the replication cap was "
                "reached before the CI target)\n");
    std::printf("\ncontext: crossbar(%d,%d) EBW = %.3f; bus ceiling "
                "(r+2)/2 = %.1f\n",
                n, m, crossbarEbw(n, m), (r + 2) / 2.0);
    std::printf("\nexpected: the S3.1.1 chain is within a couple of "
                "percent (exact under its own\nround abstraction); S3.2 "
                "and S4 are approximations (<9%%); the exponential "
                "MVA\nunderestimates sharply in congested regions - "
                "that mismatch is the paper's\nSection 6 argument for "
                "simulating constant service times.\n");
    return 0;
}
