/**
 * @file
 * Golden pinned Metrics for the CycleSkip kernel.
 *
 * The kernel-differential suite used to prove CycleSkip == Classic
 * for every configuration class; the Classic kernel is now retired
 * and this suite is the anchor in its place: it pins the *absolute*
 * Metrics of the kernel for a small configuration grid against
 * values checked in under tests/golden/, so any behavioral drift (an
 * RNG-stream reorder, a changed grant decision, an off-by-one in the
 * measurement window) fails ctest with the offending config and
 * counter named. tests/test_kernel_diff.cc pins the wider
 * Classic-era differential grid the same way.
 *
 * Comparison is *exact*: the counters are integers and the derived
 * doubles are deterministic arithmetic on them, serialized as %.17g
 * (round-trips bit-exactly, same convention as the sharded-sweep
 * record format). There is no tolerance to absorb drift - that is the
 * point.
 *
 * Regenerating after an intentional kernel-behavior change:
 *
 *     SBN_REGEN_GOLDEN=1 ./build/tests/sbn_tests \
 *         --gtest_filter='GoldenKernel*'
 *
 * then rerun without the variable and review the diff like code (see
 * docs/testing.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "golden_util.hh"

namespace sbn {
namespace {

using golden::GoldenLine;
using golden::checkExactGolden;
using golden::exact;

TEST(GoldenKernelMetrics, CycleSkipPinnedGrid)
{
    std::vector<GoldenLine> computed;
    for (const int n : {2, 8}) {
        for (const int m : {2, 8}) {
            for (const int r : {2, 8}) {
                for (const double p : {0.1, 1.0}) {
                    for (const bool buffered : {false, true}) {
                        SystemConfig cfg;
                        cfg.numProcessors = n;
                        cfg.numModules = m;
                        cfg.memoryRatio = r;
                        cfg.requestProbability = p;
                        cfg.buffered = buffered;
                        cfg.warmupCycles = 500;
                        cfg.measureCycles = 5000;
                        cfg.seed = 20260727;

                        char label[64];
                        std::snprintf(label, sizeof label,
                                      "n=%d m=%d r=%d p=%.1f buf=%d",
                                      n, m, r, p, buffered ? 1 : 0);

                        const Metrics metrics = runOnce(cfg);
                        const std::string key = label;
                        computed.push_back(
                            {key + " completed",
                             exact(metrics.completedRequests)});
                        computed.push_back(
                            {key + " issued",
                             exact(metrics.issuedRequests)});
                        computed.push_back(
                            {key + " busBusy",
                             exact(metrics.busBusyCycles)});
                        computed.push_back(
                            {key + " ebw", exact(metrics.ebw)});
                        computed.push_back(
                            {key + " busUtil",
                             exact(metrics.busUtilization)});
                        computed.push_back(
                            {key + " meanWait",
                             exact(metrics.meanWaitCycles)});
                        computed.push_back(
                            {key + " meanService",
                             exact(metrics.meanServiceCycles)});
                    }
                }
            }
        }
    }
    checkExactGolden("kernel_metrics", computed);
}

/**
 * Both arbitration policies and the OldestFirst selection extension
 * on a contended shape - the grant-decision paths Classic's removal
 * leaves without a differential reference.
 */
TEST(GoldenKernelMetrics, CycleSkipPinnedPolicyVariants)
{
    std::vector<GoldenLine> computed;
    for (const ArbitrationPolicy policy :
         {ArbitrationPolicy::ProcessorPriority,
          ArbitrationPolicy::MemoryPriority}) {
        for (const SelectionRule selection :
             {SelectionRule::Random, SelectionRule::OldestFirst}) {
            SystemConfig cfg;
            cfg.numProcessors = 6;
            cfg.numModules = 4; // more processors than modules
            cfg.memoryRatio = 4;
            cfg.policy = policy;
            cfg.selection = selection;
            cfg.warmupCycles = 500;
            cfg.measureCycles = 5000;
            cfg.seed = 20260727;

            const std::string key =
                std::string(policy ==
                                    ArbitrationPolicy::ProcessorPriority
                                ? "procprio"
                                : "memprio") +
                (selection == SelectionRule::Random ? " random"
                                                    : " oldest");
            const Metrics metrics = runOnce(cfg);
            computed.push_back({key + " completed",
                                exact(metrics.completedRequests)});
            computed.push_back(
                {key + " busBusy", exact(metrics.busBusyCycles)});
            computed.push_back({key + " ebw", exact(metrics.ebw)});
            computed.push_back(
                {key + " meanWait", exact(metrics.meanWaitCycles)});
        }
    }
    checkExactGolden("kernel_metrics_policies", computed);
}

/**
 * Same-tick order at r = 1, where a memory completion and a
 * transfer's landing can fall on one tick: completions due at a tick
 * must run before that tick's transfer-done, and both before the
 * tick's arbitration. Swapping any two of these changes the grant
 * decisions, so every line here moves; the dispatch count pins how
 * many events the kernel ran to get there.
 */
TEST(GoldenKernelMetrics, CycleSkipPinnedSameTickOrderAtR1)
{
    std::vector<GoldenLine> computed;
    for (const int n : {4, 12}) {
        // -1: unbuffered; otherwise buffered with this capacity on
        // both sides (0 = unbounded).
        for (const int capacity : {-1, 0, 1, 2}) {
            SystemConfig cfg;
            cfg.numProcessors = n;
            cfg.numModules = 3;
            cfg.memoryRatio = 1;
            cfg.requestProbability = 0.9;
            cfg.buffered = capacity >= 0;
            cfg.inputCapacity = std::max(capacity, 0);
            cfg.outputCapacity = std::max(capacity, 0);
            cfg.warmupCycles = 1000;
            cfg.measureCycles = 20000;
            cfg.seed = 7;

            char label[64];
            if (capacity < 0)
                std::snprintf(label, sizeof label, "n=%d unbuffered", n);
            else
                std::snprintf(label, sizeof label, "n=%d buf cap=%d", n,
                              capacity);

            SingleBusSystem system(cfg);
            const Metrics metrics = system.run();
            const std::string key = label;
            computed.push_back(
                {key + " completed", exact(metrics.completedRequests)});
            computed.push_back(
                {key + " busBusy", exact(metrics.busBusyCycles)});
            computed.push_back(
                {key + " meanWait", exact(metrics.meanWaitCycles)});
            computed.push_back(
                {key + " dispatches",
                 exact(system.eventsDispatched())});
        }
    }
    checkExactGolden("kernel_metrics_r1", computed);
}

} // namespace
} // namespace sbn
