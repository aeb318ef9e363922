/**
 * @file
 * Deterministic-clock unit tests for the ShardSupervisor's timing
 * policy: the capped-exponential retry schedule and the supervision
 * loop's wake-up timeout. Both are pure functions of configuration
 * and a caller-supplied clock reading, so these tests pin the exact
 * schedules without a single wall-clock sleep - the end-to-end
 * supervision behavior (respawn, hang kill, steal, exhaustion) is
 * covered by tests/test_fault.cc with real processes.
 */

#include <chrono>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "shard/supervisor.hh"

namespace sbn {
namespace {

TEST(SupervisorBackoff, DefaultScheduleDoublesToTheCap)
{
    // Defaults: initial 0.25 s, growth 2, cap 5 s. Failure k waits
    // min(5, 0.25 * 2^(k-1)).
    const SupervisorConfig config;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.25);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 2), 0.5);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 3), 1.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 4), 2.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 5), 4.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 6), 5.0);
    // Once capped, it stays capped - no overflow or re-growth.
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 7), 5.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 50), 5.0);
}

TEST(SupervisorBackoff, HonorsCustomInitialGrowthAndCap)
{
    SupervisorConfig config;
    config.backoffInitialSeconds = 0.02;
    config.backoffGrowth = 3.0;
    config.backoffCapSeconds = 0.5;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.02);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 2), 0.06);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 3), 0.18);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 4), 0.5);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 5), 0.5);
}

TEST(SupervisorBackoff, ZeroInitialMeansImmediateRetries)
{
    // --backoff=0 is the test-suite configuration: every retry is
    // immediate regardless of how many failures have accumulated.
    SupervisorConfig config;
    config.backoffInitialSeconds = 0.0;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 10), 0.0);
}

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

SupervisorWakeTask
wakeTask(ShardState state, Clock::time_point wake_at = {})
{
    return {state, wake_at};
}

TEST(SupervisorWakeTimeout, BlocksUntilAnEventWhenNothingIsDue)
{
    const Clock::time_point now{};
    // No tasks, only finished ones, or running workers with the hang
    // timeout off: nothing but a worker exit or a signal can make
    // work due, so the loop blocks without a timeout.
    EXPECT_EQ(supervisorWakeTimeoutMillis({}, 0.0, now), -1);
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Done),
                   wakeTask(ShardState::Exhausted)},
                  0.0, now),
              -1);
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Running),
                   wakeTask(ShardState::Running),
                   wakeTask(ShardState::Done)},
                  0.0, now),
              -1);
    // An armed hang timeout adds no cadence without a running worker.
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Done)}, 2.0, now),
              -1);
}

TEST(SupervisorWakeTimeout, WakesAtTheEarliestBackoffDeadline)
{
    const Clock::time_point now = Clock::time_point{} + milliseconds(1000);
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Backoff, now + milliseconds(250)),
                   wakeTask(ShardState::Running),
                   wakeTask(ShardState::Backoff, now + milliseconds(130))},
                  0.0, now),
              130);
    // Partial milliseconds round up, so the wake never comes early.
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Backoff,
                            now + microseconds(129001))},
                  0.0, now),
              130);
    // A deadline that has passed is due now.
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Backoff, now - milliseconds(5))},
                  0.0, now),
              0);
    // Only Backoff deadlines count; stale wakeAt values of tasks in
    // other states are ignored.
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Done, now + milliseconds(1)),
                   wakeTask(ShardState::Running, now + milliseconds(1))},
                  0.0, now),
              -1);
}

TEST(SupervisorWakeTimeout, LivenessCadenceOnlyWithAHangTimeout)
{
    const Clock::time_point now{};
    const std::vector<SupervisorWakeTask> running = {
        wakeTask(ShardState::Running), wakeTask(ShardState::Done)};
    EXPECT_EQ(supervisorWakeTimeoutMillis(running, 0.0, now), -1);
    EXPECT_EQ(supervisorWakeTimeoutMillis(running, 0.3, now), 20);
    EXPECT_EQ(supervisorWakeTimeoutMillis(running, 3600.0, now), 20);
    // The earlier of the cadence and a backoff deadline wins.
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Running),
                   wakeTask(ShardState::Backoff, now + milliseconds(7))},
                  0.3, now),
              7);
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Running),
                   wakeTask(ShardState::Backoff, now + milliseconds(70))},
                  0.3, now),
              20);
}

TEST(SupervisorWakeTimeout, PendingLaunchIsDueNow)
{
    const Clock::time_point now{};
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Running),
                   wakeTask(ShardState::Pending)},
                  0.0, now),
              0);
}

TEST(SupervisorWakeTimeout, FarDeadlinesSaturateInsteadOfOverflowing)
{
    const Clock::time_point now{};
    EXPECT_EQ(supervisorWakeTimeoutMillis(
                  {wakeTask(ShardState::Backoff,
                            now + std::chrono::hours(24 * 365))},
                  0.0, now),
              std::numeric_limits<int>::max());
}

} // namespace
} // namespace sbn
