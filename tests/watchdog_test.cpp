// Watchdog tests: the stall predicate (depth > 0 and no heartbeat past
// the threshold) as a pure unit, then the end-to-end scenario from the
// design doc — a wedged dispatch shard under VirtualClock is flagged by
// name, deterministically, with no sleeps.
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "live/live_platform.hpp"
#include "obs/watchdog.hpp"

namespace faasbatch {
namespace {

/// Repeatedly advances the virtual clock (waking window waits) until
/// `pred` holds — liveness pacing for the dispatch threads, not a timing
/// assumption (same idiom as live_test).
template <typename Pred>
bool advance_until(VirtualClock& clock, std::chrono::milliseconds step,
                   Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    clock.advance(std::chrono::duration_cast<ClockTime>(step));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // fb-lint-allow(raw-clock)
  }
  return pred();
}

constexpr std::int64_t kThresholdNs = 1'000'000;  // 1 ms, in test units

class WatchdogUnitTest : public ::testing::Test {
 protected:
  WatchdogUnitTest() : watchdog_(kThresholdNs) {}
  obs::Watchdog watchdog_;
};

TEST_F(WatchdogUnitTest, IdleSourceIsHealthyForever) {
  auto source = watchdog_.register_source("idle", [] { return 0.0; }, 0);
  // Never beaten, but depth 0: a quiet loop is not a wedged loop.
  const obs::WatchdogReport report = watchdog_.scan(kThresholdNs * 1000);
  EXPECT_TRUE(report.healthy);
  EXPECT_TRUE(report.stalled.empty());
  ASSERT_EQ(report.sources.size(), 1u);
  EXPECT_EQ(report.sources[0].name, "idle");
  EXPECT_FALSE(report.sources[0].stalled);
  EXPECT_EQ(report.sources[0].last_beat_ns, obs::kNeverBeat);
}

TEST_F(WatchdogUnitTest, PendingWorkWithNoBeatStallsPastThreshold) {
  auto source = watchdog_.register_source("busy", [] { return 3.0; }, 100);
  // Baseline is registration time: within the threshold it is healthy
  // (the loop may simply not have reached its first beat yet).
  EXPECT_TRUE(watchdog_.scan(100 + kThresholdNs).healthy);
  const obs::WatchdogReport report = watchdog_.scan(100 + kThresholdNs + 1);
  EXPECT_FALSE(report.healthy);
  ASSERT_EQ(report.stalled.size(), 1u);
  EXPECT_EQ(report.stalled[0], "busy");
  EXPECT_EQ(report.sources[0].depth, 3.0);
}

TEST_F(WatchdogUnitTest, BeatAdvancesTheStallBaseline) {
  auto source = watchdog_.register_source("busy", [] { return 1.0; }, 0);
  source->beat(5'000'000);
  EXPECT_TRUE(watchdog_.scan(5'000'000 + kThresholdNs).healthy);
  EXPECT_FALSE(watchdog_.scan(5'000'000 + kThresholdNs + 1).healthy);
  // A fresh beat recovers the source.
  source->beat(10'000'000);
  EXPECT_TRUE(watchdog_.scan(10'000'000 + kThresholdNs).healthy);
  EXPECT_EQ(source->beats(), 2u);
}

TEST_F(WatchdogUnitTest, NullDepthFnIsNeverFlagged) {
  auto source = watchdog_.register_source("gateway", nullptr, 0);
  const obs::WatchdogReport report = watchdog_.scan(kThresholdNs * 1000);
  EXPECT_TRUE(report.healthy);
  EXPECT_EQ(report.sources[0].depth, 0.0);
}

TEST_F(WatchdogUnitTest, UnregisterRemovesTheSource) {
  auto source = watchdog_.register_source("gone", [] { return 9.0; }, 0);
  watchdog_.unregister(source);
  const obs::WatchdogReport report = watchdog_.scan(kThresholdNs * 1000);
  EXPECT_TRUE(report.healthy);
  EXPECT_TRUE(report.sources.empty());
}

TEST_F(WatchdogUnitTest, ThresholdIsAdjustable) {
  watchdog_.set_stall_threshold_ns(42);
  EXPECT_EQ(watchdog_.stall_threshold_ns(), 42);
  auto source = watchdog_.register_source("busy", [] { return 1.0; }, 0);
  EXPECT_FALSE(watchdog_.scan(43).healthy);
}

TEST_F(WatchdogUnitTest, ReportSerialisesToJson) {
  auto idle = watchdog_.register_source("idle", [] { return 0.0; }, 0);
  auto busy = watchdog_.register_source("busy", [] { return 2.0; }, 0);
  const Json body = watchdog_.scan(kThresholdNs + 1).to_json();
  EXPECT_FALSE(body.at("healthy").as_bool());
  ASSERT_EQ(body.at("stalled").as_array().size(), 1u);
  EXPECT_EQ(body.at("stalled").as_array()[0].as_string(), "busy");
  ASSERT_EQ(body.at("sources").as_array().size(), 2u);
  const Json& first = body.at("sources").as_array()[0];
  EXPECT_TRUE(first.contains("name"));
  EXPECT_TRUE(first.contains("beats"));
  EXPECT_TRUE(first.contains("depth"));
  EXPECT_TRUE(first.contains("stalled"));
}

// The acceptance scenario: wedge a dispatch shard under VirtualClock and
// watch the watchdog name it. The window (10 s) dwarfs the stall
// threshold (100 ms); an enqueued request sits in the shard with the
// flush loop parked on its window-close wait. Advancing virtual time
// 200 ms — past the threshold, far short of the window — makes scan()
// flag exactly that shard. No sleeps, no races: the flush loop cannot
// run (its wakeup is 10 s away) and the scan is a pull on the caller's
// thread.
TEST(WatchdogIntegrationTest, WedgedShardIsFlaggedByName) {
  VirtualClock clock;
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.clock = &clock;
  options.shards = 4;
  options.window = std::chrono::milliseconds(10'000);
  options.stall_threshold = std::chrono::milliseconds(100);
  live::LivePlatform platform(options);
  platform.register_function("f", [](live::FunctionContext&) {});

  // Healthy before any work: every shard is idle at depth 0.
  EXPECT_TRUE(platform.watchdog().scan(clock.now().count()).healthy);

  auto future = platform.invoke("f");

  // Find which shard holds the request.
  std::string wedged;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    if (snap.depth > 0) {
      wedged = "shard/" + std::to_string(snap.shard);
    }
  }
  ASSERT_FALSE(wedged.empty()) << "no shard reports the pending request";

  clock.advance(std::chrono::milliseconds(200));
  const obs::WatchdogReport report =
      platform.watchdog().scan(clock.now().count());
  EXPECT_FALSE(report.healthy);
  ASSERT_EQ(report.stalled.size(), 1u);
  EXPECT_EQ(report.stalled[0], wedged);

  // Let the window close: the shard flushes, the request executes, and
  // the system scans healthy again (depth 0, fresh beat).
  ASSERT_TRUE(advance_until(clock, std::chrono::milliseconds(1000), [&] {
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }));
  future.get();
  EXPECT_TRUE(platform.watchdog().scan(clock.now().count()).healthy);
  platform.shutdown();
  platform.drain();
}

}  // namespace
}  // namespace faasbatch
