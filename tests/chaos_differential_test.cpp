// Chaos differential suite (the PR's acceptance gate): each of the four
// schedulers runs a fuzzed workload under uniform FaultPlans at 5%, 15%
// and 30% per-decision fault rates, and the harness asserts that
//
//  * every invocation completes or is terminally accounted (failed/shed)
//    exactly once — nothing is ever lost, even when a crashed FaaSBatch
//    or Kraken container takes a whole batch down;
//  * two runs with the same seed and plan produce byte-identical
//    retry/shed/failure counters (the harness replays each scheduler
//    internally and compares chaos fingerprints);
//  * platform drain invariants (memory to base, containers to zero)
//    still hold with faults injected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <tuple>
#include <vector>

#include "common/clock.hpp"
#include "live/live_platform.hpp"
#include "resilience/fault_injector.hpp"
#include "testing/differential.hpp"

namespace faasbatch::testing {
namespace {

class ChaosRateTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ChaosRateTest, EveryInvocationTerminallyAccounted) {
  const double rate = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());

  FuzzerOptions fuzz;
  fuzz.min_invocations = 40;
  fuzz.max_invocations = 100;
  fuzz.horizon = 12 * kSecond;

  DifferentialOptions options;
  options.fuzz_faults = false;  // explicit plan below
  options.spec.fault_plan = resilience::FaultPlan::uniform(rate, seed * 977 + 1);
  options.spec.scheduler_options.kraken_default_slo_ms = 2000.0;

  const DifferentialReport report = run_differential(seed, fuzz, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_EQ(report.runs.size(), 4u);
  for (const SchedulerRunSummary& run : report.runs) {
    EXPECT_EQ(run.completed + run.failed + run.shed, run.invocations)
        << run.name << " at rate " << rate << ", seed " << seed;
    // At these rates faults must actually fire — the suite is not
    // silently running fault-free.
    EXPECT_GT(run.faults_injected, 0u) << run.name << " at rate " << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultRates, ChaosRateTest,
    ::testing::Combine(::testing::Values(0.05, 0.15, 0.30),
                       ::testing::Values<std::uint64_t>(3, 11, 27)));

TEST(ChaosDifferentialTest, SameSeedSamePlanSameCounters) {
  // End-to-end determinism across two independent harness invocations
  // (the in-harness replay already checks per-run; this covers the
  // whole-report path).
  FuzzerOptions fuzz;
  fuzz.min_invocations = 40;
  fuzz.max_invocations = 80;
  fuzz.horizon = 10 * kSecond;
  DifferentialOptions options;
  options.fuzz_faults = false;
  options.spec.fault_plan = resilience::FaultPlan::uniform(0.15, 0xC0FFEE);

  const DifferentialReport a = run_differential(5, fuzz, options);
  const DifferentialReport b = run_differential(5, fuzz, options);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].chaos_fingerprint, b.runs[i].chaos_fingerprint)
        << a.runs[i].name;
    EXPECT_EQ(a.runs[i].completed, b.runs[i].completed) << a.runs[i].name;
    EXPECT_EQ(a.runs[i].failed, b.runs[i].failed) << a.runs[i].name;
    EXPECT_EQ(a.runs[i].shed, b.runs[i].shed) << a.runs[i].name;
  }
}

TEST(ChaosDifferentialTest, CrashBlastRadiusStillAccountsEveryMember) {
  // Crash-only plan at a high rate: FaaSBatch groups and Kraken batches
  // lose whole containers, and every surviving member must re-dispatch
  // individually and reach a terminal outcome.
  FuzzerOptions fuzz;
  fuzz.min_invocations = 60;
  fuzz.max_invocations = 120;
  fuzz.horizon = 10 * kSecond;
  DifferentialOptions options;
  options.fuzz_faults = false;
  options.spec.fault_plan.seed = 0xCA54;
  options.spec.fault_plan.container_crash_rate = 0.3;

  const DifferentialReport report = run_differential(13, fuzz, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  for (const SchedulerRunSummary& run : report.runs) {
    EXPECT_EQ(run.completed + run.failed + run.shed, run.invocations)
        << run.name;
  }
}

TEST(ChaosDifferentialTest, OverloadSheddingIsAccounted) {
  FuzzerOptions fuzz;
  fuzz.min_invocations = 80;
  fuzz.max_invocations = 120;
  fuzz.horizon = 5 * kSecond;  // dense arrivals to trip the guard
  DifferentialOptions options;
  options.fuzz_faults = false;
  options.spec.overload.max_inflight = 8;

  const DifferentialReport report = run_differential(21, fuzz, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  bool any_shed = false;
  for (const SchedulerRunSummary& run : report.runs) {
    EXPECT_EQ(run.completed + run.failed + run.shed, run.invocations)
        << run.name;
    if (run.shed > 0) any_shed = true;
  }
  EXPECT_TRUE(any_shed) << report.summary();
}

TEST(ChaosDifferentialTest, FuzzedFaultPlansAreDeterministic) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const resilience::FaultPlan a = fuzz_fault_plan(seed);
    const resilience::FaultPlan b = fuzz_fault_plan(seed);
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << "seed " << seed;
  }
  // Different seeds should (generally) differ.
  EXPECT_NE(fuzz_fault_plan(1).fingerprint(), fuzz_fault_plan(2).fingerprint());
}

// -----------------------------------------------------------------------
// Live dispatch against an exact oracle
//
// A seeded fuzzed workload, with a FaultPlan deciding (in fixed
// submission order) which invocations are doomed by a too-short deadline,
// must produce terminal Outcome counts that follow from the plan alone.
// Every submission happens at virtual time 0 and a doomed one carries a
// 5 ms deadline against the 15 ms window, so the doomed/healthy split is
// decided by clock arithmetic, not scheduling: the counts are exact on
// one shard (a single queue) and on the default shard count alike.
// -----------------------------------------------------------------------

struct LiveOutcomeCounts {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
};

void tally(std::vector<std::future<live::InvocationReport>>& futures,
           LiveOutcomeCounts& counts) {
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "an invocation never reached a terminal outcome";
    switch (future.get().status) {
      case live::InvocationStatus::kOk: ++counts.ok; break;
      case live::InvocationStatus::kShed: ++counts.shed; break;
      case live::InvocationStatus::kDeadlineExpired: ++counts.expired; break;
      case live::InvocationStatus::kCancelled: ++counts.cancelled; break;
    }
  }
}

struct LiveChaosRun {
  std::uint64_t submitted = 0;  ///< workload invocations, before shutdown
  std::uint64_t doomed = 0;     ///< of those, sent with the 5 ms deadline
  LiveOutcomeCounts outcomes;   ///< including the 3 post-shutdown invokes
};

/// `shards` = 0 selects the platform default.
LiveChaosRun run_live_chaos(std::size_t shards, std::uint64_t seed) {
  FuzzerOptions fuzz;
  fuzz.min_invocations = 40;
  fuzz.max_invocations = 80;
  fuzz.horizon = 10 * kSecond;
  const trace::Workload workload = fuzz_workload(seed, fuzz);

  // The fault stream decides, deterministically per (plan, order), which
  // submissions carry a 5 ms deadline — far shorter than the 15 ms
  // window, so every doomed invocation expires at its window flush.
  resilience::FaultPlan plan;
  plan.seed = seed * 977 + 13;
  plan.exec_error_rate = 0.25;
  resilience::FaultInjector injector(plan);

  VirtualClock clock;
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.window = std::chrono::milliseconds(15);
  options.shards = shards;
  options.clock = &clock;
  options.container.threads = 2;
  options.container.cold_start_work_ms = 0.5;
  live::LivePlatform platform(options);

  LiveChaosRun run;
  std::atomic<std::uint64_t> ran{0};
  for (const auto& profile : workload.functions) {
    platform.register_function(profile.name,
                               [&ran](live::FunctionContext&) { ++ran; });
  }

  std::vector<std::future<live::InvocationReport>> futures;
  futures.reserve(workload.events.size() + 3);
  run.submitted = workload.events.size();
  for (const auto& event : workload.events) {
    const bool doomed = injector.inject_exec_error();
    if (doomed) ++run.doomed;
    futures.push_back(platform.invoke(
        workload.functions[event.function].name, "",
        doomed ? std::chrono::milliseconds(5) : std::chrono::milliseconds(0)));
  }

  // Advance virtual time until every future settles (window flushes and
  // executions run on real threads; the loop only paces, never decides).
  const auto all_ready = [&futures] {
    for (auto& future : futures) {
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 10000 && !all_ready(); ++i) {
    clock.advance(std::chrono::duration_cast<ClockTime>(
        std::chrono::milliseconds(15)));
    // Real 1 ms pacing while polling a cross-thread predicate.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // fb-lint-allow(raw-clock)
  }

  // Post-shutdown invokes must cancel.
  platform.shutdown();
  for (int i = 0; i < 3; ++i) {
    futures.push_back(platform.invoke(workload.functions[0].name));
  }
  platform.drain();

  tally(futures, run.outcomes);
  EXPECT_EQ(run.outcomes.ok, ran.load()) << "every kOk must have executed exactly once";
  return run;
}

class LiveDispatchEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveDispatchEquivalenceTest, ShardedMatchesSingleQueueUnderChaos) {
  const std::uint64_t seed = GetParam();
  // One shard is the single queue; 0 is the default sharded pipeline.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{0}}) {
    const LiveChaosRun run = run_live_chaos(shards, seed);
    // The workload exercised both classes.
    EXPECT_GT(run.doomed, 0u) << "seed " << seed;
    EXPECT_LT(run.doomed, run.submitted) << "seed " << seed;
    EXPECT_EQ(run.outcomes.ok, run.submitted - run.doomed)
        << "seed " << seed << " shards " << shards;
    EXPECT_EQ(run.outcomes.expired, run.doomed)
        << "seed " << seed << " shards " << shards;
    EXPECT_EQ(run.outcomes.shed, 0u) << "seed " << seed << " shards " << shards;
    EXPECT_EQ(run.outcomes.cancelled, 3u) << "seed " << seed << " shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveDispatchEquivalenceTest,
                         ::testing::Values<std::uint64_t>(3, 11, 27));

TEST(LiveDispatchEquivalenceTest, BoundedSheddingMatchesWithOneShard) {
  // Exact shed accounting: with one shard, max_queue bounds the whole
  // platform like a single global queue. The virtual clock never
  // advances, pinning every request in the open window while later ones
  // overflow the bound.
  VirtualClock clock;
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.window = std::chrono::milliseconds(15);
  options.shards = 1;
  options.max_queue = 3;
  options.clock = &clock;
  options.container.threads = 2;
  options.container.cold_start_work_ms = 0.5;
  live::LivePlatform platform(options);
  platform.register_function("f", [](live::FunctionContext&) {});

  std::vector<std::future<live::InvocationReport>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(platform.invoke("f"));
  platform.shutdown();  // flushes the open window immediately
  platform.drain();

  LiveOutcomeCounts counts;
  tally(futures, counts);
  EXPECT_EQ(counts.ok, 3u);
  EXPECT_EQ(counts.shed, 7u);
}

TEST(ChaosDifferentialTest, FuzzedPlansMixFaultFreeAndFaulty) {
  std::size_t fault_free = 0;
  std::size_t faulty = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    if (fuzz_fault_plan(seed).any()) {
      ++faulty;
    } else {
      ++fault_free;
    }
  }
  EXPECT_GT(fault_free, 0u);
  EXPECT_GT(faulty, fault_free);
}

}  // namespace
}  // namespace faasbatch::testing
