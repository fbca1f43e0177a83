// Differential fuzz suite: ≥25 seeded adversarial traces, each replayed
// through all four schedulers with every cross-scheduler invariant
// checked. A failure prints the full report, whose every line carries
// the generating seed, so red runs replay exactly.
#include <gtest/gtest.h>

#include "testing/differential.hpp"

namespace faasbatch::testing {
namespace {

class DifferentialSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSeedTest, AllSchedulersHoldInvariants) {
  const std::uint64_t seed = GetParam();
  FuzzerOptions fuzz;
  // Keep individual runs quick; adversarial shape matters more than bulk.
  fuzz.min_invocations = 40;
  fuzz.max_invocations = 120;
  fuzz.horizon = 15 * kSecond;

  DifferentialOptions options;
  options.spec.scheduler_options.kraken_default_slo_ms = 2000.0;
  // Widen coverage off the seed, as the stress suite does.
  options.spec.scheduler_options.dispatch_window =
      from_millis(50.0 + static_cast<double>(seed % 5) * 100.0);
  if (seed % 4 == 0) options.spec.scheduler_options.faasbatch_max_group = 8;
  if (seed % 5 == 0) options.spec.keepalive = eval::KeepAliveKind::kHistogram;

  // Chaos by default: run_differential derives a FaultPlan from the seed
  // (a fraction of seeds stay fault-free), so this sweep covers faults,
  // retries, and crash blast radius as well as the fault-free invariants.
  const DifferentialReport report = run_differential(seed, fuzz, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.runs.size(), 4u);
  const resilience::FaultPlan plan = fuzz_fault_plan(seed);
  for (const SchedulerRunSummary& run : report.runs) {
    // Everything is terminally accounted; fault-free seeds complete all.
    EXPECT_EQ(run.completed + run.failed + run.shed, run.invocations)
        << run.name << ", seed " << seed;
    if (!plan.any()) {
      EXPECT_EQ(run.completed, run.invocations) << run.name << ", seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, DifferentialSeedTest,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(DifferentialReportTest, ViolationMessageCarriesReplaySeed) {
  InvariantViolation violation;
  violation.seed = 1234;
  violation.scheduler = "FaaSBatch";
  violation.invariant = "exactly-once completion";
  violation.detail = "invocation 7 completed 2 times";
  const std::string line = violation.to_string();
  EXPECT_NE(line.find("seed 1234"), std::string::npos);
  EXPECT_NE(line.find("fuzz_workload(1234)"), std::string::npos);
  EXPECT_NE(line.find("FaaSBatch"), std::string::npos);
}

TEST(DifferentialReportTest, SummaryListsEveryRunAndViolation) {
  DifferentialReport report;
  report.seed = 9;
  SchedulerRunSummary run;
  run.name = "Vanilla";
  run.invocations = 10;
  run.completed = 10;
  report.runs.push_back(run);
  report.violations.push_back(
      InvariantViolation{9, "Vanilla", "memory gauge non-negative", "dipped"});
  const std::string text = report.summary();
  EXPECT_NE(text.find("Vanilla"), std::string::npos);
  EXPECT_NE(text.find("VIOLATION"), std::string::npos);
  EXPECT_NE(text.find("seed 9"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST(DifferentialHarnessTest, HandBuiltTraceIsClean) {
  // A tiny deterministic trace (two functions, one simultaneous pair,
  // one window-boundary arrival) passes all invariants — the harness
  // itself does not false-positive on simple inputs.
  trace::Workload workload;
  workload.kind = trace::FunctionKind::kCpuIntensive;
  trace::FunctionProfile f;
  f.id = 0;
  f.name = "f";
  f.duration_ms = 20.0;
  f.fib_n = 24;
  workload.functions.push_back(f);
  workload.horizon = 5 * kSecond;
  workload.events.push_back(trace::TraceEvent{0, 0, 20.0, 24});
  workload.events.push_back(trace::TraceEvent{0, 0, 20.0, 24});
  workload.events.push_back(trace::TraceEvent{200 * kMillisecond, 0, 20.0, 24});

  const DifferentialReport report = check_workload(/*seed=*/0, workload);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(DifferentialHarnessTest, AgreesWithStandaloneExperiment) {
  // The instrumented harness and run_experiment build the same
  // eval::Worker, so under one chaos plan (boot failures included) every
  // scheduler's outcome must match between them exactly.
  for (const std::uint64_t seed : {2ull, 5ull, 8ull}) {
    const trace::Workload workload = fuzz_workload(seed);
    DifferentialOptions options;
    options.spec.scheduler_options.kraken_default_slo_ms = 2000.0;
    options.spec.fault_plan = fuzz_fault_plan(seed);
    options.spec.fault_plan.cold_start_failure_rate = 0.2;
    const DifferentialReport report = check_workload(seed, workload, options);
    EXPECT_TRUE(report.ok()) << report.summary();
    ASSERT_EQ(report.runs.size(), options.schedulers.size());
    for (std::size_t i = 0; i < options.schedulers.size(); ++i) {
      eval::ExperimentSpec spec = options.spec;
      spec.scheduler = options.schedulers[i];
      const eval::ExperimentResult standalone = eval::run_experiment(spec, workload);
      const SchedulerRunSummary& run = report.runs[i];
      EXPECT_EQ(run.completed, standalone.completed) << run.name << ", seed " << seed;
      EXPECT_EQ(run.failed, standalone.failed) << run.name << ", seed " << seed;
      EXPECT_EQ(run.shed, standalone.shed) << run.name << ", seed " << seed;
      EXPECT_EQ(run.containers_provisioned, standalone.containers_provisioned)
          << run.name << ", seed " << seed;
      EXPECT_EQ(run.chaos_fingerprint, standalone.chaos_fingerprint)
          << run.name << ", seed " << seed;
      EXPECT_EQ(run.last_completion, standalone.makespan)
          << run.name << ", seed " << seed;
      EXPECT_GT(standalone.fault_stats.total(), 0u) << run.name << ", seed " << seed;
    }
  }
}

}  // namespace
}  // namespace faasbatch::testing
