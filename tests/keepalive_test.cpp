// Tests for keep-alive policies: fixed, histogram, pool integration.
#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/keepalive.hpp"
#include "runtime/machine.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::runtime {
namespace {

TEST(FixedKeepAliveTest, ConstantDuration) {
  FixedKeepAlive policy(30 * kSecond);
  policy.record_arrival(0, 0);
  EXPECT_EQ(policy.keep_alive_for(0, kMinute), 30 * kSecond);
  EXPECT_EQ(policy.keep_alive_for(7, 0), 30 * kSecond);
  EXPECT_EQ(policy.name(), "fixed");
  EXPECT_THROW(FixedKeepAlive(0), std::invalid_argument);
}

TEST(HistogramKeepAliveTest, ConservativeWithoutHistory) {
  HistogramKeepAlive::Options options;
  options.cap = 2 * kMinute;
  HistogramKeepAlive policy(options);
  EXPECT_EQ(policy.keep_alive_for(0, 0), options.cap);
  // A couple of samples are still below min_samples.
  policy.record_arrival(0, 0);
  policy.record_arrival(0, kSecond);
  EXPECT_EQ(policy.keep_alive_for(0, kSecond), options.cap);
}

TEST(HistogramKeepAliveTest, LearnsPerFunctionIat) {
  HistogramKeepAlive::Options options;
  options.quantile = 1.0;
  options.floor = kSecond;
  options.cap = kHour;
  options.min_samples = 4;
  HistogramKeepAlive policy(options);
  // Function 0 invoked every 2 s; function 1 every 40 s.
  for (int i = 0; i <= 6; ++i) {
    policy.record_arrival(0, static_cast<SimTime>(i) * 2 * kSecond);
    policy.record_arrival(1, static_cast<SimTime>(i) * 40 * kSecond);
  }
  EXPECT_EQ(policy.samples_for(0), 6u);
  EXPECT_EQ(policy.keep_alive_for(0, 0), 2 * kSecond);
  EXPECT_EQ(policy.keep_alive_for(1, 0), 40 * kSecond);
}

TEST(HistogramKeepAliveTest, FloorAndCapClamp) {
  HistogramKeepAlive::Options options;
  options.floor = 5 * kSecond;
  options.cap = 30 * kSecond;
  options.min_samples = 2;
  HistogramKeepAlive policy(options);
  for (int i = 0; i <= 4; ++i) {
    policy.record_arrival(0, static_cast<SimTime>(i) * 100 * kMillisecond);  // 100 ms IaT
    policy.record_arrival(1, static_cast<SimTime>(i) * 5 * kMinute);         // 5 min IaT
  }
  EXPECT_EQ(policy.keep_alive_for(0, 0), options.floor);
  EXPECT_EQ(policy.keep_alive_for(1, 0), options.cap);
}

TEST(HistogramKeepAliveTest, Validation) {
  HistogramKeepAlive::Options bad;
  bad.quantile = 0.0;
  EXPECT_THROW(HistogramKeepAlive{bad}, std::invalid_argument);
  bad.quantile = 0.99;
  bad.floor = 10 * kSecond;
  bad.cap = kSecond;
  EXPECT_THROW(HistogramKeepAlive{bad}, std::invalid_argument);
}

TEST(PoolKeepAliveIntegrationTest, PolicyControlsReclamation) {
  sim::Simulator sim;
  RuntimeConfig config;
  config.keep_alive = 10 * kMinute;  // fixed default would keep it all run
  Machine machine(sim, config);
  resilience::FaultInjector injector{resilience::FaultPlan{}};  // no boot failures
  ContainerPool pool(machine, injector);
  HistogramKeepAlive::Options options;
  options.floor = kSecond;
  options.cap = 2 * kSecond;  // everything reclaimed within 2 s idle
  options.min_samples = 1;
  pool.set_keepalive_policy(std::make_unique<HistogramKeepAlive>(options));

  trace::FunctionProfile profile;
  profile.id = 0;
  profile.name = "f";
  pool.note_arrival(0);
  pool.provision(profile, [&pool](Container& c, SimDuration) { pool.release(c); });
  sim.run_until(kMinute);
  EXPECT_EQ(pool.live_containers(), 0u);  // reclaimed at the 2 s cap
}

TEST(ExperimentKeepAliveTest, HistogramPolicyReducesMemory) {
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 300;
  workload_spec.seed = 21;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);

  eval::ExperimentSpec fixed;
  fixed.scheduler = schedulers::SchedulerKind::kVanilla;
  const auto fixed_result = eval::run_experiment(fixed, workload);

  eval::ExperimentSpec histogram = fixed;
  histogram.keepalive = eval::KeepAliveKind::kHistogram;
  histogram.keepalive_histogram.floor = kSecond;
  histogram.keepalive_histogram.cap = 5 * kSecond;
  histogram.keepalive_histogram.min_samples = 1;
  const auto histogram_result = eval::run_experiment(histogram, workload);

  EXPECT_EQ(histogram_result.completed, 300u);
  // Aggressive reclamation lowers average memory but costs cold starts.
  EXPECT_LT(histogram_result.memory_avg_mib, fixed_result.memory_avg_mib);
  EXPECT_GE(histogram_result.cold_starts, fixed_result.cold_starts);
}

}  // namespace
}  // namespace faasbatch::runtime
