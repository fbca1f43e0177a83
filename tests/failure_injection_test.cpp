// Failure-injection tests: cold-start failures with automatic retry.
// Boot failures come from a FaultInjector (FaultPlan::
// cold_start_failure_rate), like every other injected fault.
#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "resilience/fault_injector.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::runtime {
namespace {

trace::FunctionProfile profile() {
  trace::FunctionProfile p;
  p.id = 0;
  p.name = "f";
  p.kind = trace::FunctionKind::kCpuIntensive;
  p.duration_ms = 10.0;
  return p;
}

resilience::FaultInjector boot_failures(double rate) {
  resilience::FaultPlan plan;
  plan.cold_start_failure_rate = rate;
  return resilience::FaultInjector(plan);
}

TEST(FailureInjectionTest, ZeroRateNeverFails) {
  sim::Simulator sim;
  RuntimeConfig config;
  Machine machine(sim, config);
  resilience::FaultInjector injector = boot_failures(0.0);
  ContainerPool pool(machine, injector);
  for (int i = 0; i < 20; ++i) {
    pool.provision(profile(), [](Container&, SimDuration) {});
  }
  sim.run_until(kMinute);
  EXPECT_EQ(pool.stats().failed_starts, 0u);
  EXPECT_EQ(pool.stats().total_provisioned, 20u);
}

TEST(FailureInjectionTest, FailuresRetryUntilSuccess) {
  sim::Simulator sim;
  RuntimeConfig config;
  Machine machine(sim, config);
  resilience::FaultInjector injector = boot_failures(0.5);
  ContainerPool pool(machine, injector);
  int ready = 0;
  for (int i = 0; i < 20; ++i) {
    pool.provision(profile(), [&ready](Container& container, SimDuration latency) {
      ++ready;
      EXPECT_EQ(container.state(), ContainerState::kActive);
      EXPECT_GT(latency, 0);
    });
  }
  sim.run_until(10 * kMinute);
  EXPECT_EQ(ready, 20);
  const PoolStats stats = pool.stats();
  EXPECT_GT(stats.failed_starts, 0u);
  EXPECT_EQ(injector.stats().cold_start_failures, stats.failed_starts);
  // Every failed attempt re-provisioned.
  EXPECT_EQ(stats.total_provisioned, 20u + stats.failed_starts);
  // Live containers are only the successful ones.
  EXPECT_EQ(pool.live_containers(), 20u);
}

TEST(FailureInjectionTest, FailedAttemptsReleaseMemory) {
  sim::Simulator sim;
  RuntimeConfig config;
  Machine machine(sim, config);
  resilience::FaultInjector injector = boot_failures(0.7);
  ContainerPool pool(machine, injector);
  int ready = 0;
  for (int i = 0; i < 10; ++i) {
    pool.provision(profile(), [&ready](Container&, SimDuration) { ++ready; });
  }
  sim.run_until(10 * kMinute);
  ASSERT_EQ(ready, 10);
  // Resident memory = platform + exactly the 10 successful containers.
  EXPECT_EQ(machine.memory_in_use(),
            config.platform_base_memory + 10 * config.container_base_memory);
}

TEST(FailureInjectionTest, RetriesInflateColdStartLatency) {
  const auto run_with = [](double rate) {
    sim::Simulator sim;
    RuntimeConfig config;
    Machine machine(sim, config);
    resilience::FaultInjector injector = boot_failures(rate);
    ContainerPool pool(machine, injector);
    SimDuration latency = 0;
    pool.provision(profile(),
                   [&latency](Container&, SimDuration l) { latency = l; });
    sim.run_until(10 * kMinute);
    return latency;
  };
  // Seeded stream: rate 0.95 virtually guarantees at least one retry.
  EXPECT_GT(run_with(0.95), run_with(0.0));
}

TEST(FailureInjectionTest, DeterministicForSeed) {
  const auto run_once = [] {
    sim::Simulator sim;
    RuntimeConfig config;
    Machine machine(sim, config);
    resilience::FaultInjector injector = boot_failures(0.5);
    ContainerPool pool(machine, injector);
    for (int i = 0; i < 10; ++i) {
      pool.provision(profile(), [](Container&, SimDuration) {});
    }
    sim.run_until(10 * kMinute);
    return pool.stats().failed_starts;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FailureInjectionTest, EndToEndExperimentStillCompletes) {
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 100;
  workload_spec.seed = 5;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);
  std::uint64_t boot_failures = 0;
  for (const auto kind : {schedulers::SchedulerKind::kVanilla,
                          schedulers::SchedulerKind::kFaasBatch}) {
    eval::ExperimentSpec spec;
    spec.scheduler = kind;
    spec.fault_plan.cold_start_failure_rate = 0.3;
    const auto result = eval::run_experiment(spec, workload);
    EXPECT_EQ(result.completed, 100u) << schedulers::scheduler_kind_name(kind);
    EXPECT_GT(result.cold_starts, result.containers_provisioned -
                                      result.cold_starts);  // sanity: counted
    // Boot failures are chaos faults: counted, and replayed exactly.
    boot_failures += result.fault_stats.cold_start_failures;
    EXPECT_EQ(eval::run_experiment(spec, workload).chaos_fingerprint,
              result.chaos_fingerprint)
        << schedulers::scheduler_kind_name(kind);
  }
  // Vanilla boots one container per invocation, so failures are certain
  // there; FaaSBatch's dozen boots may all succeed.
  EXPECT_GT(boot_failures, 0u);
}

}  // namespace
}  // namespace faasbatch::runtime
