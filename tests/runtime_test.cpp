// Tests for the container runtime: machine gauges, container memory
// accounting, pool provisioning, warm reuse, and keep-alive reclamation.
#include <gtest/gtest.h>

#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::runtime {
namespace {

trace::FunctionProfile cpu_profile(FunctionId id = 0) {
  trace::FunctionProfile profile;
  profile.id = id;
  profile.name = "fib_" + std::to_string(id);
  profile.kind = trace::FunctionKind::kCpuIntensive;
  profile.duration_ms = 10.0;
  return profile;
}

struct Fixture {
  sim::Simulator sim;
  RuntimeConfig config;
  Machine machine;
  resilience::FaultInjector injector{resilience::FaultPlan{}};  // no boot failures
  ContainerPool pool;

  explicit Fixture(RuntimeConfig cfg = {})
      : config(cfg), machine(sim, cfg), pool(machine, injector) {}
};

TEST(MachineTest, StartsWithPlatformMemory) {
  Fixture f;
  EXPECT_EQ(f.machine.memory_in_use(), f.config.platform_base_memory);
}

TEST(MachineTest, MemoryAccountingAndPeak) {
  Fixture f;
  f.machine.add_memory(from_mib(100));
  f.machine.add_memory(-from_mib(40));
  EXPECT_EQ(f.machine.memory_in_use(), f.config.platform_base_memory + from_mib(60));
  EXPECT_EQ(f.machine.memory_peak(), f.config.platform_base_memory + from_mib(100));
  EXPECT_THROW(f.machine.add_memory(-from_mib(100000)), std::logic_error);
}

TEST(MachineTest, CpuUtilizationReflectsWork) {
  Fixture f;
  f.machine.cpu().submit(32.0, 32.0, sim::CpuScheduler::kNoGroup, [] {});
  f.sim.run();
  // 32 core-seconds on 32 cores in 1 s: 100% utilisation over 1 s.
  EXPECT_NEAR(f.machine.cpu_utilization(kSecond), 1.0, 0.01);
  EXPECT_NEAR(f.machine.cpu_utilization(2 * kSecond), 0.5, 0.01);
}

TEST(ContainerPoolTest, ProvisionPaysColdStart) {
  Fixture f;
  SimDuration cold = -1;
  f.pool.provision(cpu_profile(), [&](Container& container, SimDuration latency) {
    cold = latency;
    EXPECT_EQ(container.state(), ContainerState::kActive);
    EXPECT_NE(container.cpu_group(), sim::CpuScheduler::kNoGroup);
  });
  f.sim.run();
  // Base 500 ms + 1.5 core-seconds at full speed.
  EXPECT_NEAR(to_millis(cold), 500.0 + 1500.0, 5.0);
  EXPECT_EQ(f.pool.stats().total_provisioned, 1u);
  EXPECT_EQ(f.pool.stats().cold_starts, 1u);
}

TEST(ContainerPoolTest, ConcurrentColdStartsContend) {
  Fixture f;
  std::vector<SimDuration> colds;
  constexpr int kContainers = 64;  // 64 * 1.5 core-s on 32 cores
  for (int i = 0; i < kContainers; ++i) {
    f.pool.provision(cpu_profile(), [&](Container&, SimDuration latency) {
      colds.push_back(latency);
    });
  }
  f.sim.run();
  ASSERT_EQ(colds.size(), static_cast<std::size_t>(kContainers));
  // Each container's CPU part runs at ~0.5 cores: ~3 s + base.
  for (SimDuration c : colds) EXPECT_GT(to_millis(c), 3000.0);
}

TEST(ContainerPoolTest, WarmReuseSkipsColdStart) {
  Fixture f;
  Container* provisioned = nullptr;
  f.pool.provision(cpu_profile(), [&](Container& container, SimDuration) {
    provisioned = &container;
    f.pool.release(container);
  });
  // Stop short of the keep-alive horizon so the container stays warm.
  f.sim.run_until(5 * kSecond);
  EXPECT_TRUE(f.pool.has_idle(0));
  Container* warm = f.pool.try_acquire_warm(0);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm, provisioned);
  EXPECT_EQ(warm->state(), ContainerState::kActive);
  EXPECT_FALSE(f.pool.has_idle(0));
  EXPECT_EQ(f.pool.stats().warm_hits, 1u);
}

TEST(ContainerPoolTest, AcquirePrefersWarm) {
  Fixture f;
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { f.pool.release(c); });
  f.sim.run_until(5 * kSecond);
  SimDuration cold = -1;
  f.pool.acquire(cpu_profile(), [&](Container&, SimDuration latency) { cold = latency; });
  f.sim.run_until(10 * kSecond);
  EXPECT_EQ(cold, 0);
  EXPECT_EQ(f.pool.stats().total_provisioned, 1u);
}

TEST(ContainerPoolTest, WarmLookupIsPerFunction) {
  Fixture f;
  f.pool.provision(cpu_profile(0), [&](Container& c, SimDuration) { f.pool.release(c); });
  f.sim.run_until(5 * kSecond);
  EXPECT_EQ(f.pool.try_acquire_warm(1), nullptr);
  EXPECT_NE(f.pool.try_acquire_warm(0), nullptr);
}

TEST(ContainerPoolTest, KeepAliveReclaimsIdleContainers) {
  RuntimeConfig config;
  config.keep_alive = 5 * kSecond;
  Fixture f(config);
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { f.pool.release(c); });
  f.sim.run_until(3 * kSecond);
  EXPECT_EQ(f.pool.live_containers(), 1u);
  const Bytes before = f.machine.memory_in_use();
  f.sim.run();  // lets the keep-alive expiry fire
  EXPECT_EQ(f.pool.live_containers(), 0u);
  EXPECT_FALSE(f.pool.has_idle(0));
  EXPECT_LT(f.machine.memory_in_use(), before);
  EXPECT_EQ(f.machine.memory_in_use(), f.config.platform_base_memory);
}

TEST(ContainerPoolTest, ReuseCancelsExpiry) {
  RuntimeConfig config;
  config.keep_alive = 5 * kSecond;
  Fixture f(config);
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { f.pool.release(c); });
  f.sim.run_until(3 * kSecond);
  Container* warm = f.pool.try_acquire_warm(0);
  ASSERT_NE(warm, nullptr);
  f.sim.run();  // old expiry must not reclaim the active container
  EXPECT_EQ(f.pool.live_containers(), 1u);
}

TEST(ContainerTest, MemoryAccounting) {
  Fixture f;
  Container* container = nullptr;
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { container = &c; });
  const Bytes after_provision = f.machine.memory_in_use();
  EXPECT_EQ(after_provision,
            f.config.platform_base_memory + f.config.container_base_memory);
  f.sim.run();
  ASSERT_NE(container, nullptr);
  container->begin_invocation();
  container->begin_invocation();
  EXPECT_EQ(container->active_invocations(), 2u);
  EXPECT_EQ(f.machine.memory_in_use(),
            after_provision + 2 * f.config.per_invocation_memory);
  container->add_client_memory(from_mib(15));
  EXPECT_EQ(container->client_memory(), from_mib(15));
  container->end_invocation();
  container->end_invocation();
  EXPECT_EQ(container->served(), 2u);
  EXPECT_EQ(f.machine.memory_in_use(),
            after_provision + from_mib(15));
}

TEST(ContainerTest, CpuCapDefaultsToMachine) {
  Fixture f;
  Container* container = nullptr;
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { container = &c; });
  f.sim.run();
  EXPECT_DOUBLE_EQ(container->cpu_cap(), f.config.machine_cores);
}

TEST(ContainerTest, CustomerCpuLimitHonoured) {
  Fixture f;
  trace::FunctionProfile profile = cpu_profile();
  profile.cpu_limit_cores = 2.0;
  Container* container = nullptr;
  f.pool.provision(profile, [&](Container& c, SimDuration) { container = &c; });
  f.sim.run();
  EXPECT_DOUBLE_EQ(container->cpu_cap(), 2.0);
  // Work through the cpuset is limited to 2 cores.
  const SimTime start = f.sim.now();
  double done_at = 0;
  for (int i = 0; i < 4; ++i) {
    f.machine.cpu().submit(1.0, 1.0, container->cpu_group(),
                           [&] { done_at = to_seconds(f.sim.now() - start); });
  }
  f.sim.run();
  EXPECT_NEAR(done_at, 2.0, 0.01);
}

TEST(ContainerPoolTest, ReleaseRequiresQuiescence) {
  Fixture f;
  Container* container = nullptr;
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { container = &c; });
  f.sim.run();
  container->begin_invocation();
  EXPECT_THROW(f.pool.release(*container), std::logic_error);
  container->end_invocation();
  EXPECT_NO_THROW(f.pool.release(*container));
}

TEST(ContainerPoolTest, StatsAggregateAcrossReclaim) {
  RuntimeConfig config;
  config.keep_alive = kSecond;
  Fixture f(config);
  f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) {
    c.begin_invocation();
    c.end_invocation();
    c.count_client_creation();
    c.add_client_memory(from_mib(15));
    f.pool.release(c);
  });
  f.sim.run();  // provision + reclaim
  EXPECT_EQ(f.pool.live_containers(), 0u);
  const PoolStats stats = f.pool.stats();
  EXPECT_EQ(stats.total_served, 1u);
  EXPECT_EQ(stats.total_client_creations, 1u);
  EXPECT_EQ(stats.total_client_memory, from_mib(15));
}

TEST(ContainerPoolTest, LiveGaugeTracksPopulation) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.pool.provision(cpu_profile(), [&](Container& c, SimDuration) { f.pool.release(c); });
  }
  f.sim.run_until(10 * kSecond);
  EXPECT_DOUBLE_EQ(f.pool.live_gauge().peak(), 3.0);
}

}  // namespace
}  // namespace faasbatch::runtime
