// Randomized stress tests: many seeds, all schedulers, full-system
// invariants. These are the "simulation never wedges, leaks, or
// mis-stamps" guarantees, checked over workloads the unit tests don't
// enumerate by hand.
#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "eval/worker.hpp"
#include "trace/workload.hpp"

namespace faasbatch::eval {
namespace {

struct StressCase {
  std::uint64_t seed;
  schedulers::SchedulerKind scheduler;
  trace::FunctionKind kind;
};

class SchedulerStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(SchedulerStressTest, FullSystemInvariants) {
  const StressCase param = GetParam();
  trace::WorkloadSpec workload_spec;
  workload_spec.kind = param.kind;
  workload_spec.invocations = 150;
  workload_spec.num_functions = 6;
  workload_spec.seed = param.seed;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);

  ExperimentSpec spec;
  spec.scheduler = param.scheduler;
  spec.scheduler_options.kraken_default_slo_ms = 2000.0;
  // Vary a couple of knobs off the seed to widen coverage.
  spec.scheduler_options.dispatch_window =
      from_millis(50.0 + static_cast<double>(param.seed % 5) * 100.0);
  if (param.seed % 3 == 0) spec.fault_plan.cold_start_failure_rate = 0.2;
  if (param.seed % 2 == 0) spec.scheduler_options.faasbatch_max_group = 16;

  const ExperimentResult result = run_experiment(spec, workload);

  // 1. Conservation: every invocation completes exactly once.
  EXPECT_EQ(result.completed, workload.events.size());

  // 2. Phase stamps are ordered and finite for every record.
  for (const core::InvocationRecord& record : result.records) {
    EXPECT_TRUE(record.completed);
    EXPECT_GE(record.dispatched, record.arrival);
    EXPECT_GE(record.exec_start, record.dispatched);
    EXPECT_GT(record.exec_end, record.exec_start);
    EXPECT_GE(record.cold_start, 0);
    EXPECT_LE(record.exec_end, result.makespan);
  }

  // 3. Resource sanity.
  EXPECT_GT(result.containers_provisioned, 0u);
  EXPECT_GE(result.warm_hits + result.containers_provisioned,
            0u);  // counters consistent
  EXPECT_GE(result.memory_peak_mib, result.memory_avg_mib);
  EXPECT_GE(result.memory_avg_mib, 512.0);  // platform base always resident
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LE(result.cpu_utilization, 1.0 + 1e-9);

  // 4. Aggregate latency counts match the record count.
  EXPECT_EQ(result.latency.count(), workload.events.size());
  EXPECT_EQ(result.response_ms.count(), workload.events.size());
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  const schedulers::SchedulerKind kinds[] = {
      schedulers::SchedulerKind::kVanilla, schedulers::SchedulerKind::kKraken,
      schedulers::SchedulerKind::kSfs, schedulers::SchedulerKind::kFaasBatch};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto kind : kinds) {
      cases.push_back({seed, kind, trace::FunctionKind::kCpuIntensive});
      cases.push_back({seed + 100, kind, trace::FunctionKind::kIo});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStressTest,
                         ::testing::ValuesIn(stress_cases()));

TEST(MemoryDrainTest, MemoryReturnsToPlatformBaseAfterKeepAlive) {
  // After the run AND the keep-alive horizon, every container is
  // reclaimed and resident memory returns exactly to the platform base —
  // the accounting-leak detector for the whole runtime.
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 120;
  workload_spec.seed = 31;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);

  for (const auto kind : {schedulers::SchedulerKind::kVanilla,
                          schedulers::SchedulerKind::kFaasBatch}) {
    sim::Simulator simulator;
    ExperimentSpec spec;
    spec.scheduler = kind;
    spec.runtime.keep_alive = 30 * kSecond;
    resilience::ChaosEngine chaos;
    std::size_t completed = 0;
    Worker worker(simulator, spec, workload, chaos,
                  [&completed](InvocationId) { ++completed; });
    for (std::size_t i = 0; i < workload.events.size(); ++i) {
      const InvocationId id = static_cast<InvocationId>(i);
      simulator.schedule_at(workload.events[i].arrival,
                            [&worker, id] { worker.arrive(id); });
    }
    simulator.run();  // drains execution AND keep-alive expiries
    EXPECT_EQ(completed, workload.events.size());
    EXPECT_EQ(worker.pool().live_containers(), 0u)
        << schedulers::scheduler_kind_name(kind);
    EXPECT_EQ(worker.machine().memory_in_use(), spec.runtime.platform_base_memory)
        << schedulers::scheduler_kind_name(kind);
  }
}

TEST(MaxGroupTest, BoundedGroupsSplitContainers) {
  trace::Workload workload;
  workload.kind = trace::FunctionKind::kCpuIntensive;
  trace::FunctionProfile profile;
  profile.id = 0;
  profile.name = "f";
  profile.duration_ms = 100.0;
  workload.functions.push_back(profile);
  for (std::size_t i = 0; i < 40; ++i) {
    workload.events.push_back(trace::TraceEvent{0, 0, 100.0, 25});
  }
  workload.horizon = kMinute;

  ExperimentSpec unbounded;
  unbounded.scheduler = schedulers::SchedulerKind::kFaasBatch;
  EXPECT_EQ(run_experiment(unbounded, workload).containers_provisioned, 1u);

  ExperimentSpec bounded = unbounded;
  bounded.scheduler_options.faasbatch_max_group = 10;
  const auto result = run_experiment(bounded, workload);
  EXPECT_EQ(result.containers_provisioned, 4u);
  EXPECT_EQ(result.completed, 40u);
}

TEST(MaxGroupTest, BoundOfOneDegradesTowardVanilla) {
  trace::Workload workload;
  workload.kind = trace::FunctionKind::kCpuIntensive;
  trace::FunctionProfile profile;
  profile.id = 0;
  profile.name = "f";
  profile.duration_ms = 2000.0;
  workload.functions.push_back(profile);
  for (std::size_t i = 0; i < 8; ++i) {
    workload.events.push_back(trace::TraceEvent{0, 0, 2000.0, 30});
  }
  workload.horizon = kMinute;

  ExperimentSpec spec;
  spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  spec.scheduler_options.faasbatch_max_group = 1;
  const auto result = run_experiment(spec, workload);
  // One container per invocation, exactly like Vanilla under a burst.
  EXPECT_EQ(result.containers_provisioned, 8u);
}

}  // namespace
}  // namespace faasbatch::eval
