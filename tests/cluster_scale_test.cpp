// Scale gate for pull-based cluster scheduling: a 1M-invocation skewed
// workload across 16 simulated workers must complete with every
// invocation terminally accounted, steals actually occurring, and
// byte-identical fault fingerprints across two seeded runs.
//
// This is the acceptance run for the pull plane, sized to stress the
// structures the small tests cannot: a pending queue that stays deep
// for most of the run, thousands of pull/steal/requeue rounds, and
// crash-driven backlog reclaims interleaved with failover re-dispatch.
// Under ASan the workload shrinks (instrumentation costs ~10x wall
// time); the invariants are identical at either size.

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/failure_detector.hpp"
#include "trace/workload.hpp"

namespace faasbatch::cluster {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kInvocations = 50'000;
#else
constexpr std::size_t kInvocations = 1'000'000;
#endif
constexpr std::size_t kWorkers = 16;

trace::Workload scale_workload() {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = kInvocations;
  // Stretch the horizon with the invocation count so the arrival rate
  // stays near (not hopelessly past) the cluster's service capacity —
  // the regime where pulls and steals actually contend.
  spec.horizon = kMinute * static_cast<SimDuration>(
      kInvocations / 50'000 == 0 ? 1 : kInvocations / 50'000);
  spec.num_functions = 32;
  spec.hot_fraction = 0.1;
  spec.hot_mass = 0.9;  // ~90% of arrivals on ~3 hot functions
  spec.seed = 2024;
  return trace::synthesize_workload(spec);
}

ClusterSpec scale_spec() {
  ClusterSpec spec;
  spec.workers = kWorkers;
  spec.balancer = BalancerKind::kFunctionAffinity;
  spec.pull.worker_capacity = 8;
  spec.pull.pull_batch = 32;
  spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  // A light crash plan: enough deaths to exercise backlog requeue and
  // failover at scale, few enough that zombie instances (each holding a
  // full private records vector) stay within test memory budgets.
  FailureDetectorOptions detector;
  detector.scan_interval = 500 * kMillisecond;
  detector.suspect_after = 3 * kSecond;
  detector.confirm_window = 2 * kSecond;
  spec.detector = detector;
  spec.worker_spec.fault_plan.seed = 7;
  spec.worker_spec.fault_plan.worker_crash_rate = 0.0002;
  spec.worker_spec.fault_plan.worker_stall_multiplier = 1.0;
  spec.worker_spec.fault_plan.worker_restart_latency = 2 * kSecond;
  return spec;
}

TEST(ClusterScaleTest, MillionInvocationSkewedPullRunIsExactAndDeterministic) {
  const trace::Workload workload = scale_workload();
  const ClusterSpec spec = scale_spec();

  const ClusterResult first = run_cluster_experiment(spec, workload);

  // Terminal accounting: nothing stranded across ~10^6 invocations,
  // worker deaths, backlog reclaims, and steals.
  EXPECT_EQ(first.accounted, kInvocations);
  EXPECT_EQ(first.completed + first.failed + first.shed, kInvocations);
  std::size_t worker_accounted = 0;
  for (const WorkerResult& worker : first.workers) {
    worker_accounted += worker.outcomes.accounted();
  }
  EXPECT_EQ(worker_accounted, kInvocations);

  // The run exercised what it claims to: late binding, stealing, crash
  // failover, and backlog requeue all fired.
  EXPECT_GT(first.transfer.pulls, 0u);
  EXPECT_GT(first.transfer.steals, 0u);
  EXPECT_GT(first.transfer.stolen, 0u);
  EXPECT_GT(first.fault_stats.worker_crashes, 0u);
  EXPECT_GT(first.transfer.requeued, 0u);

  // Byte-identical replay: the whole pull/steal/failover history folds
  // into the fingerprints, so one flipped decision anywhere diverges.
  const ClusterResult second = run_cluster_experiment(spec, workload);
  EXPECT_EQ(first.chaos_fingerprint, second.chaos_fingerprint);
  EXPECT_EQ(first.fault_stats.fingerprint(), second.fault_stats.fingerprint());
  EXPECT_EQ(first.transfer.fingerprint(), second.transfer.fingerprint());
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.makespan, second.makespan);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(first.workers[w].outcomes.fingerprint(),
              second.workers[w].outcomes.fingerprint());
    EXPECT_EQ(first.workers[w].transfer.fingerprint(),
              second.workers[w].transfer.fingerprint());
  }
}

}  // namespace
}  // namespace faasbatch::cluster
