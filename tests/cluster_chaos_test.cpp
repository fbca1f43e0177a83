// Worker-level fault-domain tests for the cluster dispatch plane.
//
// The invariants under test are the plane's reason to exist:
//  * Terminal accounting: under any seeded worker-fault plan, every
//    invocation ends completed, failed, or shed — killing a worker
//    strands nothing.
//  * Determinism: two runs of the same (seed, plan, spec) produce
//    identical fault fingerprints and outcome counts.
//  * Minimal disruption: rendezvous routing moves only the dead
//    worker's keys.
//  * Zero perturbation: fault-free cluster runs are unchanged by the
//    existence of the detector.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/dispatch_plane.hpp"
#include "cluster/failure_detector.hpp"
#include "cluster/rendezvous.hpp"
#include "cluster/worker_state.hpp"
#include "trace/workload.hpp"

namespace faasbatch::cluster {
namespace {

trace::Workload workload_of(std::size_t invocations, std::size_t functions,
                            std::uint64_t seed = 17) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = invocations;
  spec.num_functions = functions;
  spec.hot_fraction = 0.5;
  spec.hot_mass = 0.9;
  spec.seed = seed;
  return trace::synthesize_workload(spec);
}

/// Fast detector so worker deaths confirm within test makespans.
FailureDetectorOptions fast_detector() {
  FailureDetectorOptions options;
  options.scan_interval = 50 * kMillisecond;
  options.suspect_after = 300 * kMillisecond;
  options.confirm_window = 200 * kMillisecond;
  return options;
}

ClusterSpec chaos_spec(schedulers::SchedulerKind scheduler,
                       double crash_rate, double stall_rate,
                       std::uint64_t seed = 99) {
  ClusterSpec spec;
  spec.workers = 4;
  spec.balancer = BalancerKind::kFunctionAffinity;
  spec.detector = fast_detector();
  spec.worker_spec.scheduler = scheduler;
  if (scheduler == schedulers::SchedulerKind::kKraken) {
    spec.worker_spec.scheduler_options.kraken_default_slo_ms = 3000.0;
  }
  spec.worker_spec.fault_plan.seed = seed;
  spec.worker_spec.fault_plan.worker_crash_rate = crash_rate;
  spec.worker_spec.fault_plan.worker_stall_rate = stall_rate;
  spec.worker_spec.fault_plan.worker_stall_multiplier = 1.0;
  spec.worker_spec.fault_plan.worker_restart_latency = 500 * kMillisecond;
  return spec;
}

void expect_terminally_accounted(const ClusterResult& result,
                                 std::size_t invocations) {
  EXPECT_EQ(result.accounted, invocations);
  EXPECT_EQ(result.completed + result.failed + result.shed, invocations);
  std::size_t worker_accounted = 0;
  for (const WorkerResult& worker : result.workers) {
    worker_accounted += worker.outcomes.accounted();
  }
  EXPECT_EQ(worker_accounted, invocations);
}

// --- Worker fault classes across every scheduler -------------------------

class WorkerChaosSweepTest
    : public ::testing::TestWithParam<schedulers::SchedulerKind> {};

TEST_P(WorkerChaosSweepTest, CrashPlanStrandsNothing) {
  const auto workload = workload_of(200, 8);
  const ClusterSpec spec = chaos_spec(GetParam(), /*crash_rate=*/0.04,
                                      /*stall_rate=*/0.0);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 200);
  EXPECT_GT(result.fault_stats.worker_crashes, 0u);
  EXPECT_GT(result.re_dispatched, 0u);
}

TEST_P(WorkerChaosSweepTest, StallPlanStrandsNothing) {
  const auto workload = workload_of(200, 8);
  const ClusterSpec spec = chaos_spec(GetParam(), /*crash_rate=*/0.0,
                                      /*stall_rate=*/0.05);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 200);
  EXPECT_GT(result.fault_stats.worker_stalls, 0u);
}

TEST_P(WorkerChaosSweepTest, CombinedPlanStrandsNothing) {
  const auto workload = workload_of(250, 8, 23);
  const ClusterSpec spec = chaos_spec(GetParam(), /*crash_rate=*/0.03,
                                      /*stall_rate=*/0.03);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 250);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, WorkerChaosSweepTest,
    ::testing::Values(schedulers::SchedulerKind::kVanilla,
                      schedulers::SchedulerKind::kKraken,
                      schedulers::SchedulerKind::kSfs,
                      schedulers::SchedulerKind::kFaasBatch));

// --- Crash / restart semantics -------------------------------------------

TEST(ClusterChaosTest, CrashedWorkersRestartCold) {
  const auto workload = workload_of(300, 8);
  const ClusterSpec spec =
      chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.05, 0.0);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 300);
  std::uint64_t crashes = 0, restarts = 0, re_dispatched = 0;
  for (const WorkerResult& worker : result.workers) {
    crashes += worker.crashes;
    restarts += worker.restarts;
    re_dispatched += worker.outcomes.re_dispatched;
  }
  EXPECT_EQ(crashes, result.fault_stats.worker_crashes);
  EXPECT_GT(restarts, 0u);
  EXPECT_EQ(re_dispatched, result.re_dispatched);
  // The death consumed an attempt: every re-dispatched invocation shows
  // the failover on its record (attempts > 1 or a terminal failure).
  EXPECT_GT(result.re_dispatched, 0u);
}

TEST(ClusterChaosTest, FailoverChargesAttemptsAndFaults) {
  const auto workload = workload_of(200, 6);
  ClusterSpec spec = chaos_spec(schedulers::SchedulerKind::kVanilla, 0.06, 0.0);
  sim::Simulator simulator;
  DispatchPlane plane(simulator, spec, workload);
  plane.start();
  simulator.run();
  const ClusterResult result = plane.finish();
  ASSERT_GT(result.fault_stats.worker_crashes, 0u);
  std::size_t with_faults = 0;
  for (const core::InvocationRecord& record : plane.records()) {
    EXPECT_TRUE(record.accounted()) << "invocation " << record.id;
    if (record.faults > 0) ++with_faults;
    if (record.outcome == core::Outcome::kCompleted && record.faults > 0) {
      // Survived a worker death: the failover attempt is on the record.
      EXPECT_GT(record.attempts, 1u);
    }
  }
  EXPECT_GT(with_faults, 0u);
}

TEST(ClusterChaosTest, SingleWorkerClusterNeverCrashesItself) {
  // The last healthy worker is spared by the crash draw, so a one-worker
  // cluster under a crash plan degenerates to a fault-free run.
  const auto workload = workload_of(100, 4);
  ClusterSpec spec = chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.5, 0.0);
  spec.workers = 1;
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 100u);
  EXPECT_EQ(result.fault_stats.worker_crashes, 0u);
}

TEST(ClusterChaosTest, StalledSingleWorkerRecoversWarm) {
  // With one worker the stall cannot be failed over; the plane must ride
  // it out — buffered completions merge at recovery, nothing is lost,
  // and the last-live guard keeps the worker suspect instead of dead.
  const auto workload = workload_of(120, 4);
  ClusterSpec spec = chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.0, 0.2);
  spec.workers = 1;
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 120u);
  EXPECT_GT(result.fault_stats.worker_stalls, 0u);
  EXPECT_EQ(result.re_dispatched, 0u);
  // Never declared dead (the run may end mid-suspicion, before a scan
  // clears the state back to kUp).
  EXPECT_EQ(result.workers[0].restarts, 0u);
  EXPECT_TRUE(result.workers[0].final_state == WorkerState::kUp ||
              result.workers[0].final_state == WorkerState::kSuspect);
}

// --- Drain / rejoin ------------------------------------------------------

TEST(ClusterChaosTest, DrainUnderLoadFinishesInFlightThenRemoves) {
  const auto workload = workload_of(300, 8);
  ClusterSpec spec;
  spec.workers = 3;
  spec.balancer = BalancerKind::kRoundRobin;
  // Default detector thresholds: generous enough that cold starts and
  // batch windows never read as silence (no false positives here — the
  // point is that draining alone is loss-free).
  spec.actions.push_back({/*at=*/50 * kMillisecond,
                          OperatorAction::Kind::kDrain, /*worker=*/1});
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 300u);  // no chaos: drain alone loses nothing
  EXPECT_EQ(result.workers[1].final_state, WorkerState::kDrained);
  // Work arriving after the drain spread over the two survivors.
  EXPECT_LT(result.workers[1].routed, result.workers[0].routed);
}

TEST(ClusterChaosTest, DrainedWorkerRejoinsAndServes) {
  const auto workload = workload_of(300, 8);
  ClusterSpec spec;
  spec.workers = 2;
  spec.balancer = BalancerKind::kRoundRobin;
  spec.actions.push_back({/*at=*/20 * kMillisecond,
                          OperatorAction::Kind::kDrain, /*worker=*/0});
  spec.actions.push_back({/*at=*/200 * kMillisecond,
                          OperatorAction::Kind::kRejoin, /*worker=*/0});
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(result.workers[0].final_state, WorkerState::kUp);
  EXPECT_GT(result.workers[0].routed, 0u);
}

// --- Rendezvous stability ------------------------------------------------

TEST(ClusterChaosTest, RendezvousMovesOnlyTheDeadWorkersKeys) {
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  for (const std::size_t killed : all) {
    std::vector<std::size_t> survivors;
    for (const std::size_t w : all) {
      if (w != killed) survivors.push_back(w);
    }
    std::size_t moved = 0;
    for (FunctionId function = 0; function < 1000; ++function) {
      const std::size_t before = rendezvous_pick(function, all);
      const std::size_t after = rendezvous_pick(function, survivors);
      if (before != killed) {
        EXPECT_EQ(after, before) << "function " << function
                                 << " moved without its worker dying";
      } else {
        EXPECT_NE(after, killed);
        ++moved;
      }
    }
    EXPECT_GT(moved, 0u) << "worker " << killed << " owned no keys";
  }
}

TEST(ClusterChaosTest, RendezvousSpreadsKeysAcrossWorkers) {
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  std::map<std::size_t, std::size_t> owned;
  for (FunctionId function = 0; function < 1000; ++function) {
    ++owned[rendezvous_pick(function, all)];
  }
  ASSERT_EQ(owned.size(), all.size());
  for (const auto& [worker, keys] : owned) {
    EXPECT_GT(keys, 100u) << "worker " << worker;  // ~250 expected
  }
}

// --- Determinism ---------------------------------------------------------

TEST(ClusterChaosTest, DoubleRunFingerprintIsIdentical) {
  const auto workload = workload_of(250, 8, 31);
  for (const auto balancer :
       {BalancerKind::kRoundRobin, BalancerKind::kLeastOutstanding,
        BalancerKind::kFunctionAffinity}) {
    ClusterSpec spec =
        chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.04, 0.04);
    spec.balancer = balancer;
    const ClusterResult first = run_cluster_experiment(spec, workload);
    const ClusterResult second = run_cluster_experiment(spec, workload);
    EXPECT_EQ(first.chaos_fingerprint, second.chaos_fingerprint)
        << balancer_kind_name(balancer);
    EXPECT_EQ(first.fault_stats.fingerprint(), second.fault_stats.fingerprint());
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.failed, second.failed);
    EXPECT_EQ(first.re_dispatched, second.re_dispatched);
    EXPECT_EQ(first.makespan, second.makespan);
    for (std::size_t w = 0; w < spec.workers; ++w) {
      EXPECT_EQ(first.workers[w].outcomes.fingerprint(),
                second.workers[w].outcomes.fingerprint());
      EXPECT_EQ(first.workers[w].final_state, second.workers[w].final_state);
    }
  }
}

TEST(ClusterChaosTest, DifferentSeedsDiverge) {
  const auto workload = workload_of(250, 8, 31);
  const ClusterResult a = run_cluster_experiment(
      chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.04, 0.04, 1), workload);
  const ClusterResult b = run_cluster_experiment(
      chaos_spec(schedulers::SchedulerKind::kFaasBatch, 0.04, 0.04, 2), workload);
  EXPECT_NE(a.chaos_fingerprint, b.chaos_fingerprint);
}

// --- No-chaos regression: the detector must not perturb plain runs -------

TEST(ClusterChaosTest, FaultFreeRunsMatchWithAndWithoutDetectorThresholds) {
  const auto workload = workload_of(200, 8);
  ClusterSpec spec;
  spec.workers = 3;
  spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  const ClusterResult base = run_cluster_experiment(spec, workload);

  ClusterSpec tight = spec;
  tight.detector = fast_detector();  // thresholds differ, plan is empty
  const ClusterResult tuned = run_cluster_experiment(tight, workload);
  EXPECT_EQ(base.makespan, tuned.makespan);
  EXPECT_EQ(base.total_containers(), tuned.total_containers());
  EXPECT_EQ(base.chaos_fingerprint, tuned.chaos_fingerprint);
  EXPECT_EQ(base.completed, 200u);
  EXPECT_EQ(base.re_dispatched, 0u);
  for (const WorkerResult& worker : base.workers) {
    EXPECT_EQ(worker.final_state, WorkerState::kUp);
    EXPECT_EQ(worker.crashes, 0u);
  }
}

// Cluster-vs-single differential: a one-worker cluster under
// container-level chaos is the single-node experiment — same outcomes,
// same injected faults, same makespan.
TEST(ClusterChaosTest, SingleWorkerContainerChaosMatchesStandalone) {
  const auto workload = workload_of(150, 6);
  ClusterSpec spec;
  spec.workers = 1;
  spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  spec.worker_spec.fault_plan.seed = 7;
  spec.worker_spec.fault_plan.container_crash_rate = 0.05;
  spec.worker_spec.fault_plan.exec_error_rate = 0.05;
  const ClusterResult cluster = run_cluster_experiment(spec, workload);
  const eval::ExperimentResult standalone =
      eval::run_experiment(spec.worker_spec, workload);
  EXPECT_EQ(cluster.completed, standalone.completed);
  EXPECT_EQ(cluster.failed, standalone.failed);
  EXPECT_EQ(cluster.shed, standalone.shed);
  EXPECT_EQ(cluster.makespan, standalone.makespan);
  EXPECT_EQ(cluster.fault_stats.fingerprint(),
            standalone.fault_stats.fingerprint());
  EXPECT_GT(cluster.fault_stats.total(), 0u);
}

// --- Pull scheduling under chaos -----------------------------------------

/// Bounded-capacity pull spec over the fast-detector chaos base: real
/// backlogs form (pull_batch > worker_capacity), so worker deaths hit
/// mid-pull and mid-steal state, not just injected work.
ClusterSpec pull_chaos_spec(double crash_rate, double stall_rate,
                            std::uint64_t seed = 99) {
  ClusterSpec spec =
      chaos_spec(schedulers::SchedulerKind::kFaasBatch, crash_rate, stall_rate,
                 seed);
  spec.pull.worker_capacity = 6;
  spec.pull.pull_batch = 16;
  spec.pull.steal.min_victim_backlog = 4;
  spec.pull.steal.steal_fraction = 0.5;
  spec.pull.steal.max_steal = 8;
  return spec;
}

trace::Workload skewed_workload_of(std::size_t invocations,
                                   std::uint64_t seed) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = invocations;
  spec.num_functions = 10;
  spec.hot_fraction = 0.1;
  spec.hot_mass = 0.9;
  spec.seed = seed;
  return trace::synthesize_workload(spec);
}

TEST(ClusterChaosTest, PullCrashPlanStrandsNothing) {
  // Workers die while holding stealable backlog: the backlog returns to
  // the queue head uncharged (requeues counted), injected work fails
  // over through the retry policy, and everything terminally accounts.
  const auto workload = skewed_workload_of(400, 43);
  const ClusterSpec spec = pull_chaos_spec(/*crash_rate=*/0.04,
                                           /*stall_rate=*/0.0);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 400);
  EXPECT_GT(result.fault_stats.worker_crashes, 0u);
  EXPECT_GT(result.transfer.pulls, 0u);
  EXPECT_GT(result.transfer.steals, 0u);
  EXPECT_GT(result.transfer.requeued, 0u);
}

TEST(ClusterChaosTest, PullCombinedPlanStrandsNothing) {
  const auto workload = skewed_workload_of(400, 41);
  const ClusterSpec spec = pull_chaos_spec(/*crash_rate=*/0.03,
                                           /*stall_rate=*/0.03);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  expect_terminally_accounted(result, 400);
  EXPECT_GT(result.transfer.pulls, 0u);
}

TEST(ClusterChaosTest, PullDrainRequeuesBacklogLossFree) {
  // Draining a worker returns its unstarted backlog to the queue; with
  // no fault classes in the plan the run must stay loss-free.
  const auto workload = skewed_workload_of(300, 47);
  ClusterSpec spec;
  spec.workers = 3;
  spec.pull.worker_capacity = 4;
  spec.pull.pull_batch = 16;
  spec.actions.push_back({/*at=*/50 * kMillisecond,
                          OperatorAction::Kind::kDrain, /*worker=*/1});
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(result.workers[1].final_state, WorkerState::kDrained);
}

TEST(ClusterChaosTest, PullDoubleRunFingerprintIsIdentical) {
  // The headline determinism gate with stealing in play: two runs of
  // the same (seed, plan, spec) must match byte-for-byte — fault
  // fingerprints, transfer counts, and per-worker outcome hashes.
  const auto workload = skewed_workload_of(400, 53);
  const ClusterSpec spec = pull_chaos_spec(0.04, 0.04, /*seed=*/5);
  const ClusterResult first = run_cluster_experiment(spec, workload);
  const ClusterResult second = run_cluster_experiment(spec, workload);
  ASSERT_GT(first.transfer.steals, 0u);  // the gate is vacuous otherwise
  EXPECT_EQ(first.chaos_fingerprint, second.chaos_fingerprint);
  EXPECT_EQ(first.fault_stats.fingerprint(), second.fault_stats.fingerprint());
  EXPECT_EQ(first.transfer.fingerprint(), second.transfer.fingerprint());
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.makespan, second.makespan);
  for (std::size_t w = 0; w < spec.workers; ++w) {
    EXPECT_EQ(first.workers[w].outcomes.fingerprint(),
              second.workers[w].outcomes.fingerprint());
    EXPECT_EQ(first.workers[w].transfer.fingerprint(),
              second.workers[w].transfer.fingerprint());
  }
}

// --- Failure detector unit tests -----------------------------------------

TEST(FailureDetectorTest, IdleWorkersAreAlwaysHealthy) {
  FailureDetector detector(fast_detector(), 1);
  EXPECT_EQ(detector.assess(0, 10 * kSecond, 0), HealthVerdict::kHealthy);
}

TEST(FailureDetectorTest, BusySilenceTurnsSuspectThenDead) {
  const FailureDetectorOptions options = fast_detector();
  FailureDetector detector(options, 1);
  detector.note_dispatch(0, 0, 0);  // busy period starts at t=0
  EXPECT_EQ(detector.assess(0, options.suspect_after, 1),
            HealthVerdict::kHealthy);
  const SimTime suspect_at = options.suspect_after + kMillisecond;
  EXPECT_EQ(detector.assess(0, suspect_at, 1), HealthVerdict::kSuspect);
  EXPECT_EQ(detector.assess(0, suspect_at + options.confirm_window, 1),
            HealthVerdict::kDead);
}

TEST(FailureDetectorTest, BeatClearsSuspicion) {
  const FailureDetectorOptions options = fast_detector();
  FailureDetector detector(options, 1);
  detector.note_dispatch(0, 0, 0);
  const SimTime suspect_at = options.suspect_after + kMillisecond;
  EXPECT_EQ(detector.assess(0, suspect_at, 1), HealthVerdict::kSuspect);
  detector.beat(0, suspect_at + kMillisecond);
  EXPECT_EQ(detector.assess(0, suspect_at + 2 * kMillisecond, 1),
            HealthVerdict::kHealthy);
}

TEST(FailureDetectorTest, DispatchIntoBusyWorkerDoesNotRefreshLiveness) {
  // A wedged worker keeps accepting; only 0 -> 1 transitions re-anchor.
  const FailureDetectorOptions options = fast_detector();
  FailureDetector detector(options, 1);
  detector.note_dispatch(0, 0, 0);
  detector.note_dispatch(0, options.suspect_after, 1);  // already busy
  EXPECT_EQ(detector.assess(0, options.suspect_after + kMillisecond, 2),
            HealthVerdict::kSuspect);
}

TEST(ClusterChaosTest, WorkerStateNames) {
  EXPECT_EQ(worker_state_name(WorkerState::kUp), "up");
  EXPECT_EQ(worker_state_name(WorkerState::kSuspect), "suspect");
  EXPECT_EQ(worker_state_name(WorkerState::kDraining), "draining");
  EXPECT_EQ(worker_state_name(WorkerState::kDead), "dead");
  EXPECT_EQ(worker_state_name(WorkerState::kDrained), "drained");
}

}  // namespace
}  // namespace faasbatch::cluster
