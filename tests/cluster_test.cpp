// Tests for the multi-worker cluster extension.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/rendezvous.hpp"
#include "trace/workload.hpp"

namespace faasbatch::cluster {
namespace {

trace::Workload workload_of(std::size_t invocations, std::size_t functions,
                            std::uint64_t seed = 17) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = invocations;
  spec.num_functions = functions;
  spec.hot_fraction = 0.5;  // spread load over several functions
  spec.hot_mass = 0.9;
  spec.seed = seed;
  return trace::synthesize_workload(spec);
}

TEST(ClusterTest, AllInvocationsCompleteOnEveryBalancer) {
  const auto workload = workload_of(200, 8);
  for (const auto balancer :
       {BalancerKind::kRoundRobin, BalancerKind::kLeastOutstanding,
        BalancerKind::kFunctionAffinity}) {
    ClusterSpec spec;
    spec.workers = 3;
    spec.balancer = balancer;
    const ClusterResult result = run_cluster_experiment(spec, workload);
    EXPECT_EQ(result.completed, 200u) << balancer_kind_name(balancer);
    std::size_t routed = 0;
    for (const auto& worker : result.workers) routed += worker.routed;
    EXPECT_EQ(routed, 200u) << balancer_kind_name(balancer);
  }
}

TEST(ClusterTest, SingleWorkerMatchesStandaloneExperiment) {
  const auto workload = workload_of(150, 6);
  ClusterSpec spec;
  spec.workers = 1;
  spec.balancer = BalancerKind::kRoundRobin;
  const ClusterResult cluster = run_cluster_experiment(spec, workload);

  const eval::ExperimentResult standalone =
      eval::run_experiment(spec.worker_spec, workload);
  EXPECT_EQ(cluster.completed, standalone.completed);
  EXPECT_EQ(cluster.total_containers(), standalone.containers_provisioned);
  EXPECT_EQ(cluster.makespan, standalone.makespan);
}

TEST(ClusterTest, AffinityKeepsFunctionsTogether) {
  const auto workload = workload_of(300, 8);
  ClusterSpec spec;
  spec.workers = 4;
  spec.balancer = BalancerKind::kFunctionAffinity;
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 300u);
  // Affinity is deterministic: rerunning routes identically.
  const ClusterResult again = run_cluster_experiment(spec, workload);
  for (std::size_t w = 0; w < spec.workers; ++w) {
    EXPECT_EQ(result.workers[w].routed, again.workers[w].routed);
  }
}

TEST(ClusterTest, AffinityPreservesFaasBatchConsolidation) {
  // The headline cluster finding: spraying a function's burst across
  // workers splits FaaSBatch's groups and inflates container counts;
  // function affinity preserves the single-container-per-group design.
  const auto workload = workload_of(400, 8, 23);
  ClusterSpec affinity;
  affinity.workers = 4;
  affinity.balancer = BalancerKind::kFunctionAffinity;
  affinity.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  const ClusterResult affinity_result = run_cluster_experiment(affinity, workload);

  ClusterSpec spray = affinity;
  spray.balancer = BalancerKind::kRoundRobin;
  const ClusterResult spray_result = run_cluster_experiment(spray, workload);

  EXPECT_LT(affinity_result.total_containers(), spray_result.total_containers());
}

TEST(ClusterTest, LeastOutstandingAvoidsHotWorker) {
  const auto workload = workload_of(200, 8);
  ClusterSpec spec;
  spec.workers = 4;
  spec.balancer = BalancerKind::kLeastOutstanding;
  const ClusterResult result = run_cluster_experiment(spec, workload);
  // No worker should be left idle while others overflow.
  for (const auto& worker : result.workers) EXPECT_GT(worker.routed, 0u);
  EXPECT_LT(result.routing_imbalance(), 2.0);
}

// --- Pull-based scheduling ------------------------------------------------

// One hot function receiving 90% of arrivals: the worst case for
// bind-at-routing affinity (one worker eats the hot key) and the
// motivating case for pull + steal.
trace::Workload skewed_workload(std::size_t invocations,
                                std::uint64_t seed = 31) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = invocations;
  spec.num_functions = 10;
  spec.hot_fraction = 0.1;
  spec.hot_mass = 0.9;
  spec.seed = seed;
  return trace::synthesize_workload(spec);
}

ClusterSpec pull_spec(std::size_t workers) {
  ClusterSpec spec;
  spec.workers = workers;
  spec.pull.worker_capacity = 8;
  spec.pull.pull_batch = 16;
  return spec;
}

double utilization_imbalance(const ClusterResult& result) {
  double peak = 0.0, total = 0.0;
  for (const WorkerResult& worker : result.workers) {
    peak = std::max(peak, worker.cpu_utilization);
    total += worker.cpu_utilization;
  }
  const double mean = total / static_cast<double>(result.workers.size());
  return mean > 0.0 ? peak / mean : 0.0;
}

TEST(ClusterPullTest, UnboundedPullSingleWorkerMatchesStandalone) {
  // The cluster-vs-single differential, pull edition: one worker, no
  // capacity bound — the pump binds each arrival inside its own arrival
  // event, replaying run_experiment's exact outcome sequence.
  const auto workload = workload_of(150, 6);
  ClusterSpec spec;
  spec.workers = 1;
  const ClusterResult cluster = run_cluster_experiment(spec, workload);

  const eval::ExperimentResult standalone =
      eval::run_experiment(spec.worker_spec, workload);
  EXPECT_EQ(cluster.completed, standalone.completed);
  EXPECT_EQ(cluster.total_containers(), standalone.containers_provisioned);
  EXPECT_EQ(cluster.makespan, standalone.makespan);
  EXPECT_EQ(cluster.transfer.pulled, 150u);
  EXPECT_EQ(cluster.transfer.steals, 0u);  // nobody to steal from
}

TEST(ClusterPullTest, BoundedPullSingleWorkerAccountsEverything) {
  // With a real capacity bound the single worker late-binds: outcomes
  // still all account, and everything arrives via pulls.
  const auto workload = workload_of(150, 6);
  ClusterSpec spec = pull_spec(1);
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.accounted, 150u);
  EXPECT_EQ(result.completed + result.failed + result.shed, 150u);
  EXPECT_EQ(result.transfer.pulled, 150u);
  EXPECT_EQ(result.transfer.steals, 0u);
}

TEST(ClusterPullTest, UnboundedAffinityRunBindsEachFunctionToItsRendezvousWorker) {
  // Fault-free and capacity-unbounded, every arrival binds inside its own
  // arrival event. The first invocation of a function finds no warm
  // worker and falls back to the affinity balancer; later ones prefer
  // the worker already warm for it, which is that same worker. So each
  // worker is routed exactly the invocations whose function rendezvous
  // hashing over the full worker set assigns to it.
  const std::vector<std::pair<std::string, trace::Workload>> workloads = {
      {"workload_of(300, 8)", workload_of(300, 8)},
      {"skewed_workload(600)", skewed_workload(600)},
  };
  for (const auto& [label, workload] : workloads) {
    for (const std::size_t workers : {std::size_t{4}, std::size_t{8}}) {
      for (const auto scheduler : {schedulers::SchedulerKind::kVanilla,
                                   schedulers::SchedulerKind::kFaasBatch}) {
        ClusterSpec spec;
        spec.workers = workers;
        spec.worker_spec.scheduler = scheduler;
        const ClusterResult result = run_cluster_experiment(spec, workload);

        std::vector<std::size_t> all(workers);
        for (std::size_t w = 0; w < workers; ++w) all[w] = w;
        std::vector<std::size_t> expected(workers, 0);
        for (const trace::TraceEvent& event : workload.events) {
          ++expected[rendezvous_pick(event.function, all)];
        }
        EXPECT_EQ(result.completed, workload.events.size());
        for (std::size_t w = 0; w < workers; ++w) {
          EXPECT_EQ(result.workers[w].routed, expected[w])
              << label << ", " << workers << " workers, "
              << schedulers::scheduler_kind_name(scheduler) << ", worker "
              << w;
        }
      }
    }
  }
}

TEST(ClusterPullTest, SkewedLoadStealsAndRebalances) {
  // The skew regression gate: 90% of arrivals on one function must
  // produce steals, and bounded pull + steal must hold the max/mean
  // worker utilization ratio under a pinned bound that unbounded
  // affinity binding (hot key pinned to one worker) cannot meet.
  const auto workload = skewed_workload(600);
  const ClusterSpec bounded = pull_spec(4);
  const ClusterResult bounded_result = run_cluster_experiment(bounded, workload);
  EXPECT_EQ(bounded_result.accounted, 600u);
  EXPECT_GT(bounded_result.transfer.steals, 0u);
  EXPECT_GT(bounded_result.transfer.stolen, 0u);

  ClusterSpec unbounded = bounded;
  unbounded.pull.worker_capacity = 0;
  const ClusterResult unbounded_result =
      run_cluster_experiment(unbounded, workload);

  const double bounded_ratio = utilization_imbalance(bounded_result);
  const double unbounded_ratio = utilization_imbalance(unbounded_result);
  EXPECT_LT(bounded_ratio, unbounded_ratio);
  EXPECT_LT(bounded_ratio, 2.0);  // pinned bound: balance can't regress
}

TEST(ClusterPullTest, PullRunsAreDeterministic) {
  const auto workload = skewed_workload(400, 7);
  const ClusterSpec spec = pull_spec(3);
  const ClusterResult a = run_cluster_experiment(spec, workload);
  const ClusterResult b = run_cluster_experiment(spec, workload);
  EXPECT_EQ(a.chaos_fingerprint, b.chaos_fingerprint);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.transfer.pulls, b.transfer.pulls);
  EXPECT_EQ(a.transfer.steals, b.transfer.steals);
  EXPECT_EQ(a.transfer.stolen, b.transfer.stolen);
  for (std::size_t w = 0; w < spec.workers; ++w) {
    EXPECT_EQ(a.workers[w].routed, b.workers[w].routed);
    EXPECT_EQ(a.workers[w].transfer.fingerprint(),
              b.workers[w].transfer.fingerprint());
  }
}

TEST(ClusterTest, Validation) {
  const auto workload = workload_of(10, 2);
  ClusterSpec spec;
  spec.workers = 0;
  EXPECT_THROW(run_cluster_experiment(spec, workload), std::invalid_argument);
}

TEST(ClusterTest, BalancerNames) {
  EXPECT_EQ(balancer_kind_name(BalancerKind::kRoundRobin), "round-robin");
  EXPECT_EQ(balancer_kind_name(BalancerKind::kLeastOutstanding), "least-outstanding");
  EXPECT_EQ(balancer_kind_name(BalancerKind::kFunctionAffinity), "function-affinity");
}

// Property sweep: every (balancer, scheduler) pair completes everything.
class ClusterSweepTest
    : public ::testing::TestWithParam<
          std::tuple<BalancerKind, schedulers::SchedulerKind>> {};

TEST_P(ClusterSweepTest, Completes) {
  const auto [balancer, scheduler] = GetParam();
  const auto workload = workload_of(120, 6);
  ClusterSpec spec;
  spec.workers = 2;
  spec.balancer = balancer;
  spec.worker_spec.scheduler = scheduler;
  if (scheduler == schedulers::SchedulerKind::kKraken) {
    spec.worker_spec.scheduler_options.kraken_default_slo_ms = 3000.0;
  }
  const ClusterResult result = run_cluster_experiment(spec, workload);
  EXPECT_EQ(result.completed, 120u);
  EXPECT_GT(result.makespan, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ClusterSweepTest,
    ::testing::Combine(::testing::Values(BalancerKind::kRoundRobin,
                                         BalancerKind::kLeastOutstanding,
                                         BalancerKind::kFunctionAffinity),
                       ::testing::Values(schedulers::SchedulerKind::kVanilla,
                                         schedulers::SchedulerKind::kFaasBatch)));

}  // namespace
}  // namespace faasbatch::cluster
