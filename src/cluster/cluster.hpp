// Multi-worker cluster: a fault-tolerant dispatch plane.
//
// The paper scopes FaaSBatch to a single worker VM (§IV: "This study
// focuses on the performance of FaaSBatch running on a single machine").
// This module extends the system the natural next step: N workers behind
// a dispatch plane, each running its own scheduler instance over one
// shared simulated clock. Beyond load balancing, the plane is a fault
// domain boundary — the blast-radius hierarchy is
//
//   batch  (container crash: one dispatch group, handled per-scheduler)
//     ⊂ container (pool-level boot/exec/storage faults, retried in place)
//       ⊂ worker  (this module: the whole VM dies or wedges, taking its
//                  in-flight batches and warm pool with it)
//
// and the plane heals the worker tier: a pull-based failure detector on
// the virtual clock declares silent-but-busy workers suspect and then
// dead; every invocation stranded on a dead worker is re-dispatched to
// survivors through the shared retry policy (attempt-linked, so the
// failover shows up as one more attempt on the invocation's span tree);
// crashed workers rejoin cold after a restart latency. Operators can
// also drain a worker (stop routing, let in-flight finish, remove) and
// rejoin it later.
//
// Balancers:
//   kRoundRobin        — classic spraying over routable workers
//   kLeastOutstanding  — fewest in-flight invocations
//   kFunctionAffinity  — rendezvous hash(function) -> worker; removing a
//                        worker moves only its own keys (FaaSBatch's
//                        consolidation survives failover on survivors)
//
// Every invocation reaches exactly one terminal outcome (completed,
// failed, or shed) no matter which workers die when — the chaos tests
// assert zero stranded invocations and byte-identical fingerprints
// across reruns.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "cluster/failure_detector.hpp"
#include "cluster/worker_state.hpp"
#include "eval/experiment.hpp"

namespace faasbatch::cluster {

enum class BalancerKind { kRoundRobin, kLeastOutstanding, kFunctionAffinity };

std::string_view balancer_kind_name(BalancerKind kind);

/// How work binds to workers. Binding is late, over a front-end pending
/// queue: an invocation binds only when a worker with free capacity
/// pulls it, idle workers steal from loaded backlogs, and placement
/// prefers workers already holding a warm container for the function
/// (the balancer picks among cold candidates).
struct PullOptions {
  /// Injected-but-not-terminal invocations one worker may hold; further
  /// pulled work waits in the worker's backlog (the steal target). 0 =
  /// unbounded: every pull injects immediately, so each arrival binds
  /// inside its own arrival event — on a fault-free affinity run, to its
  /// rendezvous worker.
  std::size_t worker_capacity = 0;
  /// Max invocations of one function key taken per pull. Pulls take a
  /// whole key run up to this even beyond free capacity — full batches
  /// are the paper's lever — and the excess becomes stealable backlog.
  std::size_t pull_batch = 64;
};

/// An operator intervention scheduled at a virtual time.
struct OperatorAction {
  enum class Kind {
    /// Stop routing to the worker, let in-flight finish, then remove it.
    kDrain,
    /// Bring a dead or drained worker back as a fresh cold instance.
    kRejoin,
  };
  SimTime at = 0;
  Kind kind = Kind::kDrain;
  std::size_t worker = 0;
};

struct ClusterSpec {
  /// Worker count; each incarnation is one eval::Worker.
  std::size_t workers = 4;
  BalancerKind balancer = BalancerKind::kFunctionAffinity;
  /// The default unbounded capacity binds arrivals immediately
  /// (warm-preferring, balancer fallback); set pull.worker_capacity to
  /// opt into true late binding + stealing.
  PullOptions pull;
  /// Per-worker configuration (scheduler, runtime constants, chaos plan).
  /// Worker-level fault classes in worker_spec.fault_plan (worker_crash_
  /// rate, worker_stall_rate, worker_restart_latency) are drawn by the
  /// plane's detector scans; container-level classes behave exactly as in
  /// single-node runs.
  eval::ExperimentSpec worker_spec;
  /// Failure-detection thresholds. The detector (and the worker-fault
  /// draws it hosts) runs only when the fault plan has worker classes or
  /// operator actions exist, so fault-free runs are bit-identical to the
  /// pre-detector plane.
  FailureDetectorOptions detector;
  /// Operator drain/rejoin timeline.
  std::vector<OperatorAction> actions;
};

/// Per-worker slice of a cluster run.
struct WorkerResult {
  /// Dispatches this worker received (arrivals + failover re-dispatches).
  std::size_t routed = 0;
  /// Terminal outcomes accounted on this worker; re_dispatched counts the
  /// invocations this worker stranded by dying (their terminal outcome
  /// lands on the survivor that finished them).
  eval::OutcomeCounts outcomes;
  /// Pull/steal/requeue activity.
  eval::TransferCounts transfer;
  std::uint64_t crashes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t restarts = 0;
  WorkerState final_state = WorkerState::kUp;
  /// Provisioning across every incarnation (restarts rejoin cold).
  std::uint64_t containers_provisioned = 0;
  double memory_avg_mib = 0.0;
  double cpu_utilization = 0.0;
};

struct ClusterResult {
  std::vector<WorkerResult> workers;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  /// Failover re-dispatches (an invocation can re-dispatch repeatedly).
  std::size_t re_dispatched = 0;
  /// Cluster-wide pull/steal/requeue totals (sum of workers[].transfer).
  eval::TransferCounts transfer;
  /// Terminally-accounted invocations; equals the workload size whenever
  /// run_cluster_experiment returns.
  std::size_t accounted = 0;
  metrics::BreakdownAggregate latency;
  SimTime makespan = 0;

  /// Injected-fault counts (worker classes included).
  resilience::FaultStats fault_stats;
  /// Deterministic fold of the chaos engine fingerprint with per-worker
  /// outcome counts, restarts, and final states; byte-identical across
  /// two runs of the same (spec, workload).
  std::uint64_t chaos_fingerprint = 0;

  std::uint64_t total_containers() const;
  /// max/mean of per-worker routed counts (1.0 = perfectly balanced).
  double routing_imbalance() const;
};

/// Runs `workload` over the cluster. Deterministic for a given (spec,
/// workload) pair, including under worker chaos. Throws
/// std::invalid_argument for zero workers or out-of-range action targets,
/// and std::runtime_error if any invocation is never terminally accounted
/// (a stranded invocation — the bug class this plane exists to prevent).
ClusterResult run_cluster_experiment(const ClusterSpec& spec,
                                     const trace::Workload& workload);

}  // namespace faasbatch::cluster
