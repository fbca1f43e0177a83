#include "cluster/cluster.hpp"

#include <algorithm>

#include "cluster/dispatch_plane.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::cluster {

std::string_view balancer_kind_name(BalancerKind kind) {
  switch (kind) {
    case BalancerKind::kRoundRobin: return "round-robin";
    case BalancerKind::kLeastOutstanding: return "least-outstanding";
    case BalancerKind::kFunctionAffinity: return "function-affinity";
  }
  return "?";
}

std::uint64_t ClusterResult::total_containers() const {
  std::uint64_t total = 0;
  for (const WorkerResult& worker : workers) total += worker.containers_provisioned;
  return total;
}

double ClusterResult::routing_imbalance() const {
  if (workers.empty()) return 0.0;
  std::size_t peak = 0, total = 0;
  for (const WorkerResult& worker : workers) {
    peak = std::max(peak, worker.routed);
    total += worker.routed;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(workers.size());
  return mean > 0.0 ? static_cast<double>(peak) / mean : 0.0;
}

ClusterResult run_cluster_experiment(const ClusterSpec& spec,
                                     const trace::Workload& workload) {
  sim::Simulator simulator;
  DispatchPlane plane(simulator, spec, workload);
  plane.start();
  simulator.run();
  return plane.finish();
}

}  // namespace faasbatch::cluster
