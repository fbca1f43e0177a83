// Cluster extension bench (beyond the paper): FaaSBatch behind a load
// balancer, with and without worker-level chaos.
//
// Part 1 — balancer sweep. The paper evaluates a single worker; this
// measures the property its design implies for clusters — batching
// consolidation survives only under function-affine routing. One
// Azure-style minute is replayed across 1..8 workers under three
// balancers. Expected shape: with function affinity, total containers
// stay near the single-worker count as workers scale; round-robin
// splits every function group across all workers and multiplies
// container counts.
//
// Part 2 — worker-kill sweep. The same minute on a 4-worker affinity
// cluster while the fault plan crashes whole workers at increasing
// per-scan rates. Reported per rate: simulated p99 total latency, the
// number of crashes/restarts the detector absorbed, and how many
// invocations were failover re-dispatched — the cost of a worker death
// is visible as the p99 climb relative to the crash-free row.
//
// Part 3 — worker capacity under skew. A workload with ~90% of arrivals
// on a few hot functions, bound with unbounded worker capacity (every
// arrival binds at once, so affinity pins hot keys to one worker) versus
// a capacity of 8 (late binding + cross-worker stealing with warm-pool
// sharing). Reported per capacity: p99, steal counts, and the max/mean
// worker-utilization ratio — the imbalance stealing exists to close.
//
// Usage:
//   bench_cluster [quick=1] [invocations=N] [seed=S] [reps=3]
//                 [out=cluster.json] [--trace t.json] [--metrics]
//
// Output: human tables plus optional JSON (out=) consumed by
// scripts/check_perf.py against bench/bench_baseline.json (prefix
// cluster/). The JSON throughput is wall-clock simulation speed
// (invocations simulated per second of real time); p99 is simulated
// latency and therefore deterministic for a given seed.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/json.hpp"

using namespace faasbatch;
// fb-lint-allow(raw-clock): wall-clock-times the simulator itself for perf floors.
using SteadyClock = std::chrono::steady_clock;

namespace {

struct ChaosCell {
  std::string name;           // baseline cell, e.g. "cluster/no_chaos/w4"
  double crash_rate = 0.0;
  double throughput_ips = 0.0;  // wall-clock: invocations / best rep seconds
  double p99_ms = 0.0;          // simulated, deterministic
  cluster::ClusterResult result;
};

cluster::ClusterSpec chaos_spec(double crash_rate) {
  cluster::ClusterSpec spec;
  spec.workers = 4;
  spec.balancer = cluster::BalancerKind::kFunctionAffinity;
  spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  // CPU-intensive bodies can legitimately run for seconds, so the
  // suspicion threshold sits well above the longest healthy silence; a
  // worker-kill bench should measure real deaths, not detector churn.
  spec.detector.suspect_after = 8 * kSecond;
  spec.detector.confirm_window = 2 * kSecond;
  if (crash_rate > 0.0) {
    spec.worker_spec.fault_plan.seed = 7;
    spec.worker_spec.fault_plan.worker_crash_rate = crash_rate;
    spec.worker_spec.fault_plan.worker_restart_latency = 2 * kSecond;
  }
  return spec;
}

ChaosCell run_cell(const std::string& name, const cluster::ClusterSpec& spec,
                   const trace::Workload& workload, std::size_t reps) {
  ChaosCell cell;
  cell.name = name;
  double best_seconds = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = SteadyClock::now();
    cluster::ClusterResult result = cluster::run_cluster_experiment(spec, workload);
    const double seconds =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    if (rep == 0) cell.result = std::move(result);
  }
  cell.throughput_ips =
      best_seconds > 0.0
          ? static_cast<double>(workload.invocation_count()) / best_seconds
          : 0.0;
  cell.p99_ms = cell.result.latency.total().percentile(0.99);
  return cell;
}

ChaosCell run_chaos_cell(const std::string& name, double crash_rate,
                         const trace::Workload& workload, std::size_t reps) {
  ChaosCell cell = run_cell(name, chaos_spec(crash_rate), workload, reps);
  cell.crash_rate = crash_rate;
  return cell;
}

/// Peak-to-mean worker CPU utilization: 1.0 = perfectly level.
double utilization_imbalance(const cluster::ClusterResult& result) {
  double peak = 0.0, total = 0.0;
  for (const auto& worker : result.workers) {
    peak = std::max(peak, worker.cpu_utilization);
    total += worker.cpu_utilization;
  }
  const double mean = total / static_cast<double>(result.workers.size());
  return mean > 0.0 ? peak / mean : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchcommon::ObsScope obs(argc, argv);
  const Config config = Config::from_args(argc, argv);
  const bool quick = config.get_bool("quick", false);
  const std::size_t reps =
      static_cast<std::size_t>(config.get_int("reps", quick ? 2 : 3));
  trace::WorkloadSpec workload_spec;
  workload_spec.kind = trace::FunctionKind::kCpuIntensive;
  workload_spec.invocations = static_cast<std::size_t>(
      config.get_int("invocations", quick ? 300 : 800));
  workload_spec.num_functions = 16;
  workload_spec.hot_fraction = 0.5;
  workload_spec.hot_mass = 0.9;
  workload_spec.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  const trace::Workload workload = trace::synthesize_workload(workload_spec);

  std::cout << "# Cluster extension: FaaSBatch behind a load balancer ("
            << workload.invocation_count() << " invocations, "
            << workload.functions.size() << " functions)\n\n";

  metrics::Table table({"workers", "balancer", "containers", "p98_total_ms",
                        "imbalance", "mem_avg_MiB(worker0)"});
  const std::vector<std::size_t> worker_sweep =
      quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t workers : worker_sweep) {
    for (const auto balancer :
         {cluster::BalancerKind::kFunctionAffinity,
          cluster::BalancerKind::kRoundRobin,
          cluster::BalancerKind::kLeastOutstanding}) {
      cluster::ClusterSpec spec;
      spec.workers = workers;
      spec.balancer = balancer;
      spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
      const cluster::ClusterResult result =
          cluster::run_cluster_experiment(spec, workload);
      table.add_row({std::to_string(workers),
                     std::string(cluster::balancer_kind_name(balancer)),
                     std::to_string(result.total_containers()),
                     metrics::Table::num(result.latency.total().percentile(0.98), 1),
                     metrics::Table::num(result.routing_imbalance(), 2),
                     metrics::Table::num(result.workers.front().memory_avg_mib, 1)});
      if (workers == 1) break;  // balancers identical with one worker
    }
  }
  table.print(std::cout);
  std::cout << "\nFunction-affine routing preserves FaaSBatch's one-container-"
               "per-group consolidation as the cluster scales;\nround-robin "
               "spraying splits groups and re-inflates provisioning.\n\n";

  std::cout << "# Worker-kill sweep: 4-worker affinity cluster, whole-worker "
               "crashes at increasing rates\n\n";
  std::vector<std::pair<std::string, double>> rates = {
      {"cluster/no_chaos/w4", 0.0},
      {"cluster/crash_light/w4", 0.0005},
  };
  if (!quick) {
    rates.push_back({"cluster/crash_moderate/w4", 0.002});
    rates.push_back({"cluster/crash_heavy/w4", 0.008});
  }
  std::vector<ChaosCell> cells;
  metrics::Table chaos_table({"crash_rate", "p99_total_ms", "crashes",
                              "restarts", "re_dispatched", "failed",
                              "sim_makespan_s", "wall_inv_per_s"});
  for (const auto& [name, rate] : rates) {
    cells.push_back(run_chaos_cell(name, rate, workload, reps));
    const ChaosCell& cell = cells.back();
    std::uint64_t restarts = 0;
    for (const auto& worker : cell.result.workers) restarts += worker.restarts;
    chaos_table.add_row(
        {metrics::Table::num(rate, 4), metrics::Table::num(cell.p99_ms, 1),
         std::to_string(cell.result.fault_stats.worker_crashes),
         std::to_string(restarts), std::to_string(cell.result.re_dispatched),
         std::to_string(cell.result.failed),
         metrics::Table::num(static_cast<double>(cell.result.makespan) /
                                 static_cast<double>(kSecond),
                             1),
         metrics::Table::num(cell.throughput_ips, 0)});
  }
  chaos_table.print(std::cout);
  std::cout << "\nEvery invocation stays terminally accounted while workers "
               "die and restart; the p99 climb over the\ncrash-free row is "
               "the end-to-end price of failover re-dispatch (detection delay "
               "+ retry backoff + cold start).\n\n";

  std::cout << "# Unbounded vs bounded worker capacity: ~90% of arrivals on a "
               "few hot functions\n\n";
  trace::WorkloadSpec skew_spec = workload_spec;
  skew_spec.hot_fraction = 0.1;
  skew_spec.hot_mass = 0.9;
  const trace::Workload skewed = trace::synthesize_workload(skew_spec);
  metrics::Table pull_table({"workers", "capacity", "p99_total_ms", "pulls",
                             "steals", "stolen", "imbalance",
                             "wall_inv_per_s"});
  const std::vector<std::size_t> pull_workers =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 8};
  for (const std::size_t workers : pull_workers) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{8}}) {
      cluster::ClusterSpec spec;
      spec.workers = workers;
      spec.balancer = cluster::BalancerKind::kFunctionAffinity;
      spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
      spec.pull.worker_capacity = capacity;
      spec.pull.pull_batch = 16;
      spec.pull.steal.min_victim_backlog = 4;
      spec.pull.steal.steal_fraction = 0.5;
      spec.pull.steal.max_steal = 16;
      const std::string label = capacity == 0 ? "unbounded" : "bounded";
      const std::string name =
          "cluster/" + label + "_skew/w" + std::to_string(workers);
      cells.push_back(run_cell(name, spec, skewed, reps));
      const ChaosCell& cell = cells.back();
      pull_table.add_row(
          {std::to_string(workers),
           capacity == 0 ? label : std::to_string(capacity),
           metrics::Table::num(cell.p99_ms, 1),
           std::to_string(cell.result.transfer.pulls),
           std::to_string(cell.result.transfer.steals),
           std::to_string(cell.result.transfer.stolen),
           metrics::Table::num(utilization_imbalance(cell.result), 2),
           metrics::Table::num(cell.throughput_ips, 0)});
    }
  }
  pull_table.print(std::cout);
  std::cout << "\nBounded capacity + stealing levels the utilization skew "
               "that pins an unbounded affinity cluster\nto its hot workers; "
               "the steal columns show how much work moved to make that "
               "happen.\n";

  if (const auto path = config.raw("out")) {
    JsonObject root;
    root["quick"] = Json{quick};
    root["hardware_concurrency"] = Json{static_cast<std::int64_t>(
        std::thread::hardware_concurrency())};
    JsonArray bench_list;
    for (const ChaosCell& cell : cells) {
      JsonObject o;
      o["name"] = Json{cell.name};
      o["crash_rate"] = Json{cell.crash_rate};
      o["invocations"] =
          Json{static_cast<std::int64_t>(workload.invocation_count())};
      o["throughput_ips"] = Json{cell.throughput_ips};
      o["p99_ms"] = Json{cell.p99_ms};
      o["re_dispatched"] =
          Json{static_cast<std::int64_t>(cell.result.re_dispatched)};
      o["worker_crashes"] = Json{
          static_cast<std::int64_t>(cell.result.fault_stats.worker_crashes)};
      o["steals"] =
          Json{static_cast<std::int64_t>(cell.result.transfer.steals)};
      o["stolen"] =
          Json{static_cast<std::int64_t>(cell.result.transfer.stolen)};
      bench_list.push_back(Json{std::move(o)});
    }
    root["benchmarks"] = Json{std::move(bench_list)};
    std::ofstream out(*path);
    out << Json{std::move(root)}.dump() << "\n";
    std::cout << "(wrote cluster data to " << *path << ")\n";
  }
  return 0;
}
