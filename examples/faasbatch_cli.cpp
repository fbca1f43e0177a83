// faasbatch_cli — one binary for the common workflows.
//
// Subcommands (first positional argument):
//   run      — one scheduler over one workload, full report
//              faasbatch_cli run scheduler=faasbatch kind=io invocations=400
//   compare  — all four schedulers side by side
//              faasbatch_cli compare kind=cpu window_ms=200
//   sweep    — dispatch-interval sweep for one scheduler
//              faasbatch_cli sweep scheduler=faasbatch kind=io
//   synth    — write a synthetic workload trace CSV
//              faasbatch_cli synth out=trace.csv kind=cpu invocations=800
//   cluster  — FaaSBatch across N workers and a balancer
//              faasbatch_cli cluster workers=4 balancer=affinity
// Common options: seed=, invocations=, window_ms=, trace= (replay a CSV).
// Observability flags (position independent):
//   --trace <file>  record lifecycle spans and write a Chrome trace_event
//                   JSON document to <file> (open in ui.perfetto.dev);
//                   with no subcommand, defaults to `compare` so all four
//                   schedulers land in one trace
//   --metrics       print the Prometheus metrics page to stdout at exit
#include <fstream>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "eval/comparison.hpp"
#include "metrics/report.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload.hpp"

using namespace faasbatch;

namespace {

trace::Workload make_workload(const Config& config) {
  if (const auto path = config.raw("trace")) return trace::load_trace(*path);
  trace::WorkloadSpec spec;
  spec.kind = config.get_string("kind", "cpu") == "io"
                  ? trace::FunctionKind::kIo
                  : trace::FunctionKind::kCpuIntensive;
  spec.invocations = static_cast<std::size_t>(config.get_int(
      "invocations", spec.kind == trace::FunctionKind::kIo ? 400 : 800));
  spec.num_functions = static_cast<std::size_t>(config.get_int("functions", 10));
  spec.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  return trace::synthesize_workload(spec);
}

eval::ExperimentSpec make_spec(const Config& config) {
  eval::ExperimentSpec spec;
  spec.scheduler =
      schedulers::parse_scheduler_kind(config.get_string("scheduler", "faasbatch"));
  spec.scheduler_options.dispatch_window =
      from_millis(config.get_double("window_ms", 200.0));
  spec.scheduler_options.enable_multiplexer = config.get_bool("multiplexer", true);
  spec.scheduler_options.faasbatch_batch_return =
      config.get_bool("batch_return", false);
  spec.scheduler_options.kraken_ewma_alpha = config.get_double("ewma_alpha", 0.0);
  spec.fault_plan.cold_start_failure_rate =
      config.get_double("cold_start_failure_rate", 0.0);
  if (config.get_string("keepalive", "fixed") == "histogram") {
    spec.keepalive = eval::KeepAliveKind::kHistogram;
  }
  return spec;
}

void print_result(const eval::ExperimentResult& result) {
  metrics::Table table({"component", "p50_ms", "p90_ms", "p98_ms", "max_ms"});
  const auto row = [&](const char* name, const metrics::Samples& samples) {
    table.add_row({name, metrics::Table::num(samples.percentile(0.5)),
                   metrics::Table::num(samples.percentile(0.9)),
                   metrics::Table::num(samples.percentile(0.98)),
                   metrics::Table::num(samples.summary().max)});
  };
  row("scheduling", result.latency.scheduling());
  row("cold_start", result.latency.cold_start());
  row("queuing", result.latency.queuing());
  row("execution", result.latency.execution());
  row("total", result.latency.total());
  row("response", result.response_ms);
  table.print(std::cout);
  std::cout << "containers=" << result.containers_provisioned
            << " warm_hits=" << result.warm_hits
            << " client_creations=" << result.client_creations
            << " mem_avg_MiB=" << metrics::Table::num(result.memory_avg_mib, 1)
            << " cpu_util=" << metrics::Table::num(result.cpu_utilization, 3)
            << " makespan_s=" << metrics::Table::num(to_seconds(result.makespan), 1)
            << " cold_start_failures=" << result.fault_stats.cold_start_failures
            << "\n";
}

int cmd_run(const Config& config) {
  const auto workload = make_workload(config);
  eval::ExperimentSpec spec = make_spec(config);
  if (spec.scheduler == schedulers::SchedulerKind::kKraken &&
      spec.scheduler_options.kraken_slo_ms.empty()) {
    spec.scheduler_options.kraken_slo_ms = eval::derive_kraken_slos(spec, workload);
  }
  const auto result = eval::run_experiment(spec, workload);
  std::cout << "scheduler=" << result.scheduler_name << " invocations="
            << result.invocations << "\n\n";
  print_result(result);
  return 0;
}

int cmd_compare(const Config& config) {
  const auto workload = make_workload(config);
  const auto comparison = eval::run_comparison(make_spec(config), workload);
  eval::print_comparison_summary(std::cout, comparison);
  return 0;
}

int cmd_sweep(const Config& config) {
  const auto workload = make_workload(config);
  metrics::Table table({"window_ms", "containers", "p98_total_ms", "mem_avg_MiB",
                        "cpu_util"});
  for (const double window_ms : {10.0, 50.0, 100.0, 200.0, 500.0, 1000.0}) {
    eval::ExperimentSpec spec = make_spec(config);
    spec.scheduler_options.dispatch_window = from_millis(window_ms);
    if (spec.scheduler == schedulers::SchedulerKind::kKraken) {
      spec.scheduler_options.kraken_slo_ms = eval::derive_kraken_slos(spec, workload);
    }
    const auto result = eval::run_experiment(spec, workload);
    table.add_row({metrics::Table::num(window_ms, 0),
                   std::to_string(result.containers_provisioned),
                   metrics::Table::num(result.latency.total().percentile(0.98), 1),
                   metrics::Table::num(result.memory_avg_mib, 1),
                   metrics::Table::num(result.cpu_utilization, 3)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_synth(const Config& config) {
  const std::string out = config.get_string("out", "workload.csv");
  const auto workload = make_workload(config);
  trace::save_trace(out, workload);
  std::cout << "wrote " << workload.invocation_count() << " invocations of "
            << workload.functions.size() << " functions to " << out << "\n";
  return 0;
}

int cmd_cluster(const Config& config) {
  const auto workload = make_workload(config);
  cluster::ClusterSpec spec;
  spec.workers = static_cast<std::size_t>(config.get_int("workers", 4));
  const std::string balancer = config.get_string("balancer", "affinity");
  if (balancer == "rr" || balancer == "round-robin") {
    spec.balancer = cluster::BalancerKind::kRoundRobin;
  } else if (balancer == "least" || balancer == "least-outstanding") {
    spec.balancer = cluster::BalancerKind::kLeastOutstanding;
  } else {
    spec.balancer = cluster::BalancerKind::kFunctionAffinity;
  }
  spec.worker_spec = make_spec(config);
  const auto result = cluster::run_cluster_experiment(spec, workload);
  std::cout << "workers=" << spec.workers << " balancer="
            << cluster::balancer_kind_name(spec.balancer)
            << " containers=" << result.total_containers()
            << " p98_total_ms="
            << metrics::Table::num(result.latency.total().percentile(0.98), 1)
            << " imbalance=" << metrics::Table::num(result.routing_imbalance(), 2)
            << "\n";
  metrics::Table table({"worker", "routed", "containers", "mem_avg_MiB", "cpu_util"});
  for (std::size_t w = 0; w < result.workers.size(); ++w) {
    const auto& worker = result.workers[w];
    table.add_row({std::to_string(w), std::to_string(worker.routed),
                   std::to_string(worker.containers_provisioned),
                   metrics::Table::num(worker.memory_avg_mib, 1),
                   metrics::Table::num(worker.cpu_utilization, 3)});
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout << "usage: faasbatch_cli <run|compare|sweep|synth|cluster> [key=value...]\n"
               "  run      one scheduler, full latency/resource report\n"
               "  compare  all four schedulers side by side\n"
               "  sweep    dispatch-window sweep for one scheduler\n"
               "  synth    write a synthetic workload trace CSV (out=...)\n"
               "  cluster  FaaSBatch across workers= with balancer=\n"
               "common:    scheduler= kind=cpu|io invocations= seed= window_ms=\n"
               "           trace=path.csv multiplexer=0|1 batch_return=0|1\n"
               "           keepalive=fixed|histogram ewma_alpha= workers=\n"
               "obs:       --trace <file.json>  write a Perfetto-loadable trace\n"
               "           --metrics            print Prometheus metrics at exit\n";
}

/// Observability flags pulled out of argv before Config sees it. The
/// remaining key=value tokens are untouched (Config ignores flag tokens
/// anyway, but the flag *values*, like the trace path, must not be
/// mistaken for a subcommand).
struct ObsFlags {
  std::string trace_path;  // empty = tracing off
  bool metrics = false;
  std::string command;  // first non-flag positional after argv[0]
};

ObsFlags parse_obs_flags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      flags.trace_path = argv[++i];
    } else if (arg == "--metrics") {
      flags.metrics = true;
    } else if (flags.command.empty() && arg.find('=') == std::string::npos) {
      flags.command = arg;
    }
  }
  // A bare observability invocation traces something useful: the
  // four-scheduler comparison, so every policy lands in one trace.
  if (flags.command.empty() && (!flags.trace_path.empty() || flags.metrics)) {
    flags.command = "compare";
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level_from_env();
  const ObsFlags flags = parse_obs_flags(argc, argv);
  if (flags.command.empty()) {
    usage();
    return 2;
  }
  if (!flags.trace_path.empty()) obs::tracer().set_enabled(true);
  if (flags.metrics) obs::metrics().set_enabled(true);
  const std::string& command = flags.command;
  const Config config = Config::from_args(argc, argv);
  int status = 2;
  bool known = true;
  try {
    if (command == "run") status = cmd_run(config);
    else if (command == "compare") status = cmd_compare(config);
    else if (command == "sweep") status = cmd_sweep(config);
    else if (command == "synth") status = cmd_synth(config);
    else if (command == "cluster") status = cmd_cluster(config);
    else known = false;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!known) {
    usage();
    return 2;
  }
  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path);
    if (!out) {
      std::cerr << "error: cannot write trace to " << flags.trace_path << "\n";
      return 1;
    }
    obs::tracer().write_chrome_trace(out);
    std::cerr << "wrote trace to " << flags.trace_path
              << " (open in ui.perfetto.dev)\n";
  }
  if (flags.metrics) {
    std::cout << "\n# --- metrics ---\n" << obs::metrics().prometheus_text();
  }
  return status;
}
