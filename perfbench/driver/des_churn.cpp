// des_churn: the cluster discrete-event simulation under worker churn.
//
// A 16-worker FaaSBatch cluster (function-affinity routing, the plane's
// default pull mode) replays CPU-intensive traces spread over 48
// functions while a fixed-seed crash plan kills and restarts workers. It
// is the ROADMAP's 1M-invocation cluster yardstick at benchmark size:
// per-incarnation records, the CPU model and the event queue dominate
// its wall time, and it is the only workload that runs the cluster plane.
//
// The load queues: routing is skewed (the busiest worker gets ~2x the
// mean share), so the workers holding hot functions run at ~65 % CPU
// against a ~31 % mean. There, bursts stretch execution (3-6 % over the
// bodies' cost), dispatch waits beyond the window, and cold starts, whose
// CPU part contends with running bodies, take ~2 s: ~60 % of a p99
// invocation's latency passes before it starts. Every run prints that
// split. At 14 % more load (0.37 mean, 0.76 max CPU) p99 moved by +-15 %
// between seeds (eight traces per seed): the busiest worker then sits
// near saturation.
//
// Steadiness by design (each choice removed a measured source of spread
// across seeds):
//  * One run pools kTraces traces whose seeds derive from --seed; the
//    simulated figures are taken over all of them.
//  * Arrivals carry many overlapping bursts (their count grows with the
//    horizon), so no single giant burst sets the tail.
//  * Body costs are drawn from the paper's duration model without
//    snapping to fib(N) steps: snapped costs put ~1 % atoms at 200 ms +
//    fib(N), and the median then read the same value for every seed.
//  * The crash plan has a fixed seed, so crashes barely move with the
//    trace, and the crash rate keeps the failover-delayed invocations
//    beyond the p99: at 4x this rate (~11 crashes per trace) p99 sat
//    where failover and the body tail meet and moved +-6 % across seeds.
//  * Wall-clock figures are medians over passes. After the first round
//    the run replays traces until --seconds is used up; every replay
//    must reproduce its first pass bit for bit.

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/dispatch_plane.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/duration_model.hpp"
#include "trace/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace faasbatch;
namespace {

constexpr std::size_t kTraces = 32;
constexpr std::size_t kInvocations = 100'000;
constexpr SimDuration kHorizon = 200 * kSecond;
constexpr std::size_t kWorkers = 16;
constexpr double kTailCapMs = 2000.0;

trace::Workload make_trace(std::uint64_t seed) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = kInvocations;
  spec.horizon = kHorizon;
  spec.num_functions = 48;
  spec.hot_fraction = 0.5;
  spec.hot_mass = 0.8;
  spec.bursts.burst_fraction = 0.2;
  spec.bursts.burst_span = 5 * kSecond;
  spec.bursts.mean_bursts = static_cast<double>(kHorizon / spec.bursts.burst_span);
  spec.tail_cap_ms = kTailCapMs;
  spec.seed = seed;
  trace::Workload workload = trace::synthesize_workload(spec);
  Rng rng(seed ^ 0x5eedULL);
  const trace::DurationModel model(kTailCapMs);
  for (auto& event : workload.events) event.duration_ms = model.sample_ms(rng);
  return workload;
}

cluster::ClusterSpec make_cluster() {
  cluster::ClusterSpec spec;
  spec.workers = kWorkers;
  spec.balancer = cluster::BalancerKind::kFunctionAffinity;
  spec.worker_spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  // Above the longest healthy body (the 2 s tail cap), so only real
  // crashes are declared dead.
  spec.detector.suspect_after = 3 * kSecond;
  spec.detector.confirm_window = 1 * kSecond;
  auto& plan = spec.worker_spec.fault_plan;
  plan.seed = 7;
  plan.worker_crash_rate = 0.00005;
  plan.worker_restart_latency = 2 * kSecond;
  return spec;
}

/// Wall-clock split of one pass over one trace.
struct Pass {
  double synth_s = 0, build_s = 0, start_s = 0, run_s = 0, finish_s = 0;
  double run_cpu_s = 0;  ///< process CPU over start + run + finish
  double build_rss_mib = 0;
  std::uint64_t allocs = 0;
  double run_phase_s() const { return start_s + run_s + finish_s; }
};

/// The simulated outcome of one trace; a replay must reproduce it.
struct Outcome {
  std::uint64_t fingerprint = 0, events = 0, containers = 0, completed = 0;
  std::uint64_t failed = 0, incarnations = 0, crashes = 0, redispatched = 0;
  std::uint64_t requeued = 0, pulls = 0, steals = 0;
  double imbalance = 0, p50 = 0, p99 = 0;
  /// Mean phases of the invocations at or beyond the trace's p99, in ms:
  /// dispatch (the batching window included), cold start, queueing inside
  /// the container, and execution.
  double tail_dispatch = 0, tail_cold = 0, tail_queued = 0, tail_exec = 0;
  /// Execution time over the bodies' nominal cost, minus 1: what CPU
  /// contention adds to service time.
  double stretch = 0;
  double util_mean = 0, util_max = 0;

  bool operator==(const Outcome&) const = default;
};

Pass simulate(std::uint64_t trace_seed, std::uint64_t pass_id, SpanLog* spans, Report& report,
              Outcome& out, LatencyHistogram* pooled) {
  Pass pass;
  // Every pass starts from a trimmed heap, so construction pays for fresh
  // pages each time instead of sometimes reusing what the last pass freed
  // (which made setup_s bimodal across seeds).
  malloc_trim(0);
  const double t0 = now_s();
  const trace::Workload workload = make_trace(trace_seed);
  const double t1 = now_s();
  sim::Simulator simulator;
  const double rss0 = rss_mib();
  std::optional<cluster::DispatchPlane> plane;
  plane.emplace(simulator, make_cluster(), workload);
  const double t2 = now_s();
  pass.build_rss_mib = rss_mib() - rss0;
  const std::uint64_t allocs0 = allocations();
  const double cpu0 = process_cpu_s();
  plane->start();
  const double t3 = now_s();
  simulator.run();
  const double t4 = now_s();
  const cluster::ClusterResult r = plane->finish();
  const double t5 = now_s();
  pass.run_cpu_s = process_cpu_s() - cpu0;
  pass.allocs = allocations() - allocs0;
  pass.synth_s = t1 - t0;
  pass.build_s = t2 - t1;
  pass.start_s = t3 - t2;
  pass.run_s = t4 - t3;
  pass.finish_s = t5 - t4;
  if (spans != nullptr) {
    const double base = t0 * 1e6 - trace_us();  // now_s -> span clock
    const std::uint64_t id = pass_id + 1;
    const auto span = [&](const char* layer, double a, double b) {
      spans->add(layer, a * 1e6 - base, (b - a) * 1e6, id, id);
    };
    spans->add("des.pass", t0 * 1e6 - base, (t5 - t0) * 1e6, 0.0, id);
    span("trace.synthesize", t0, t1);
    span("cluster.construct", t1, t2);
    span("cluster.start", t2, t3);
    span("sim.run", t3, t4);
    span("eval.finish", t4, t5);
  }

  const std::size_t n = workload.invocation_count();
  report.check(r.accounted == n, "des_churn: accounted " + std::to_string(r.accounted) +
                                     " != invocations " + std::to_string(n));
  report.check(r.completed + r.failed + r.shed == n,
               "des_churn: completed + failed + shed != invocations");
  out.fingerprint = r.chaos_fingerprint;
  out.events = simulator.processed_events();
  out.containers = r.total_containers();
  out.completed = r.completed;
  out.failed = r.failed + r.shed;
  out.incarnations = kWorkers;
  for (const auto& w : r.workers) out.incarnations += w.restarts;
  out.crashes = r.fault_stats.worker_crashes;
  out.redispatched = r.re_dispatched;
  out.requeued = r.transfer.requeued;
  out.pulls = r.transfer.pulls;
  out.steals = r.transfer.steals;
  out.imbalance = r.routing_imbalance();
  out.p50 = r.latency.total().percentile(0.50);
  out.p99 = r.latency.total().percentile(0.99);
  const auto& total = r.latency.total().values();
  const auto& dispatch = r.latency.scheduling().values();
  const auto& cold = r.latency.cold_start().values();
  const auto& queued = r.latency.queuing().values();
  const auto& exec = r.latency.execution().values();
  double tail = 0;
  for (std::size_t i = 0; i < total.size(); ++i) {
    if (pooled != nullptr) pooled->record(total[i]);
    if (total[i] < out.p99) continue;
    tail += 1;
    out.tail_dispatch += dispatch[i];
    out.tail_cold += cold[i];
    out.tail_queued += queued[i];
    out.tail_exec += exec[i];
  }
  for (double* phase : {&out.tail_dispatch, &out.tail_cold, &out.tail_queued, &out.tail_exec}) {
    *phase /= tail;
  }
  double nominal = 0;
  for (const auto& event : workload.events) nominal += event.duration_ms;
  out.stretch = r.latency.execution().sum() / nominal - 1;
  for (const auto& w : r.workers) {
    out.util_mean += w.cpu_utilization / static_cast<double>(r.workers.size());
    out.util_max = std::max(out.util_max, w.cpu_utilization);
  }
  return pass;
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

template <typename F>
double mean_of(const std::vector<Outcome>& outcomes, F f) {
  double sum = 0;
  for (const Outcome& o : outcomes) sum += static_cast<double>(f(o));
  return sum / static_cast<double>(outcomes.size());
}

}  // namespace

Report run_des_churn(const Options& options) {
  Report report;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kTraces; ++i) {
    seeds.push_back(ArgsHasher()
                        .add("des_churn", std::to_string(options.seed))
                        .add("trace", std::to_string(i))
                        .digest());
  }

  // First round: every trace once, untraced. The simulated figures come
  // from it.
  LatencyHistogram pooled;
  std::vector<Outcome> first(kTraces);
  std::vector<Pass> plain;
  const double begin = now_s();
  for (std::size_t i = 0; i < kTraces; ++i) {
    plain.push_back(simulate(seeds[i], i, nullptr, report, first[i], &pooled));
  }

  // Replays fill the rest of the run (at least one, to check
  // determinism); the traced run records spans and counts allocations in
  // them.
  SpanLog spans;
  std::vector<Pass> traced;
  std::vector<std::size_t> traced_traces;
  if (options.trace) count_allocations(true);
  const double per_pass = (now_s() - begin) / static_cast<double>(kTraces);
  for (std::size_t pass = kTraces;
       pass == kTraces || (options.trace && traced.size() < 2) ||
       now_s() - begin + per_pass <= options.seconds;
       ++pass) {
    const std::size_t i = pass % kTraces;
    Outcome again;
    const Pass p =
        simulate(seeds[i], pass, options.trace ? &spans : nullptr, report, again, nullptr);
    report.check(again == first[i], "des_churn: replay of trace " + std::to_string(i) +
                                        " diverged from its first pass");
    (options.trace ? traced : plain).push_back(p);
    if (options.trace) traced_traces.push_back(i);
  }
  count_allocations(false);

  std::uint64_t fingerprint = 0;
  double completed = 0;
  for (const Outcome& o : first) {
    fingerprint = ArgsHasher()
                      .add("prev", std::to_string(fingerprint))
                      .add("trace", std::to_string(o.fingerprint))
                      .digest();
    completed += static_cast<double>(o.completed);
  }
  const double attempted = static_cast<double>(kTraces * kInvocations);
  note("traces=" + std::to_string(kTraces) + " x " + std::to_string(kInvocations) +
       " invocations, passes=" + std::to_string(plain.size() + traced.size()) +
       ", crashes/trace=" + std::to_string(mean_of(first, [](auto& o) { return o.crashes; })));
  note("fingerprint=" + std::to_string(fingerprint) +
       " p50_ms=" + std::to_string(pooled.quantile(0.50)) +
       " p99_ms=" + std::to_string(pooled.quantile(0.99)) + " (n=" +
       std::to_string(pooled.count()) + ", beyond p99=" + std::to_string(pooled.count() / 100) +
       ")");
  const double tail_dispatch = mean_of(first, [](auto& o) { return o.tail_dispatch; });
  const double tail_cold = mean_of(first, [](auto& o) { return o.tail_cold; });
  const double tail_queued = mean_of(first, [](auto& o) { return o.tail_queued; });
  const double tail_exec = mean_of(first, [](auto& o) { return o.tail_exec; });
  note("p99 tail (mean ms): dispatch " + std::to_string(tail_dispatch) + " (window " +
       std::to_string(to_millis(schedulers::SchedulerOptions{}.dispatch_window)) +
       "), cold start " + std::to_string(tail_cold) + ", queued " +
       std::to_string(tail_queued) + ", execution " + std::to_string(tail_exec) +
       "; arrival-to-start " +
       std::to_string(100 * (tail_dispatch + tail_cold + tail_queued) /
                      (tail_dispatch + tail_cold + tail_queued + tail_exec)) +
       " % of it");
  note("CPU contention stretched execution by " +
       std::to_string(100 * mean_of(first, [](auto& o) { return o.stretch; })) +
       " % over the bodies' cost; worker CPU utilization mean " +
       std::to_string(mean_of(first, [](auto& o) { return o.util_mean; })) + ", max " +
       std::to_string(mean_of(first, [](auto& o) { return o.util_max; })));
  report.attempted = static_cast<std::uint64_t>(attempted);
  report.failed = static_cast<std::uint64_t>(attempted - completed);

  auto& metrics = report.metrics;
  if (!options.trace) {
    metrics["setup_s"] = median_of(plain, [](const Pass& p) { return p.synth_s + p.build_s; });
    metrics["peak_rss_mib"] = peak_rss_mib();
    metrics["ok_share"] = completed / attempted;
    metrics["throughput_ips"] = median_of(plain, [](const Pass& p) {
      return static_cast<double>(kInvocations) / p.run_phase_s();
    });
    metrics["p50_ms"] = pooled.quantile(0.50);
    metrics["p99_ms"] = pooled.quantile(0.99);
    metrics["containers"] = mean_of(first, [](auto& o) { return o.containers; });
    metrics["cpu_us_per_inv"] = median_of(plain, [](const Pass& p) {
      return p.run_cpu_s * 1e6 / static_cast<double>(kInvocations);
    });
    return report;
  }

  metrics["trace.synth_s"] = median_of(traced, [](const Pass& p) { return p.synth_s; });
  metrics["cluster.build_s"] = median_of(traced, [](const Pass& p) { return p.build_s; });
  metrics["cluster.incarnations"] = mean_of(first, [](auto& o) { return o.incarnations; });
  metrics["cluster.rss_per_incarnation_mib"] =
      median_of(traced, [](const Pass& p) { return p.build_rss_mib; }) / kWorkers;
  metrics["cluster.redispatched"] = mean_of(first, [](auto& o) { return o.redispatched; });
  metrics["cluster.requeued"] = mean_of(first, [](auto& o) { return o.requeued; });
  metrics["cluster.pulls"] = mean_of(first, [](auto& o) { return o.pulls; });
  metrics["cluster.steals"] = mean_of(first, [](auto& o) { return o.steals; });
  metrics["cluster.imbalance"] = mean_of(first, [](auto& o) { return o.imbalance; });
  metrics["sim.run_s"] = median_of(traced, [](const Pass& p) { return p.run_s; });
  metrics["sim.events"] = mean_of(first, [](auto& o) { return o.events; });
  std::vector<double> events_per_s;
  std::vector<double> overhead;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const std::size_t i = traced_traces[k];
    events_per_s.push_back(static_cast<double>(first[i].events) / traced[k].run_s);
    overhead.push_back(traced[k].run_phase_s() / plain[i].run_phase_s());
  }
  metrics["sim.events_per_s"] = median(events_per_s);
  metrics["sim.allocs_per_inv"] = median_of(traced, [](const Pass& p) {
    return static_cast<double>(p.allocs) / static_cast<double>(kInvocations);
  });
  metrics["eval.finish_s"] = median_of(traced, [](const Pass& p) { return p.finish_s; });
  metrics["resilience.worker_crashes"] = mean_of(first, [](auto& o) { return o.crashes; });
  metrics["resilience.failed"] = mean_of(first, [](auto& o) { return o.failed; });
  metrics["proc.threads"] = static_cast<double>(thread_count());
  metrics["proc.fds"] = static_cast<double>(fd_count());
  note("tracing overhead: run phase x" + std::to_string(median(overhead)) +
       " of the untraced pass over the same trace (allocation counting + spans)");
  spans.finish(options.out_dir + "/trace_des_churn.json");
  return report;
}

}  // namespace perfbench
