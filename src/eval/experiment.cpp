#include "eval/experiment.hpp"

#include <memory>
#include <stdexcept>

#include "common/hash.hpp"
#include "core/invocation.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::eval {
namespace {

// Emits the per-invocation lifecycle chain as Chrome complete ('X') spans
// on the invocation's own track. Done after the run from the stamped
// records: the output is identical to live emission but keeps the hot
// path free of per-phase tracer calls.
void emit_invocation_spans(const std::vector<core::InvocationRecord>& records) {
  obs::TraceRecorder& tracer = obs::tracer();
  for (const core::InvocationRecord& record : records) {
    const auto tid = static_cast<std::uint64_t>(record.id);
    const Json function = Json(static_cast<std::int64_t>(record.function));
    const SimTime done = record.returned > record.exec_end ? record.returned
                                                           : record.exec_end;
    tracer.name_thread(tid, "inv " + std::to_string(record.id));
    tracer.complete("invocation", "invocation",
                    static_cast<double>(record.arrival),
                    static_cast<double>(done - record.arrival), tid,
                    {{"function", function},
                     {"completed", Json(record.completed)}});
    tracer.complete("invocation", "schedule",
                    static_cast<double>(record.arrival),
                    static_cast<double>(record.dispatched - record.arrival), tid,
                    {{"function", function}});
    if (record.cold_start > 0) {
      tracer.complete("invocation", "cold_start",
                      static_cast<double>(record.dispatched),
                      static_cast<double>(record.cold_start), tid,
                      {{"function", function}});
    }
    const SimTime ready = record.dispatched + record.cold_start;
    if (record.exec_start > ready) {
      tracer.complete("invocation", "queue", static_cast<double>(ready),
                      static_cast<double>(record.exec_start - ready), tid,
                      {{"function", function}});
    }
    tracer.complete("invocation", "exec",
                    static_cast<double>(record.exec_start),
                    static_cast<double>(record.exec_end - record.exec_start),
                    tid, {{"function", function}});
  }
}

}  // namespace

void OutcomeCounts::count(core::Outcome outcome) {
  switch (outcome) {
    case core::Outcome::kCompleted:
      ++completed;
      break;
    case core::Outcome::kFailed:
      ++failed;
      break;
    case core::Outcome::kShed:
      ++shed;
      break;
    case core::Outcome::kPending:
      break;
  }
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& other) {
  completed += other.completed;
  failed += other.failed;
  shed += other.shed;
  re_dispatched += other.re_dispatched;
  return *this;
}

std::uint64_t OutcomeCounts::fingerprint() const {
  std::uint64_t h = fnv1a_u64(completed);
  h = fnv1a_u64(failed, h);
  h = fnv1a_u64(shed, h);
  h = fnv1a_u64(re_dispatched, h);
  return h;
}

TransferCounts& TransferCounts::operator+=(const TransferCounts& other) {
  pulls += other.pulls;
  pulled += other.pulled;
  steals += other.steals;
  stolen += other.stolen;
  victimized += other.victimized;
  requeued += other.requeued;
  return *this;
}

std::uint64_t TransferCounts::fingerprint() const {
  std::uint64_t h = fnv1a_u64(pulls);
  h = fnv1a_u64(pulled, h);
  h = fnv1a_u64(steals, h);
  h = fnv1a_u64(stolen, h);
  h = fnv1a_u64(victimized, h);
  h = fnv1a_u64(requeued, h);
  return h;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const trace::Workload& workload) {
  sim::Simulator simulator;
  runtime::Machine machine(simulator, spec.runtime);
  runtime::ContainerPool pool(machine);
  if (spec.keepalive == KeepAliveKind::kHistogram) {
    pool.set_keepalive_policy(
        std::make_unique<runtime::HistogramKeepAlive>(spec.keepalive_histogram));
  }

  std::vector<core::InvocationRecord> records(workload.events.size());
  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    records[i].id = static_cast<InvocationId>(i);
    records[i].function = workload.events[i].function;
    records[i].arrival = workload.events[i].arrival;
  }

  resilience::ChaosEngine chaos(spec.fault_plan, spec.retry_policy,
                                spec.overload);
  if (spec.fault_plan.any()) {
    // The chaos plan supersedes the pool's config-derived boot-failure
    // injector so every fault class shares one seed and one stats block.
    pool.set_fault_injector(&chaos.injector());
  }

  std::size_t accounted = 0;
  SimTime makespan = 0;
  schedulers::SchedulerContext context{
      simulator,
      machine,
      pool,
      workload,
      spec.client_model,
      records,
      /*notify_complete=*/nullptr,
      &chaos,
  };
  context.notify_complete = [&](InvocationId id) {
    // "Accounted" covers every terminal outcome; shed invocations never
    // took an admission slot, so only the others release one.
    if (records.at(id).outcome != core::Outcome::kShed) chaos.finish();
    ++accounted;
    if (accounted == records.size()) {
      makespan = simulator.now();
      simulator.stop();
    }
  };

  auto scheduler =
      schedulers::make_scheduler(spec.scheduler, context, spec.scheduler_options);

  if (obs::tracer().enabled()) {
    obs::tracer().begin_process("sim:" + std::string(scheduler->name()));
  }

  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    const InvocationId id = static_cast<InvocationId>(i);
    const FunctionId function = workload.events[i].function;
    simulator.schedule_at(workload.events[i].arrival,
                          [&scheduler, &pool, id, function] {
                            pool.note_arrival(function);
                            scheduler->on_arrival(id);
                          });
  }

  simulator.run();

  if (accounted != records.size()) {
    throw std::runtime_error("run_experiment: " +
                             std::to_string(records.size() - accounted) +
                             " invocations never terminally accounted under " +
                             std::string(scheduler->name()));
  }

  if (obs::tracer().enabled()) emit_invocation_spans(records);
  if (obs::metrics().enabled()) {
    obs::metrics().counter("fb_invocations_total").inc(records.size());
    obs::QuantileHistogram& response_ms =
        obs::metrics().quantile("fb_response_latency_ms");
    for (const core::InvocationRecord& record : records) {
      if (record.completed) response_ms.record(to_millis(record.response_latency()));
    }
  }

  ExperimentResult result;
  result.scheduler_name = std::string(scheduler->name());
  result.invocations = records.size();
  result.accounted = accounted;
  std::size_t slo_violations = 0;
  std::size_t slo_checked = 0;
  OutcomeCounts outcomes;
  for (const core::InvocationRecord& record : records) {
    outcomes.count(record.outcome);
    switch (record.outcome) {
      case core::Outcome::kCompleted:
        break;
      case core::Outcome::kFailed:
      case core::Outcome::kShed:
        continue;  // failed/shed stamps are not meaningful latencies
      case core::Outcome::kPending:
        continue;  // unreachable after the accounted check above
    }
    result.latency.add(record.breakdown());
    result.response_ms.add(to_millis(record.response_latency()));
    const auto slo_it = spec.scheduler_options.kraken_slo_ms.find(record.function);
    if (slo_it != spec.scheduler_options.kraken_slo_ms.end()) {
      ++slo_checked;
      if (to_millis(record.breakdown().total()) > slo_it->second) ++slo_violations;
    }
  }
  result.completed = outcomes.completed;
  result.failed = outcomes.failed;
  result.shed = outcomes.shed;
  result.fault_stats = chaos.injector().stats();
  result.chaos_counters = chaos.counters();
  result.chaos_fingerprint = chaos.fingerprint();
  if (slo_checked > 0) {
    result.slo_violation_rate =
        static_cast<double>(slo_violations) / static_cast<double>(slo_checked);
  }

  const runtime::PoolStats pool_stats = pool.stats();
  result.containers_provisioned = pool_stats.total_provisioned;
  result.cold_starts = pool_stats.cold_starts;
  result.warm_hits = pool_stats.warm_hits;
  result.client_creations = pool_stats.total_client_creations;

  result.makespan = makespan;
  result.memory_avg_mib = to_mib(
      static_cast<Bytes>(machine.memory_gauge().time_average(makespan)));
  result.memory_peak_mib = to_mib(machine.memory_peak());
  for (const auto& [t, bytes] : machine.memory_gauge().sample(kSecond, makespan)) {
    result.memory_series_mib.emplace_back(t, to_mib(static_cast<Bytes>(bytes)));
  }

  result.busy_core_seconds = machine.busy_core_seconds();
  result.cpu_utilization = machine.cpu_utilization(makespan);
  result.client_mib_per_invocation =
      records.empty() ? 0.0
                      : to_mib(pool_stats.total_client_memory) /
                            static_cast<double>(records.size());
  result.records = std::move(records);
  return result;
}

std::unordered_map<FunctionId, double> derive_kraken_slos(
    const ExperimentSpec& base_spec, const trace::Workload& workload) {
  ExperimentSpec vanilla_spec = base_spec;
  vanilla_spec.scheduler = schedulers::SchedulerKind::kVanilla;
  const ExperimentResult calibration = run_experiment(vanilla_spec, workload);

  std::unordered_map<FunctionId, metrics::Samples> per_function;
  for (const core::InvocationRecord& record : calibration.records) {
    per_function[record.function].add(to_millis(record.breakdown().total()));
  }
  std::unordered_map<FunctionId, double> slos;
  for (const auto& [function, samples] : per_function) {
    slos[function] = samples.percentile(0.98);
  }
  return slos;
}

}  // namespace faasbatch::eval
