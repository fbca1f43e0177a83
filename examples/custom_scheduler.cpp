// Example: implementing a custom scheduling policy against the library's
// Scheduler interface and benchmarking it with the standard harness.
//
// The policy here — "Sticky" — routes every invocation of a function to
// one long-lived container with a bounded thread pool (no windowing):
// simpler than FaaSBatch, better than Vanilla under bursts. The point of
// the example is the integration pattern:
//   1. subclass schedulers::Scheduler,
//   2. drive containers through ctx().pool and exec_common helpers,
//   3. stamp the InvocationRecord phases,
//   4. reuse eval/ to compare against the built-in policies.
#include <iostream>
#include <unordered_map>

#include "eval/experiment.hpp"
#include "metrics/report.hpp"
#include "schedulers/exec_common.hpp"
#include "trace/workload.hpp"
#include "common/logging.hpp"

using namespace faasbatch;

namespace {

class StickyScheduler : public schedulers::Scheduler {
 public:
  StickyScheduler(schedulers::SchedulerContext context,
                  schedulers::SchedulerOptions options)
      : Scheduler(context, options) {}

  std::string_view name() const override { return "Sticky"; }

  void on_arrival(InvocationId id) override {
    core::InvocationRecord& record = ctx().records.at(id);
    record.dispatched = ctx().sim.now();  // no dispatch pipeline modelled
    const FunctionId function = record.function;
    auto it = homes_.find(function);
    if (it != homes_.end() && it->second != nullptr) {
      start(*it->second, id, 0);
      return;
    }
    // First invocation of this function: provision its home container
    // and queue followers until it boots.
    pending_[function].push_back(id);
    if (it != homes_.end()) return;  // provisioning already in flight
    homes_[function] = nullptr;
    ctx().pool.provision(
        ctx().workload.functions.at(function),
        [this, function](runtime::Container& container, SimDuration cold) {
          homes_[function] = &container;
          auto waiting = std::move(pending_[function]);
          pending_.erase(function);
          for (InvocationId waiter : waiting) start(container, waiter, cold);
        });
  }

 private:
  void start(runtime::Container& container, InvocationId id, SimDuration cold) {
    ctx().records.at(id).cold_start = cold;
    schedulers::execute_invocation(
        ctx(), container, id, schedulers::ExecEnv{},
        [this, id](bool ok) {
          // The default chaos engine injects no faults, so attempts
          // always succeed.
          if (ok) ctx().notify_complete(id);
        });
    // Note: the home container is never released; it stays active for
    // the platform's lifetime (that's the "sticky" trade-off).
  }

  std::unordered_map<FunctionId, runtime::Container*> homes_;
  std::unordered_map<FunctionId, std::vector<InvocationId>> pending_;
};

eval::ExperimentResult run_sticky(const trace::Workload& workload) {
  // The harness pieces are reusable outside eval::run_experiment too.
  sim::Simulator simulator;
  runtime::RuntimeConfig config;
  resilience::ChaosEngine chaos;  // default plan: no faults, admits all
  runtime::Machine machine(simulator, config);
  runtime::ContainerPool pool(machine, chaos.injector());
  std::vector<core::InvocationRecord> records(workload.events.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<InvocationId>(i);
    records[i].function = workload.events[i].function;
    records[i].arrival = workload.events[i].arrival;
  }
  std::size_t completed = 0;
  SimTime makespan = 0;
  schedulers::SchedulerContext context{
      simulator, machine, pool, workload, storage::ClientCostModel{}, records,
      nullptr, chaos};
  context.notify_complete = [&](InvocationId) {
    if (++completed == records.size()) {
      makespan = simulator.now();
      simulator.stop();
    }
  };
  StickyScheduler scheduler(context, {});
  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    const InvocationId id = static_cast<InvocationId>(i);
    simulator.schedule_at(workload.events[i].arrival,
                          [&scheduler, id] { scheduler.on_arrival(id); });
  }
  simulator.run();

  eval::ExperimentResult result;
  result.scheduler_name = "Sticky";
  result.invocations = records.size();
  result.completed = completed;
  result.makespan = makespan;
  for (const auto& record : records) result.latency.add(record.breakdown());
  result.containers_provisioned = pool.stats().total_provisioned;
  result.memory_avg_mib =
      to_mib(static_cast<Bytes>(machine.memory_gauge().time_average(makespan)));
  result.cpu_utilization = machine.cpu_utilization(makespan);
  return result;
}

}  // namespace

int main() {
  faasbatch::set_log_level_from_env();
  trace::WorkloadSpec spec;
  spec.invocations = 400;
  spec.seed = 42;
  const trace::Workload workload = trace::synthesize_workload(spec);

  std::cout << "Custom 'Sticky' policy vs built-ins (" << workload.invocation_count()
            << " CPU invocations)\n\n";

  const auto sticky = run_sticky(workload);
  eval::ExperimentSpec base;
  base.scheduler = schedulers::SchedulerKind::kVanilla;
  const auto vanilla = eval::run_experiment(base, workload);
  base.scheduler = schedulers::SchedulerKind::kFaasBatch;
  const auto faasbatch = eval::run_experiment(base, workload);

  metrics::Table table({"policy", "p50_total_ms", "p98_total_ms", "containers",
                        "mem_avg_MiB"});
  for (const auto* result : {&vanilla, &sticky, &faasbatch}) {
    table.add_row({result->scheduler_name,
                   metrics::Table::num(result->latency.total().percentile(0.5)),
                   metrics::Table::num(result->latency.total().percentile(0.98)),
                   std::to_string(result->containers_provisioned),
                   metrics::Table::num(result->memory_avg_mib, 1)});
  }
  table.print(std::cout);
  std::cout << "\nSticky routes all of a function's invocations to one container\n"
               "with no window wait — but note this toy policy models NO\n"
               "platform dispatch cost (dispatched = arrival), so its latency\n"
               "is optimistic; the built-ins pay a CPU-priced dispatch\n"
               "pipeline. The point is the integration pattern, not the\n"
               "policy: subclass Scheduler, reuse the pool/exec helpers, and\n"
               "the whole evaluation harness works on your policy.\n";
  return 0;
}
