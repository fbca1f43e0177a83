// One simulated worker VM: the unit the paper evaluates every scheduler
// on (§IV). A Worker owns the Machine, the ContainerPool (the spec's
// keep-alive policy; boot failures drawn from the run's chaos engine),
// the invocation records seeded from the workload, and the scheduler.
//
// Every harness builds its workers here: the standalone experiment, the
// differential harness, and each incarnation of a cluster worker. A
// one-worker cluster therefore runs the same assembly as the standalone
// experiment, which is what the single-worker-vs-standalone tests pin.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/invocation.hpp"
#include "eval/experiment.hpp"
#include "resilience/chaos_engine.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "schedulers/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/workload.hpp"

namespace faasbatch::eval {

class Worker {
 public:
  /// Builds the worker for `spec` over `workload`. `sim`, `workload` and
  /// `chaos` must outlive it. `notify_complete` fires once per
  /// terminally-accounted invocation (SchedulerContext::notify_complete).
  Worker(sim::Simulator& sim, const ExperimentSpec& spec,
         const trace::Workload& workload, resilience::ChaosEngine& chaos,
         std::function<void(InvocationId)> notify_complete);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Delivers invocation `id` at the current simulated time: feeds the
  /// keep-alive policy, then hands it to the scheduler.
  void arrive(InvocationId id);

  std::string_view scheduler_name() const { return scheduler_->name(); }
  runtime::Machine& machine() { return machine_; }
  runtime::ContainerPool& pool() { return pool_; }
  /// This worker's records, indexed by InvocationId; the scheduler
  /// stamps them.
  std::vector<core::InvocationRecord>& records() { return records_; }

 private:
  runtime::Machine machine_;
  runtime::ContainerPool pool_;
  std::vector<core::InvocationRecord> records_;
  std::unique_ptr<schedulers::Scheduler> scheduler_;
};

}  // namespace faasbatch::eval
