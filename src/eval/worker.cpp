#include "eval/worker.hpp"

#include <utility>

#include "runtime/keepalive.hpp"

namespace faasbatch::eval {

Worker::Worker(sim::Simulator& sim, const ExperimentSpec& spec,
               const trace::Workload& workload, resilience::ChaosEngine& chaos,
               std::function<void(InvocationId)> notify_complete)
    : machine_(sim, spec.runtime),
      pool_(machine_, chaos.injector()),
      records_(workload.events.size()) {
  if (spec.keepalive == KeepAliveKind::kHistogram) {
    pool_.set_keepalive_policy(
        std::make_unique<runtime::HistogramKeepAlive>(spec.keepalive_histogram));
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    records_[i].id = static_cast<InvocationId>(i);
    records_[i].function = workload.events[i].function;
    records_[i].arrival = workload.events[i].arrival;
  }
  scheduler_ = schedulers::make_scheduler(
      spec.scheduler,
      schedulers::SchedulerContext{sim, machine_, pool_, workload,
                                   spec.client_model, records_,
                                   std::move(notify_complete), chaos},
      spec.scheduler_options);
}

void Worker::arrive(InvocationId id) {
  pool_.note_arrival(records_[id].function);
  scheduler_->on_arrival(id);
}

}  // namespace faasbatch::eval
