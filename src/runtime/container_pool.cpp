#include "runtime/container_pool.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/logging.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace faasbatch::runtime {
namespace {

obs::Counter& cold_starts_total() {
  static obs::Counter& c = obs::metrics().counter("fb_cold_starts_total");
  return c;
}
obs::Counter& warm_hits_total() {
  static obs::Counter& c = obs::metrics().counter("fb_warm_hits_total");
  return c;
}
obs::Counter& failed_starts_total() {
  static obs::Counter& c = obs::metrics().counter("fb_failed_starts_total");
  return c;
}
obs::Counter& keepalive_reclaims_total() {
  static obs::Counter& c = obs::metrics().counter("fb_keepalive_reclaims_total");
  return c;
}
obs::QuantileHistogram& cold_start_ms_histogram() {
  static obs::QuantileHistogram& h = obs::metrics().quantile("fb_cold_start_ms");
  return h;
}
obs::Gauge& live_containers_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("fb_live_containers");
  return g;
}

}  // namespace

ContainerPool::ContainerPool(Machine& machine)
    : machine_(machine), live_gauge_(0.0, /*keep_history=*/true) {
  // Default injector carries only the legacy boot-failure knob; a chaos
  // harness replaces it via set_fault_injector with a richer plan.
  resilience::FaultPlan plan;
  plan.seed = machine.config().failure_seed;
  plan.cold_start_failure_rate = machine.config().cold_start_failure_rate;
  own_injector_ = std::make_unique<resilience::FaultInjector>(plan);
  injector_ = own_injector_.get();
  live_gauge_.set(machine_.simulator().now(), 0.0);
}

ContainerPool::~ContainerPool() = default;

Container* ContainerPool::try_acquire_warm(FunctionId function) {
  auto it = idle_by_function_.find(function);
  if (it == idle_by_function_.end() || it->second.empty()) return nullptr;
  const ContainerId id = it->second.back();
  it->second.pop_back();
  auto cit = containers_.find(id);
  assert(cit != containers_.end());
  Container& container = *cit->second;
  assert(container.state() == ContainerState::kIdle);
  if (container.expiry_scheduled_) {
    machine_.simulator().cancel(container.expiry_event_);
    container.expiry_scheduled_ = false;
  }
  container.set_state(ContainerState::kActive);
  ++accumulated_.warm_hits;
  warm_hits_total().inc();
  if (obs::tracer().enabled()) {
    obs::tracer().instant("container", "warm_acquire",
                          static_cast<double>(machine_.simulator().now()),
                          obs::kContainerTrackBase + id,
                          {{"function", Json(static_cast<std::int64_t>(function))}});
  }
  return &container;
}

bool ContainerPool::has_idle(FunctionId function) const {
  const auto it = idle_by_function_.find(function);
  return it != idle_by_function_.end() && !it->second.empty();
}

void ContainerPool::provision(const trace::FunctionProfile& profile,
                              ReadyCallback on_ready) {
  provision_attempt(profile, machine_.simulator().now(), std::move(on_ready));
}

void ContainerPool::provision_attempt(const trace::FunctionProfile& profile,
                                      SimTime started, ReadyCallback on_ready) {
  const ContainerId id = next_id_++;
  auto container = std::make_unique<Container>(machine_, id, profile);
  Container* raw = container.get();
  containers_.emplace(id, std::move(container));
  ++accumulated_.total_provisioned;
  ++accumulated_.cold_starts;
  cold_starts_total().inc();
  live_gauge_.set(machine_.simulator().now(), static_cast<double>(containers_.size()));
  live_containers_gauge().set(static_cast<double>(containers_.size()));

  const RuntimeConfig& config = machine_.config();
  // Cold start = fixed I/O part, then a CPU part that contends with
  // everything else running on the machine.
  machine_.simulator().schedule_after(
      config.cold_start_base,
      [this, raw, id, started, profile, on_ready = std::move(on_ready)]() mutable {
        machine_.cpu().submit(
            machine_.config().cold_start_cpu_seconds,
            [this, raw, id, started, profile, on_ready = std::move(on_ready)]() mutable {
              if (injector_->inject_cold_start_failure()) {
                // Injected boot failure: tear the attempt down (its
                // memory is released) and start over; the waiters keep
                // accumulating latency from the original request.
                ++accumulated_.failed_starts;
                failed_starts_total().inc();
                containers_.erase(id);
                live_gauge_.set(machine_.simulator().now(),
                                static_cast<double>(containers_.size()));
                live_containers_gauge().set(static_cast<double>(containers_.size()));
                provision_attempt(profile, started, std::move(on_ready));
                return;
              }
              raw->create_cpu_group();
              raw->set_state(ContainerState::kActive);
              const SimDuration latency = machine_.simulator().now() - started;
              cold_start_ms_histogram().record(to_millis(latency));
              if (obs::tracer().enabled()) {
                obs::tracer().complete(
                    "container", "cold_start", static_cast<double>(started),
                    static_cast<double>(latency), obs::kContainerTrackBase + id,
                    {{"function", Json(static_cast<std::int64_t>(profile.id))},
                     {"container", Json(static_cast<std::int64_t>(id))}});
              }
              on_ready(*raw, latency);
            });
      });
}

void ContainerPool::acquire(const trace::FunctionProfile& profile,
                            ReadyCallback on_ready) {
  if (Container* warm = try_acquire_warm(profile.id); warm != nullptr) {
    on_ready(*warm, 0);
    return;
  }
  provision(profile, std::move(on_ready));
}

void ContainerPool::set_keepalive_policy(std::unique_ptr<KeepAlivePolicy> policy) {
  keepalive_ = std::move(policy);
}

void ContainerPool::note_arrival(FunctionId function) {
  if (keepalive_) keepalive_->record_arrival(function, machine_.simulator().now());
}

void ContainerPool::release(Container& container) {
  if (container.active_invocations() != 0) {
    throw std::logic_error("ContainerPool::release: container still has work");
  }
  container.set_state(ContainerState::kIdle);
  idle_by_function_[container.function()].push_back(container.id());
  const ContainerId id = container.id();
  const SimDuration keep_alive =
      keepalive_ ? keepalive_->keep_alive_for(container.function(),
                                              machine_.simulator().now())
                 : machine_.config().keep_alive;
  container.expiry_event_ = machine_.simulator().schedule_after(
      keep_alive, [this, id] { reclaim(id); });
  container.expiry_scheduled_ = true;
}

void ContainerPool::set_fault_injector(resilience::FaultInjector* injector) {
  injector_ = injector != nullptr ? injector : own_injector_.get();
}

void ContainerPool::destroy(Container& container) {
  if (container.active_invocations() != 0) {
    throw std::logic_error("ContainerPool::destroy: container still has work");
  }
  const ContainerId id = container.id();
  auto it = containers_.find(id);
  assert(it != containers_.end());
  if (container.expiry_scheduled_) {
    machine_.simulator().cancel(container.expiry_event_);
    container.expiry_scheduled_ = false;
  }
  accumulated_.total_served += container.served();
  accumulated_.total_client_creations += container.client_creations();
  accumulated_.total_client_memory += container.client_memory();
  ++accumulated_.crashed;
  obs::metrics().counter("fb_container_crashes_total").inc();
  auto idle_it = idle_by_function_.find(container.function());
  if (idle_it != idle_by_function_.end()) {
    auto& idle = idle_it->second;
    idle.erase(std::remove(idle.begin(), idle.end(), id), idle.end());
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "container", "crash", static_cast<double>(machine_.simulator().now()),
        obs::kContainerTrackBase + id,
        {{"function", Json(static_cast<std::int64_t>(container.function()))}});
  }
  containers_.erase(it);
  live_gauge_.set(machine_.simulator().now(), static_cast<double>(containers_.size()));
  live_containers_gauge().set(static_cast<double>(containers_.size()));
}

void ContainerPool::reclaim(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return;
  Container& container = *it->second;
  if (container.state() != ContainerState::kIdle) {
    // Would have reaped an active container — reuse failed to cancel the
    // expiry timer. Count it so invariant checks can flag the bug.
    ++accumulated_.expired_while_active;
    obs::metrics().counter("fb_expired_while_active_total").inc();
    return;
  }
  // Fold lifetime counters into the pool aggregate before destruction.
  accumulated_.total_served += container.served();
  accumulated_.total_client_creations += container.client_creations();
  accumulated_.total_client_memory += container.client_memory();
  auto idle_it = idle_by_function_.find(container.function());
  if (idle_it != idle_by_function_.end()) {
    auto& idle = idle_it->second;
    idle.erase(std::remove(idle.begin(), idle.end(), id), idle.end());
  }
  keepalive_reclaims_total().inc();
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "container", "keepalive_expiry",
        static_cast<double>(machine_.simulator().now()),
        obs::kContainerTrackBase + id,
        {{"function", Json(static_cast<std::int64_t>(container.function()))}});
  }
  containers_.erase(it);
  live_gauge_.set(machine_.simulator().now(), static_cast<double>(containers_.size()));
  live_containers_gauge().set(static_cast<double>(containers_.size()));
}

PoolStats ContainerPool::stats() const {
  PoolStats stats = accumulated_;
  for (const auto& [id, container] : containers_) {
    stats.total_served += container->served();
    stats.total_client_creations += container->client_creations();
    stats.total_client_memory += container->client_memory();
  }
  return stats;
}

void ContainerPool::for_each(const std::function<void(const Container&)>& visit) const {
  for (const auto& [id, container] : containers_) visit(*container);
}

}  // namespace faasbatch::runtime
