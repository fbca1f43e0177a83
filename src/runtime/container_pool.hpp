// Container provisioning, warm reuse, and keep-alive reclamation.
//
// The pool implements the cold/warm-start behaviour of the paper's
// platform: acquiring a container first looks for a keep-alive (idle)
// instance of the same function; otherwise a new container is started,
// paying a cold start whose CPU portion contends on the machine with
// everything else. Idle containers are reclaimed after the keep-alive
// interval. The pool also aggregates the provisioning statistics the
// paper reports (containers provisioned, cold starts, client footprint).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "resilience/fault_injector.hpp"
#include "runtime/container.hpp"
#include "runtime/keepalive.hpp"
#include "runtime/machine.hpp"
#include "sim/gauge.hpp"
#include "trace/workload.hpp"

namespace faasbatch::runtime {

/// Aggregate statistics across live and reclaimed containers.
struct PoolStats {
  std::uint64_t total_provisioned = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_hits = 0;
  /// Container starts that failed after their cold start (failure
  /// injection, FaultPlan::cold_start_failure_rate) and were retried.
  std::uint64_t failed_starts = 0;
  /// Keep-alive expiry events that fired while the container was not
  /// idle. Reuse must cancel the pending expiry, so this is 0 in a
  /// correct run; the differential invariant harness asserts it.
  std::uint64_t expired_while_active = 0;
  /// Containers destroyed by injected crashes (ContainerPool::destroy).
  std::uint64_t crashed = 0;
  std::uint64_t total_served = 0;
  std::uint64_t total_client_creations = 0;
  Bytes total_client_memory = 0;
};

class ContainerPool {
 public:
  /// Invoked when an acquired container is ready (booted and reserved for
  /// the caller). `cold_start_latency` is 0 for warm hits.
  using ReadyCallback = std::function<void(Container&, SimDuration cold_start_latency)>;

  /// `injector` decides boot failures and must outlive the pool; one
  /// built from a default FaultPlan never fails a boot.
  ContainerPool(Machine& machine, resilience::FaultInjector& injector);
  ~ContainerPool();

  ContainerPool(const ContainerPool&) = delete;
  ContainerPool& operator=(const ContainerPool&) = delete;

  /// Reserves an idle warm container for `function`, or returns nullptr.
  Container* try_acquire_warm(FunctionId function);

  /// True if an idle warm container exists for `function` (peek only).
  bool has_idle(FunctionId function) const;

  /// Starts a brand-new container for `profile`; `on_ready` fires after
  /// the cold start (base delay + contended CPU work) completes.
  void provision(const trace::FunctionProfile& profile, ReadyCallback on_ready);

  /// Warm container if available, otherwise provision.
  void acquire(const trace::FunctionProfile& profile, ReadyCallback on_ready);

  /// Returns a container to the pool (state -> idle, keep-alive timer
  /// armed). The container must have no active invocations.
  void release(Container& container);

  /// Destroys a container immediately (injected crash). The caller must
  /// have drained its active invocations first (their attempts failed);
  /// lifetime counters fold into the pool aggregate like a reclaim.
  void destroy(Container& container);

  /// Installs a keep-alive policy; by default containers idle for
  /// RuntimeConfig::keep_alive (the paper's fixed behaviour).
  void set_keepalive_policy(std::unique_ptr<KeepAlivePolicy> policy);

  /// Feeds an invocation arrival into the keep-alive policy (no-op for
  /// the fixed policy). Call at request receipt time.
  void note_arrival(FunctionId function);

  /// Live containers right now.
  std::size_t live_containers() const { return containers_.size(); }

  /// Live-container count over time (for resource plots).
  const sim::Gauge& live_gauge() const { return live_gauge_; }

  /// Aggregate stats including reclaimed containers.
  PoolStats stats() const;

  /// Visits every live container.
  void for_each(const std::function<void(const Container&)>& visit) const;

 private:
  void reclaim(ContainerId id);

  /// One boot attempt; on injected failure the container is destroyed
  /// and another attempt starts, accumulating latency from `started`.
  void provision_attempt(const trace::FunctionProfile& profile, SimTime started,
                         ReadyCallback on_ready);

  Machine& machine_;
  resilience::FaultInjector& injector_;
  std::unique_ptr<KeepAlivePolicy> keepalive_;  // nullptr = fixed config value
  std::unordered_map<ContainerId, std::unique_ptr<Container>> containers_;
  std::unordered_map<FunctionId, std::vector<ContainerId>> idle_by_function_;
  sim::Gauge live_gauge_;
  ContainerId next_id_ = 1;
  PoolStats accumulated_;  // counters folded in as containers are reclaimed
};

}  // namespace faasbatch::runtime
