// Declarative fault plan: what to break, how often, from which seed.
//
// FaaSBatch's core trick — mapping a whole invocation group to ONE
// container — enlarges the fault blast radius: a single container crash
// now takes out an entire batch. The paper never evaluates this, so the
// chaos layer makes it a first-class, deterministic experiment input: a
// FaultPlan declares per-fault-class rates and a seed, a FaultInjector
// turns it into reproducible fault decisions, and the differential
// harness asserts that every scheduler terminally accounts for every
// invocation under any plan.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace faasbatch::resilience {

/// All rates are per-decision probabilities in [0, 1]; 0 disables the
/// fault class entirely (and consumes no randomness, so enabling one
/// class never perturbs another class's stream).
struct FaultPlan {
  /// Seed of the injector's fault streams. Each fault class draws from
  /// its own forked sub-stream, so the same (seed, plan) pair yields the
  /// same decisions per class regardless of interleaving.
  std::uint64_t seed = 0xC4A05;

  /// Container boot fails after paying its cold start (image pull error,
  /// runtime crash); the ContainerPool draws it and retries the boot.
  double cold_start_failure_rate = 0.0;

  /// The container crashes when a dispatch's execution begins: every
  /// invocation mapped to it for that dispatch fails together (the
  /// batching blast radius) and the container is destroyed.
  double container_crash_rate = 0.0;

  /// One invocation attempt raises an execution error after running its
  /// body (user-code exception, OOM-killed task).
  double exec_error_rate = 0.0;

  /// Storage-client creation fails for one invocation attempt after
  /// paying the creation cost (auth/endpoint errors).
  double storage_failure_rate = 0.0;

  /// One invocation attempt lands on a degraded ("straggler") container
  /// and its body takes straggler_multiplier times longer.
  double straggler_rate = 0.0;
  double straggler_multiplier = 4.0;

  /// Delay between a container crash and the platform observing it
  /// (health-check / connection-reset latency) before re-dispatching.
  SimDuration crash_detection_latency = 100 * kMillisecond;

  // --- Worker fault classes (cluster blast radius, ISSUE 9) -----------
  //
  // Container faults above take down at most one batch; the classes below
  // take down a whole worker VM — its in-flight batches AND its warm
  // pool. They are drawn by the cluster dispatch plane's detector scan
  // (one decision per live worker per scan), never by the single-node
  // schedulers, so enabling them cannot perturb a single-worker run.

  /// The worker VM dies silently: it stops completing work (all results
  /// after the crash instant are lost) while the router, unaware, keeps
  /// routing to it until the failure detector declares it dead. One
  /// decision per live worker per detector scan.
  double worker_crash_rate = 0.0;

  /// The worker wedges: it stops completing (results are delayed, not
  /// lost) but still accepts routed work. The stall lasts
  /// worker_stall_multiplier times the detector's suspicion threshold, so
  /// multipliers above ~1.5 guarantee a death declaration and failover
  /// while small ones model blips the detector rides out.
  double worker_stall_rate = 0.0;
  double worker_stall_multiplier = 4.0;

  /// Cold re-boot time of a crashed worker before it rejoins the routing
  /// set. The replacement starts with an empty warm pool — the crash's
  /// second-order cost is the cold starts it re-inflicts.
  SimDuration worker_restart_latency = 2 * kSecond;

  /// True when any fault class can fire.
  bool any() const {
    return cold_start_failure_rate > 0.0 || container_crash_rate > 0.0 ||
           exec_error_rate > 0.0 || storage_failure_rate > 0.0 ||
           straggler_rate > 0.0 || worker_faults();
  }

  /// True when a worker-level fault class can fire (cluster runs only).
  bool worker_faults() const {
    return worker_crash_rate > 0.0 || worker_stall_rate > 0.0;
  }

  /// A plan injecting every container-level fault class at the same
  /// `rate`. Worker classes stay off: they only mean something behind the
  /// cluster dispatch plane, and the single-node differential harness
  /// reuses these plans.
  static FaultPlan uniform(double rate, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.cold_start_failure_rate = rate;
    plan.container_crash_rate = rate;
    plan.exec_error_rate = rate;
    plan.storage_failure_rate = rate;
    plan.straggler_rate = rate;
    return plan;
  }

  /// Stable FNV-1a fingerprint over every field (for determinism checks).
  std::uint64_t fingerprint() const;
};

}  // namespace faasbatch::resilience
