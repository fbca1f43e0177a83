// ChaosEngine: the per-run bundle the schedulers and harness talk to.
//
// One engine per experiment run owns the FaultInjector (what breaks), the
// RetryPolicy (how failures are retried), an OverloadGuard (what gets
// shed), a dedicated backoff jitter stream, and deterministic counters of
// every resilience decision. Its fingerprint folds all of that into one
// value, so "same seed + same plan => identical retry/shed/failure
// behaviour" is a single equality check in the differential harness.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/overload_guard.hpp"
#include "resilience/retry_policy.hpp"

namespace faasbatch::resilience {

/// Deterministic counts of resilience decisions (distinct from the faults
/// that caused them; FaultStats lives on the injector).
struct ChaosCounters {
  std::uint64_t retries = 0;
  std::uint64_t sheds = 0;
  std::uint64_t terminal_failures = 0;
  std::uint64_t deadline_failures = 0;
  /// Bound-but-not-injected invocations returned to the cluster pending
  /// queue when their worker died or drained (clusters only; no attempt
  /// is consumed — the work never started anywhere).
  std::uint64_t requeues = 0;

  /// Stable FNV-1a fold over every counter.
  std::uint64_t fingerprint() const;
};

class ChaosEngine {
 public:
  explicit ChaosEngine(FaultPlan plan = {}, RetryPolicy retry = {},
                       OverloadGuard::Options overload = {});

  FaultInjector& injector() { return injector_; }
  const RetryPolicy& retry_policy() const { return retry_; }
  OverloadGuard& overload_guard() { return overload_; }
  const ChaosCounters& counters() const { return counters_; }

  /// Admission decision for one arriving invocation. False = shed; the
  /// caller must terminally account the invocation (Outcome::kShed)
  /// without executing it.
  bool admit();

  /// Releases the admission slot of one terminally-accounted invocation
  /// (not called for shed ones — they were never admitted).
  void finish();

  /// Records one backlog invocation returned to a pending queue by a
  /// worker death or drain (folded into the determinism fingerprint).
  void note_requeue() { ++counters_.requeues; }

  /// Decides the fate of invocation `id` after a failed attempt at time
  /// `now`: either grants a retry (returns true and sets `backoff` to the
  /// decorrelated-jitter delay before the next attempt) or declares the
  /// invocation terminally failed (returns false). `attempts` counts
  /// attempts already consumed; `arrival` anchors the request deadline.
  bool plan_retry(InvocationId id, std::uint32_t attempts, SimTime arrival,
                  SimTime now, SimDuration* backoff);

  /// Folds ChaosCounters, FaultStats, and the overload guard's
  /// admitted/shed totals into one determinism fingerprint.
  std::uint64_t fingerprint() const;

 private:
  FaultInjector injector_;
  RetryPolicy retry_;
  OverloadGuard overload_;
  Rng backoff_rng_;
  ChaosCounters counters_;
  // Previous backoff per invocation — decorrelated jitter's only state.
  // Erased on terminal failure to keep the map bounded by in-flight work.
  std::unordered_map<InvocationId, SimDuration> prev_backoff_;
};

}  // namespace faasbatch::resilience
