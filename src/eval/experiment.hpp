// Experiment harness: runs one (scheduler, workload) pair through the
// simulated platform and collects everything the paper's figures need —
// per-component latency distributions (Figs. 11/12), container counts
// (Figs. 13b/14b), memory usage and series (13a/14a), CPU utilisation
// (13c/14c), and per-invocation client memory footprint (14d).
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/invocation.hpp"
#include "metrics/breakdown.hpp"
#include "resilience/chaos_engine.hpp"
#include "runtime/config.hpp"
#include "runtime/keepalive.hpp"
#include "schedulers/scheduler.hpp"
#include "storage/client.hpp"
#include "trace/workload.hpp"

namespace faasbatch::eval {

enum class KeepAliveKind {
  /// Fixed RuntimeConfig::keep_alive for every container (paper default).
  kFixed,
  /// Per-function IaT-histogram policy (Shahrad et al., ATC'20).
  kHistogram,
};

struct ExperimentSpec {
  schedulers::SchedulerKind scheduler = schedulers::SchedulerKind::kFaasBatch;
  schedulers::SchedulerOptions scheduler_options;
  runtime::RuntimeConfig runtime;
  storage::ClientCostModel client_model;
  KeepAliveKind keepalive = KeepAliveKind::kFixed;
  runtime::HistogramKeepAlive::Options keepalive_histogram;

  /// Chaos inputs. Every injected fault, container boot failures
  /// included, comes from this plan; the all-zero default injects none.
  resilience::FaultPlan fault_plan;
  resilience::RetryPolicy retry_policy;
  resilience::OverloadGuard::Options overload;
};

/// Terminal-outcome tally over a set of invocations. The single-node
/// harness folds one per run; the cluster dispatch plane keeps one per
/// worker so chaos runs report per-fault-domain accounting instead of
/// aborting on the first failure.
struct OutcomeCounts {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  /// Invocations re-dispatched away from a worker declared dead (cluster
  /// runs only; always 0 for single-node experiments). Not a terminal
  /// outcome — a re-dispatched invocation still lands in one of the
  /// three buckets above.
  std::uint64_t re_dispatched = 0;

  /// Terminally-accounted invocations.
  std::uint64_t accounted() const { return completed + failed + shed; }

  /// Tallies one terminal outcome (kPending is ignored).
  void count(core::Outcome outcome);

  OutcomeCounts& operator+=(const OutcomeCounts& other);

  /// Stable FNV-1a fold over every counter (determinism checks).
  std::uint64_t fingerprint() const;
};

/// Work-transfer tally for one cluster worker: how its work arrived
/// (pulled from the pending queue, stolen from a peer's backlog) and how
/// it left without running (stolen away, requeued by death or drain).
/// All zero for single-node experiments.
struct TransferCounts {
  /// Pull operations this worker performed against the pending queue.
  std::uint64_t pulls = 0;
  /// Invocations those pulls took.
  std::uint64_t pulled = 0;
  /// Steal operations this worker performed as the thief.
  std::uint64_t steals = 0;
  /// Invocations those steals took.
  std::uint64_t stolen = 0;
  /// Invocations stolen away from this worker's backlog (as the victim).
  std::uint64_t victimized = 0;
  /// Backlog invocations returned to the pending queue when this worker
  /// died or drained before injecting them (no attempt consumed).
  std::uint64_t requeued = 0;

  TransferCounts& operator+=(const TransferCounts& other);

  /// Stable FNV-1a fold over every counter (determinism checks).
  std::uint64_t fingerprint() const;
};

struct ExperimentResult {
  std::string scheduler_name;
  std::size_t invocations = 0;
  std::size_t completed = 0;
  /// Terminally-accounted invocations: completed + failed + shed. Always
  /// equals `invocations` when run_experiment returns.
  std::size_t accounted = 0;
  /// Invocations that exhausted their retry budget or deadline.
  std::size_t failed = 0;
  /// Invocations rejected at admission by the overload guard.
  std::size_t shed = 0;

  /// Chaos accounting for the run (all zero on fault-free runs).
  resilience::FaultStats fault_stats;
  resilience::ChaosCounters chaos_counters;
  /// Deterministic fold of fault/retry/shed counters; byte-identical
  /// across two runs with the same (spec, workload).
  std::uint64_t chaos_fingerprint = 0;

  /// Per-component latency distributions in milliseconds.
  metrics::BreakdownAggregate latency;

  /// Caller-observed response latency (arrival -> reply returned), ms.
  /// Differs from latency.total() only under batch-return semantics.
  metrics::Samples response_ms;

  /// Provisioning statistics.
  std::uint64_t containers_provisioned = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t client_creations = 0;

  /// Host memory (platform + containers + clients).
  double memory_avg_mib = 0.0;
  double memory_peak_mib = 0.0;
  /// 1 Hz host-memory samples in MiB (paper samples at 1 Hz, §V-B).
  std::vector<std::pair<SimTime, double>> memory_series_mib;

  /// Time-averaged CPU utilisation in [0, 1] over the run.
  double cpu_utilization = 0.0;
  double busy_core_seconds = 0.0;

  /// Client memory allocated per served invocation, MiB (Fig. 14d).
  double client_mib_per_invocation = 0.0;

  /// Completion time of the last invocation.
  SimTime makespan = 0;

  /// Fraction of invocations whose end-to-end latency exceeded the
  /// per-function SLO (only meaningful when SLOs were configured, i.e.
  /// for Kraken runs; 0 otherwise).
  double slo_violation_rate = 0.0;

  /// Full per-invocation records (phase stamps), for CDF extraction and
  /// SLO calibration.
  std::vector<core::InvocationRecord> records;
};

/// Runs `workload` under `spec`. Deterministic for a given (spec,
/// workload) pair. Throws std::runtime_error if any invocation is never
/// terminally accounted — completed, terminally failed, or shed — which
/// would indicate a scheduler bug (a lost invocation).
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const trace::Workload& workload);

/// Derives per-function SLOs as the P98 end-to-end latency of a Vanilla
/// run over `workload` — the paper's Kraken porting rule (§IV).
std::unordered_map<FunctionId, double> derive_kraken_slos(
    const ExperimentSpec& base_spec, const trace::Workload& workload);

}  // namespace faasbatch::eval
