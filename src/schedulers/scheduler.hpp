// Scheduler interface and factory.
//
// A Scheduler receives invocation arrivals and drives them through the
// simulated platform: dispatch decision, container acquisition, and
// execution. Four policies are provided, matching the paper's evaluation:
//
//  * Vanilla   — one container per invocation (§IV baseline 1)
//  * Kraken    — SLO/slack batching with oracle workload prediction,
//                serial execution inside containers (§IV baseline 2)
//  * SFS       — container per invocation plus user-space per-core
//                channels with growing time slices (§IV baseline 3)
//  * FaaSBatch — the paper's system: window batching (Invoke Mapper),
//                one container per function group with parallel in-
//                container execution (Inline-Parallel Producer), and
//                per-container resource caching (Resource Multiplexer)
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/invocation.hpp"
#include "resilience/chaos_engine.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "storage/client.hpp"
#include "trace/workload.hpp"

namespace faasbatch::schedulers {

/// Everything a scheduler needs from the experiment harness. The
/// referenced objects outlive the scheduler.
struct SchedulerContext {
  sim::Simulator& sim;
  runtime::Machine& machine;
  runtime::ContainerPool& pool;
  const trace::Workload& workload;
  storage::ClientCostModel client_model;
  /// Records indexed by InvocationId; schedulers stamp phase times.
  std::vector<core::InvocationRecord>& records;
  /// Harness callback fired exactly once per terminally-accounted
  /// invocation (completed, terminally failed, or shed); the record's
  /// outcome distinguishes the cases.
  std::function<void(InvocationId)> notify_complete;
  /// Chaos harness (fault injection, retry policy, overload guard). A
  /// default-constructed engine injects nothing and admits everything.
  resilience::ChaosEngine& chaos;
};

/// Policy knobs (paper §IV "Dispatch Intervals" and "Porting Kraken and
/// SFS Strategies").
struct SchedulerOptions {
  /// Batch window for FaaSBatch and Kraken (paper default 0.2 s).
  SimDuration dispatch_window = 200 * kMillisecond;
  /// Per-function SLOs for Kraken, in ms of end-to-end latency. The
  /// paper uses the P98 latency of a Vanilla calibration run.
  std::unordered_map<FunctionId, double> kraken_slo_ms;
  /// SLO for functions missing from the map.
  double kraken_default_slo_ms = 1000.0;
  /// SFS initial time slice; slices double each round a task survives.
  SimDuration sfs_initial_quantum = 20 * kMillisecond;
  /// When true, SFS adapts the initial quantum to the perceived request
  /// inter-arrival time (EWMA over submissions, clamped to
  /// [1 ms, 200 ms]) — the original SFS's "dynamically perceiving IaT of
  /// requests and assigning an adaptive size of time slices" (§IV).
  /// When false, the fixed initial quantum above is used.
  bool sfs_adaptive_quantum = false;
  /// Extra per-invocation CPU cost of SFS's user-space scheduler.
  double sfs_overhead_cpu_seconds = 0.003;
  /// Resource Multiplexer switch (ablation: FaaSBatch without reuse).
  bool enable_multiplexer = true;
  /// When false, FaaSBatch returns each invocation's result as soon as
  /// it completes (the paper's "future work" extension). When true, the
  /// whole group's batch reply returns together, as the paper's
  /// prototype does (§III-C step 3) — individual results wait for the
  /// slowest group member.
  bool faasbatch_batch_return = false;
  /// Kraken workload prediction: 0 = oracle (paper's porting rule,
  /// 100% accuracy); otherwise the EWMA smoothing factor in (0, 1] used
  /// to predict per-window group sizes from history.
  double kraken_ewma_alpha = 0.0;
  /// Upper bound on invocations FaaSBatch packs into one container;
  /// larger groups split across ceil(size/max) containers. 0 =
  /// unbounded, the paper's behaviour ("stuff ALL concurrent invocations
  /// into a single container"). Bounding trades consolidation for
  /// per-container memory/thread pressure.
  std::size_t faasbatch_max_group = 0;
};

class Scheduler {
 public:
  Scheduler(SchedulerContext context, SchedulerOptions options)
      : ctx_(context), options_(options) {}
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual std::string_view name() const = 0;

  /// Called by the harness at each invocation's arrival time; the record
  /// is ctx().records[id] with arrival already stamped.
  virtual void on_arrival(InvocationId id) = 0;

 protected:
  SchedulerContext& ctx() { return ctx_; }
  const SchedulerContext& ctx() const { return ctx_; }
  const SchedulerOptions& options() const { return options_; }

  const trace::FunctionProfile& profile_of(InvocationId id) const {
    return ctx_.workload.functions.at(ctx_.records.at(id).function);
  }

 private:
  SchedulerContext ctx_;
  SchedulerOptions options_;
};

enum class SchedulerKind { kVanilla, kKraken, kSfs, kFaasBatch };

/// Human-readable policy name ("Vanilla", "Kraken", "SFS", "FaaSBatch").
std::string_view scheduler_kind_name(SchedulerKind kind);

/// Parses a policy name (case-insensitive); throws on unknown names.
SchedulerKind parse_scheduler_kind(std::string_view name);

/// Builds a scheduler of the given kind.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, SchedulerContext context,
                                          SchedulerOptions options);

}  // namespace faasbatch::schedulers
