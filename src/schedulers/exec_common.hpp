// Function-body execution shared by every scheduling policy.
//
// CPU-intensive bodies are core-seconds of work on the container's
// cpuset. I/O bodies follow the paper's Listing 1: obtain a storage
// client (expensive creation unless a Resource Multiplexer serves it from
// cache) and then perform the object operation. All stamping of
// exec_start / exec_end and per-invocation container accounting happens
// here so the four schedulers measure identically.
#pragma once

#include <functional>
#include <vector>

#include "core/resource_multiplexer.hpp"
#include "runtime/container.hpp"
#include "schedulers/scheduler.hpp"

namespace faasbatch::schedulers {

/// Execution environment overrides for one invocation.
struct ExecEnv {
  /// Per-container Resource Multiplexer; nullptr disables interception
  /// (baseline behaviour: every invocation creates its own client).
  core::ResourceMultiplexer* mux = nullptr;

  /// Override for running function-body CPU work. When empty, work is
  /// submitted to the machine CPU inside the container's cpuset group.
  /// SFS injects its per-core time-sliced engine here.
  std::function<void(double work_core_seconds, std::function<void()> done)> run_cpu;
};

/// Runs one execution attempt of invocation `id` inside `container`.
/// Stamps exec_start now and exec_end at completion, counts the attempt,
/// balances begin_invocation/end_invocation, then calls `on_done(ok)`.
/// The context's chaos engine may inject an execution error,
/// storage-client failure, or straggler slowdown into the attempt; `ok`
/// is false when the attempt failed (the record is NOT terminally
/// accounted — the caller decides via retry_or_fail). On success the
/// record is marked completed with Outcome::kCompleted. The caller is
/// responsible for releasing the container and notifying the harness.
void execute_invocation(SchedulerContext& ctx, runtime::Container& container,
                        InvocationId id, const ExecEnv& env,
                        std::function<void(bool ok)> on_done);

/// Admission check at arrival. True = proceed. False = the overload
/// guard shed the invocation; it has been terminally accounted
/// (Outcome::kShed, notify_complete fired) and must not be dispatched.
bool admit_invocation(SchedulerContext& ctx, InvocationId id);

/// Decides the fate of invocation `id` after a failed attempt: either
/// schedules `redispatch` after the retry policy's backoff (returns
/// true) or terminally fails the invocation — Outcome::kFailed, returned
/// stamped, notify_complete fired (returns false).
bool retry_or_fail(SchedulerContext& ctx, InvocationId id,
                   std::function<void()> redispatch);

/// Samples a container-crash fault for one dispatch of `members` into
/// `container` at ready time (before any member executes). Returns false
/// when no crash was injected (the caller proceeds normally). On a crash
/// every member of the dispatch fails together — the batching blast
/// radius: after the plan's crash-detection latency the container is
/// destroyed and each member is individually retried via
/// `redispatch(id)` or terminally failed. Retries are deliberately
/// per-member, never per-group (see DESIGN.md).
bool maybe_crash_dispatch(SchedulerContext& ctx, runtime::Container& container,
                          std::vector<InvocationId> members,
                          std::function<void(InvocationId)> redispatch);

/// Body duration of invocation `id` in ms: the trace event's own duration
/// when present (inputs vary per request), else the profile default.
double body_duration_ms(const SchedulerContext& ctx, InvocationId id);

/// Models building one storage client inside `container`: in-container
/// creation contention (paper Fig. 4), CPU work on the machine, memory
/// charge (Fig. 5 / 14d), creation counting. `done` fires on completion.
void create_storage_client(SchedulerContext& ctx, runtime::Container& container,
                           std::function<void()> done);

}  // namespace faasbatch::schedulers
