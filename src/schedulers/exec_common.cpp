#include "schedulers/exec_common.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace faasbatch::schedulers {
namespace {

/// Cache marker for simulated clients; the simulation only needs identity.
std::shared_ptr<void> make_client_marker() { return std::make_shared<int>(1); }

constexpr std::string_view kClientKind = "s3_client";

// Simulator-side latency quantiles, shared by all four schedulers:
// every policy funnels execution through this file, so one record site
// covers Vanilla, FaaSBatch, Kraken, and SFS identically.
obs::QuantileHistogram& sim_wait_quantiles() {
  static obs::QuantileHistogram& q =
      obs::metrics().quantile("fb_sim_wait_ms_quantiles");
  return q;
}
obs::QuantileHistogram& sim_exec_quantiles() {
  static obs::QuantileHistogram& q =
      obs::metrics().quantile("fb_sim_exec_ms_quantiles");
  return q;
}

}  // namespace

double body_duration_ms(const SchedulerContext& ctx, InvocationId id) {
  const double event_ms = ctx.workload.events.at(id).duration_ms;
  if (event_ms > 0.0) return event_ms;
  return ctx.workload.functions.at(ctx.records.at(id).function).duration_ms;
}

void create_storage_client(SchedulerContext& ctx, runtime::Container& container,
                           std::function<void()> done) {
  auto& throttle = container.creation_throttle();
  const SimDuration total_latency = throttle.begin_creation();
  const SimTime start = ctx.sim.now();
  // The CPU part contends machine-wide; whatever the contention model says
  // on top of that is in-process lock waiting, charged as pure delay.
  ctx.machine.cpu().submit(
      ctx.client_model.creation_cpu_seconds, 1.0, container.cpu_group(),
      [&ctx, &container, start, total_latency, done = std::move(done)]() {
        const SimDuration lock_wait =
            std::max<SimDuration>(0, start + total_latency - ctx.sim.now());
        ctx.sim.schedule_after(lock_wait, [&ctx, &container, done = std::move(done)]() {
          container.creation_throttle().end_creation();
          container.add_client_memory(ctx.client_model.client_memory);
          container.count_client_creation();
          done();
        });
      });
}

bool admit_invocation(SchedulerContext& ctx, InvocationId id) {
  if (ctx.chaos.admit()) return true;
  core::InvocationRecord& record = ctx.records.at(id);
  record.outcome = core::Outcome::kShed;
  record.returned = ctx.sim.now();
  obs::flight().record(obs::FlightEventKind::kShed, obs::kNoShard, ctx.sim.now(),
                       id, obs::invocation_root_span(id));
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "chaos", "shed", static_cast<double>(ctx.sim.now()), id,
        {{"function", Json(static_cast<std::int64_t>(record.function))},
         {"span", Json(obs::span_hex(obs::invocation_root_span(id)))}});
  }
  if (ctx.notify_complete) ctx.notify_complete(id);
  return false;
}

bool retry_or_fail(SchedulerContext& ctx, InvocationId id,
                   std::function<void()> redispatch) {
  core::InvocationRecord& record = ctx.records.at(id);
  // Attempt-linked trace context: every attempt of this invocation is a
  // child span of one root, so retries and blast-radius re-dispatches
  // chain into a single tree instead of appearing as unrelated events.
  const std::uint64_t root = obs::invocation_root_span(id);
  SimDuration backoff = 0;
  if (ctx.chaos.plan_retry(id, record.attempts, record.arrival, ctx.sim.now(),
                           &backoff)) {
    obs::flight().record(obs::FlightEventKind::kRetry, obs::kNoShard,
                         ctx.sim.now(), id,
                         obs::attempt_span(root, record.attempts),
                         record.attempts);
    if (obs::tracer().enabled()) {
      obs::tracer().instant(
          "chaos", "retry", static_cast<double>(ctx.sim.now()), id,
          {{"attempt", Json(static_cast<std::int64_t>(record.attempts))},
           {"backoff_ms", Json(to_millis(backoff))},
           {"span", Json(obs::span_hex(obs::attempt_span(root, record.attempts)))},
           {"root_span", Json(obs::span_hex(root))},
           {"next_span",
            Json(obs::span_hex(obs::attempt_span(root, record.attempts + 1)))}});
    }
    ctx.sim.schedule_after(backoff, std::move(redispatch));
    return true;
  }
  record.outcome = core::Outcome::kFailed;
  record.returned = ctx.sim.now();
  obs::flight().record(obs::FlightEventKind::kFault, obs::kNoShard,
                       ctx.sim.now(), id,
                       obs::attempt_span(root, record.attempts),
                       record.attempts);
  obs::flight().incident("terminal_failure", ctx.sim.now(), id, root);
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "chaos", "terminal_failure", static_cast<double>(ctx.sim.now()), id,
        {{"attempts", Json(static_cast<std::int64_t>(record.attempts))},
         {"span", Json(obs::span_hex(root))}});
  }
  if (ctx.notify_complete) ctx.notify_complete(id);
  return false;
}

bool maybe_crash_dispatch(SchedulerContext& ctx, runtime::Container& container,
                          std::vector<InvocationId> members,
                          std::function<void(InvocationId)> redispatch) {
  if (members.empty()) return false;
  if (!ctx.chaos.injector().inject_container_crash()) return false;
  runtime::Container* crashed = &container;
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "chaos", "container_crash", static_cast<double>(ctx.sim.now()),
        obs::kContainerTrackBase + container.id(),
        {{"members", Json(static_cast<std::int64_t>(members.size()))}});
  }
  // A crash is a dump trigger: the black box shows every enqueue/exec
  // leading up to the batch that went down together.
  obs::flight().incident("container_crash", ctx.sim.now(), members.front(),
                         obs::invocation_root_span(members.front()));
  const SimDuration detect = ctx.chaos.injector().plan().crash_detection_latency;
  ctx.sim.schedule_after(
      detect, [&ctx, crashed, members = std::move(members),
               redispatch = std::move(redispatch)]() {
        // The crash takes the whole dispatch down together: every member
        // consumed an attempt and absorbed a fault before re-dispatch.
        ctx.pool.destroy(*crashed);
        for (const InvocationId id : members) {
          core::InvocationRecord& record = ctx.records.at(id);
          ++record.attempts;
          ++record.faults;
          obs::flight().record(
              obs::FlightEventKind::kFault, obs::kNoShard, ctx.sim.now(), id,
              obs::attempt_span(obs::invocation_root_span(id), record.attempts),
              record.attempts);
          // Copy redispatch: the retry fires after a backoff, when this
          // crash-detection callback is long destroyed.
          retry_or_fail(ctx, id, [redispatch, id] { redispatch(id); });
        }
      });
  return true;
}

void execute_invocation(SchedulerContext& ctx, runtime::Container& container,
                        InvocationId id, const ExecEnv& env,
                        std::function<void(bool ok)> on_done) {
  core::InvocationRecord& record = ctx.records.at(id);
  const trace::FunctionProfile& profile = ctx.workload.functions.at(record.function);
  record.exec_start = ctx.sim.now();
  ++record.attempts;
  container.begin_invocation();
  const std::uint64_t root = obs::invocation_root_span(id);
  const std::uint64_t attempt = obs::attempt_span(root, record.attempts);
  obs::flight().record(obs::FlightEventKind::kExec, obs::kNoShard, ctx.sim.now(),
                       id, attempt, record.attempts);
  if (obs::tracer().enabled()) {
    obs::tracer().instant(
        "exec", "attempt", static_cast<double>(ctx.sim.now()), id,
        {{"attempt", Json(static_cast<std::int64_t>(record.attempts))},
         {"span", Json(obs::span_hex(attempt))},
         {"root_span", Json(obs::span_hex(root))},
         {"container", Json(static_cast<std::int64_t>(container.id()))}});
  }

  // Per-attempt fault draws, in a fixed order per class stream.
  const bool exec_fault = ctx.chaos.injector().inject_exec_error();
  const double straggler = ctx.chaos.injector().straggler_multiplier();
  if (exec_fault) ++record.faults;

  // Completion stamp shared by both body kinds. A failed attempt still
  // stamps exec_end (it ran and paid its costs) but leaves the record
  // unaccounted for the caller's retry decision.
  auto finish = [&ctx, &container, id, on_done = std::move(on_done)](bool ok) {
    core::InvocationRecord& r = ctx.records.at(id);
    r.exec_end = ctx.sim.now();
    if (ok) {
      r.completed = true;
      r.outcome = core::Outcome::kCompleted;
      sim_wait_quantiles().record(to_millis(r.exec_start - r.arrival));
      sim_exec_quantiles().record(to_millis(r.exec_end - r.exec_start));
    }
    container.end_invocation();
    if (on_done) on_done(ok);
  };

  if (profile.kind == trace::FunctionKind::kCpuIntensive) {
    const double work = body_duration_ms(ctx, id) / 1000.0 * straggler;
    auto body_done = [exec_fault, finish = std::move(finish)]() {
      finish(!exec_fault);
    };
    if (env.run_cpu) {
      env.run_cpu(work, std::move(body_done));
    } else {
      ctx.machine.cpu().submit(work, 1.0, container.cpu_group(), std::move(body_done));
    }
    return;
  }

  // I/O body: client acquisition, then the object operation (modelled as
  // network-bound latency, not CPU).
  if (ctx.chaos.injector().inject_storage_failure()) {
    // Client creation fails after paying its cost; the attempt dies
    // without touching the multiplexer cache (a failed client must not
    // be shared with the rest of the batch).
    ++record.faults;
    create_storage_client(ctx, container,
                          [finish = std::move(finish)]() { finish(false); });
    return;
  }
  const SimDuration op_latency = static_cast<SimDuration>(
      static_cast<double>(from_millis(body_duration_ms(ctx, id))) * straggler);
  auto do_op = [&ctx, op_latency, exec_fault, finish = std::move(finish)]() {
    ctx.sim.schedule_after(op_latency,
                           [exec_fault, finish]() { finish(!exec_fault); });
  };

  if (env.mux == nullptr) {
    create_storage_client(ctx, container, std::move(do_op));
    return;
  }

  core::ResourceMultiplexer::ResourcePtr instance;
  const auto outcome = env.mux->acquire(
      kClientKind, profile.client_args_hash,
      [do_op](core::ResourceMultiplexer::ResourcePtr ptr) {
        assert(ptr != nullptr && "simulated creation never fails");
        (void)ptr;  // only inspected by the assert in debug builds
        do_op();
      },
      &instance);
  if (obs::tracer().enabled()) {
    const char* label =
        outcome == core::ResourceMultiplexer::Acquire::kHit       ? "mux_hit"
        : outcome == core::ResourceMultiplexer::Acquire::kPending ? "mux_pending"
                                                                  : "mux_miss";
    obs::tracer().instant(
        "mux", label, static_cast<double>(ctx.sim.now()), id,
        {{"function", Json(static_cast<std::int64_t>(record.function))},
         {"container", Json(static_cast<std::int64_t>(container.id()))}});
  }
  switch (outcome) {
    case core::ResourceMultiplexer::Acquire::kHit:
      ctx.sim.schedule_after(from_millis(ctx.client_model.cached_hit_ms),
                             std::move(do_op));
      break;
    case core::ResourceMultiplexer::Acquire::kPending:
      break;  // waiter callback registered above
    case core::ResourceMultiplexer::Acquire::kMiss: {
      core::ResourceMultiplexer* mux = env.mux;
      const std::uint64_t hash = profile.client_args_hash;
      create_storage_client(ctx, container, [mux, hash, do_op = std::move(do_op)]() {
        mux->complete(kClientKind, hash, make_client_marker());
        do_op();
      });
      break;
    }
  }
}

}  // namespace faasbatch::schedulers
