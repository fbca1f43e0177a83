#include "live/live_platform.hpp"

#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace faasbatch::live {

namespace {

double ms_between(ClockTime from, ClockTime to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Trace timestamps are microseconds on the platform's injected clock —
// virtual time under a VirtualClock, wall time in production.
double us_of(ClockTime t) {
  return std::chrono::duration<double, std::micro>(t).count();
}

obs::Counter& live_requests_total() {
  static obs::Counter& c = obs::metrics().counter("fb_live_requests_total");
  return c;
}
obs::Counter& live_cold_starts_total() {
  static obs::Counter& c = obs::metrics().counter("fb_cold_starts_total");
  return c;
}
obs::Counter& live_warm_hits_total() {
  static obs::Counter& c = obs::metrics().counter("fb_warm_hits_total");
  return c;
}
obs::Counter& live_windows_flushed_total() {
  static obs::Counter& c = obs::metrics().counter("fb_windows_flushed_total");
  return c;
}
obs::QuantileHistogram& live_batch_size() {
  static obs::QuantileHistogram& h = obs::metrics().quantile("fb_batch_size");
  return h;
}
obs::Counter& live_shed_total() {
  static obs::Counter& c = obs::metrics().counter("fb_live_shed_total");
  return c;
}
obs::Counter& live_deadline_expired_total() {
  static obs::Counter& c =
      obs::metrics().counter("fb_live_deadline_expired_total");
  return c;
}
obs::Counter& live_cancelled_total() {
  static obs::Counter& c = obs::metrics().counter("fb_live_cancelled_total");
  return c;
}
obs::QuantileHistogram& live_queue_quantiles() {
  static obs::QuantileHistogram& q =
      obs::metrics().quantile("fb_live_queue_ms_quantiles");
  return q;
}
obs::QuantileHistogram& live_exec_quantiles() {
  static obs::QuantileHistogram& q =
      obs::metrics().quantile("fb_live_exec_ms_quantiles");
  return q;
}

/// Consecutive sheds that declare a shed storm (one incident per burst).
constexpr std::uint32_t kShedBurstIncident = 32;

// Single open/close points for the per-request span: admission opens it
// here and every terminal path (executed, settled unexecuted, or
// unadmitted) ends it, so the TU stays span-balanced by construction.
void begin_request_span(double at_us, std::uint64_t id, const std::string& function) {
  // The derived root span id links this request's trace to its flight-
  // recorder events (and, in the simulator, to every retry attempt).
  const Json span = Json(obs::span_hex(obs::invocation_root_span(id)));
  obs::tracer().instant("live", "arrival", at_us, id,
                        {{"function", Json(function)}, {"span", span}});
  obs::tracer().begin_span("live", "request", at_us, id,
                           {{"function", Json(function)}, {"span", span}});
}

void end_request_span(double at_us, std::uint64_t id) {
  obs::tracer().end_span("live", "request", at_us, id);
}

}  // namespace

LivePlatform::LivePlatform(LivePlatformOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &Clock::system()),
      clients_(store_, options_.client_factory),
      functions_(std::make_shared<const FunctionMap>()) {
  set_mutex_name(mutex_, "live_platform.state");
  // Containers created by this platform share its time source unless the
  // caller pinned one explicitly.
  if (options_.container.clock == nullptr) options_.container.clock = clock_;
  watchdog_.set_stall_threshold_ns(
      std::chrono::duration_cast<ClockTime>(options_.stall_threshold).count());
  Dispatcher::Options dispatch_options;
  dispatch_options.shards = options_.shards == 0 ? kDefaultShards : options_.shards;
  dispatch_options.workers = options_.dispatch_workers == 0
                                 ? kDefaultDispatchWorkers
                                 : options_.dispatch_workers;
  dispatch_options.ring_capacity = options_.shard_ring_capacity == 0
                                       ? kDefaultShardRingCapacity
                                       : options_.shard_ring_capacity;
  dispatch_options.max_queue = options_.max_queue;
  dispatch_options.clock = clock_;
  dispatch_options.watchdog = &watchdog_;
  // Vanilla dispatches on arrival: a zero window flushes immediately.
  dispatch_options.window = options_.policy == LivePolicy::kFaasBatch
                                ? options_.window
                                : std::chrono::milliseconds(0);
  sharded_ = std::make_unique<Dispatcher>(
      dispatch_options,
      [this](std::size_t shard, std::vector<RequestPtr> items,
             ClockTime window_open, ClockTime window_close) {
        flush_shard(shard, std::move(items), window_open, window_close);
      },
      [this](FlushedBatch&& batch) { execute_batch(std::move(batch)); });
}

LivePlatform::~LivePlatform() {
  // Graceful drain first: flush any open dispatch window immediately so
  // teardown never waits out (or, under a VirtualClock, hangs on) the
  // window timer while invocations sit queued.
  shutdown();
  drain();
  // Shard flush threads and workers join only after drain(): the workers
  // are what retire outstanding invocations.
  sharded_->join();
  // Containers drain in their destructors.
}

void LivePlatform::shutdown() {
  draining_.store(true, std::memory_order_seq_cst);
  // Atomically closes admission on every shard and triggers their final
  // drain sweeps; a racing invoke() either landed before the close (and
  // will flush) or resolves kCancelled.
  sharded_->close();
}

void LivePlatform::register_function(const std::string& name, FunctionHandler handler) {
  // The per-function latency series are resolved here, once, so the
  // completion path records into them without building names or taking
  // the registry lock.
  const std::string label = "{function=\"" + name + "\"}";
  RegisteredFunction entry{
      std::move(handler),
      &obs::metrics().quantile("fb_live_queue_ms_quantiles" + label),
      &obs::metrics().quantile("fb_live_exec_ms_quantiles" + label)};
  MutexLock lock(mutex_);
  auto next = std::make_shared<FunctionMap>(
      *functions_.load(std::memory_order_acquire));
  (*next)[name] = std::move(entry);
  functions_.store(std::shared_ptr<const FunctionMap>(std::move(next)),
                   std::memory_order_release);
}

std::future<InvocationReport> LivePlatform::invoke(const std::string& name,
                                                   std::string payload,
                                                   std::chrono::milliseconds deadline) {
  auto request = std::make_shared<Request>();
  request->function = name;
  request->payload = std::move(payload);
  request->submitted = clock_->now();
  if (deadline.count() > 0) {
    request->deadline =
        request->submitted + std::chrono::duration_cast<ClockTime>(deadline);
  }
  {
    // Resolve the handler and its latency series once, lock-free, from
    // the registration snapshot; dispatch and execution never consult
    // the map again.
    const auto functions = functions_.load(std::memory_order_acquire);
    const auto it = functions->find(name);
    if (it == functions->end()) {
      throw std::invalid_argument("LivePlatform::invoke: unknown function " + name);
    }
    request->registered = it->second;
  }
  request->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  live_requests_total().inc();
  std::future<InvocationReport> future = request->promise.get_future();
  const InvocationStatus verdict = admit(request);
  if (verdict == InvocationStatus::kOk) {
    // Any successful admission ends a shed burst.
    shed_streak_.store(0, std::memory_order_relaxed);
  } else {
    // Rejected at admission: resolve the future off-lock, never queued,
    // never counted as outstanding — drain() does not wait for it.
    if (verdict == InvocationStatus::kShed) {
      live_shed_total().inc();
      const std::uint64_t root = obs::invocation_root_span(request->id);
      const std::uint32_t streak =
          shed_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
      obs::flight().record(obs::FlightEventKind::kShed, obs::kNoShard,
                           request->submitted.count(), request->id, root, streak);
      // One incident per burst, at the crossing — not one per shed.
      if (streak == kShedBurstIncident) {
        obs::flight().incident("shed_burst", request->submitted.count(),
                               request->id, root);
      }
    } else {
      live_cancelled_total().inc();
    }
    if (obs::tracer().enabled()) {
      obs::tracer().instant(
          "live", verdict == InvocationStatus::kShed ? "shed" : "cancelled",
          us_of(request->submitted), request->id,
          {{"function", Json(request->function)}});
    }
    InvocationReport report;
    report.status = verdict;
    request->promise.set_value(report);
  }
  return future;
}

InvocationStatus LivePlatform::admit(const RequestPtr& request) {
  if (draining_.load(std::memory_order_acquire)) {
    return InvocationStatus::kCancelled;
  }
  // Count the request as outstanding BEFORE it can reach a shard flush:
  // once the ring holds it, a concurrent drain() must wait for it. A
  // failed admission unwinds the count (transient overcount is benign —
  // drain() only requires "never undercounted").
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (obs::tracer().enabled()) {
    begin_request_span(us_of(request->submitted), request->id, request->function);
  }
  const std::size_t shard = sharded_->shard_for(request->function);
  switch (sharded_->enqueue(shard, request)) {
    case dispatch::Admit::kOk:
      obs::flight().record(obs::FlightEventKind::kEnqueue,
                           static_cast<std::uint32_t>(shard),
                           request->submitted.count(), request->id,
                           obs::invocation_root_span(request->id));
      return InvocationStatus::kOk;
    case dispatch::Admit::kFull:
      unadmit(request);
      return InvocationStatus::kShed;
    case dispatch::Admit::kClosed:
      break;
  }
  unadmit(request);
  return InvocationStatus::kCancelled;
}

void LivePlatform::unadmit(const RequestPtr& request) {
  if (obs::tracer().enabled()) {
    end_request_span(us_of(clock_->now()), request->id);
  }
  finish_one();
}

void LivePlatform::drain() {
  UniqueLock lock(mutex_);
  drain_cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void LivePlatform::finish_one() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Pulse the mutex so a drain() between its predicate check and its
    // cv wait cannot miss the notify.
    {
      MutexLock lock(mutex_);
    }
    drain_cv_.notify_all();
  }
}

std::uint64_t LivePlatform::containers_created() const {
  MutexLock lock(mutex_);
  return containers_created_;
}

DispatchStats LivePlatform::dispatch_stats() const {
  DispatchStats stats;
  stats.shards = sharded_->shards();
  stats.workers = sharded_->workers();
  stats.shard_stats = sharded_->snapshots();
  return stats;
}

LiveContainer& LivePlatform::container_for(const std::string& function) {
  // Caller holds mutex_. Reuse an idle warm container or create one.
  auto& idle = warm_[function];
  if (!idle.empty()) {
    LiveContainer* container = idle.back();
    idle.pop_back();
    live_warm_hits_total().inc();
    return *container;
  }
  return create_container(function);
}

LiveContainer& LivePlatform::batch_container_for(const std::string& function) {
  // Caller holds mutex_. One container per function group, as in the
  // simulator: reuse an *idle* keep-alive container of the function if
  // one exists, otherwise scale out with a fresh container (a busy
  // container is still running a previous window's group).
  auto& pool = warm_[function];
  for (LiveContainer* candidate : pool) {
    if (candidate->load() == 0) {
      live_warm_hits_total().inc();
      return *candidate;
    }
  }
  LiveContainer& chosen = create_container(function);
  pool.push_back(&chosen);
  return chosen;
}

LiveContainer& LivePlatform::create_container(const std::string& function) {
  all_containers_.push_back(
      std::make_unique<LiveContainer>(function, options_.container));
  ++containers_created_;
  live_cold_starts_total().inc();
  if (obs::tracer().enabled()) {
    obs::tracer().instant("container", "container_create", us_of(clock_->now()),
                          obs::kContainerTrackBase + containers_created_,
                          {{"function", Json(function)}});
  }
  return *all_containers_.back();
}

void LivePlatform::settle_unexecuted(const RequestPtr& request,
                                     InvocationStatus status) {
  const ClockTime now = clock_->now();
  InvocationReport report;
  report.status = status;
  report.queue_ms = ms_between(request->submitted, now);
  report.total_ms = report.queue_ms;
  if (status == InvocationStatus::kDeadlineExpired) {
    live_deadline_expired_total().inc();
    // Deadline expiry is a dump trigger: the black box shows what the
    // pipeline was doing while this request's time ran out.
    const std::uint64_t root = obs::invocation_root_span(request->id);
    obs::flight().record(obs::FlightEventKind::kFault, obs::kNoShard,
                         now.count(), request->id, root);
    obs::flight().incident("deadline_expired", now.count(), request->id, root);
  }
  if (obs::tracer().enabled()) {
    obs::tracer().instant("live", "deadline_expired", us_of(now), request->id,
                          {{"function", Json(request->function)}});
    end_request_span(us_of(now), request->id);
  }
  request->promise.set_value(report);
  finish_one();
}

void LivePlatform::run_request(LiveContainer& container, RequestPtr request) {
  container.submit([this, &container, request = std::move(request)]() {
    const ClockTime exec_start = clock_->now();
    if (exec_start >= request->deadline) {
      // The deadline expired while the request waited behind other work
      // in this container. Return the container (Vanilla reuse) and
      // settle without running the handler.
      {
        MutexLock lock(mutex_);
        if (options_.policy == LivePolicy::kVanilla) {
          warm_[request->function].push_back(&container);
        }
      }
      settle_unexecuted(request, InvocationStatus::kDeadlineExpired);
      return;
    }
    obs::flight().record(obs::FlightEventKind::kExec, obs::kNoShard,
                         exec_start.count(), request->id,
                         obs::attempt_span(obs::invocation_root_span(request->id), 1),
                         /*attempt=*/1);
    FunctionContext context{container.multiplexer(), store_, clients_, request->id,
                            request->payload};
    request->registered.handler(context);
    const ClockTime exec_end = clock_->now();
    InvocationReport report;
    report.queue_ms = ms_between(request->submitted, exec_start);
    report.exec_ms = ms_between(exec_start, exec_end);
    report.total_ms = ms_between(request->submitted, exec_end);
    live_queue_quantiles().record(report.queue_ms);
    live_exec_quantiles().record(report.exec_ms);
    request->registered.queue_ms->record(report.queue_ms);
    request->registered.exec_ms->record(report.exec_ms);
    if (obs::tracer().enabled()) {
      const Json function_arg = Json(request->function);
      obs::tracer().name_thread(request->id, "inv " + std::to_string(request->id));
      obs::tracer().complete("live", "invocation", us_of(request->submitted),
                             us_of(exec_end) - us_of(request->submitted),
                             request->id, {{"function", function_arg}});
      obs::tracer().complete("live", "queue", us_of(request->submitted),
                             us_of(exec_start) - us_of(request->submitted),
                             request->id, {{"function", function_arg}});
      obs::tracer().complete("live", "exec", us_of(exec_start),
                             us_of(exec_end) - us_of(exec_start), request->id,
                             {{"function", function_arg}});
      end_request_span(us_of(exec_end), request->id);
    }
    // Return the container to the warm pool BEFORE resolving the promise:
    // a caller sequencing invoke().get() calls must observe this idle
    // container on its next submission, or Vanilla reuse races the
    // worker thread (the old wall-clock flake in VanillaReusesIdle-
    // Containers).
    {
      MutexLock lock(mutex_);
      if (options_.policy == LivePolicy::kVanilla) {
        warm_[request->function].push_back(&container);
      }
    }
    request->promise.set_value(report);
    // Only now count the invocation as settled: drain() returning must
    // imply every future is ready.
    finish_one();
  });
}

void LivePlatform::flush_shard(std::size_t shard, std::vector<RequestPtr> items,
                               ClockTime window_open, ClockTime window_close) {
  // Runs on the shard's flush thread; no platform lock needed — the
  // items are exclusively ours and grouping is pure computation.
  std::vector<RequestPtr> expired;
  std::map<std::string, std::vector<RequestPtr>> groups;
  for (auto& request : items) {
    if (window_close >= request->deadline) {
      expired.push_back(std::move(request));
      continue;
    }
    groups[request->function].push_back(std::move(request));
  }
  live_windows_flushed_total().inc();
  obs::flight().record(obs::FlightEventKind::kFlush,
                       static_cast<std::uint32_t>(shard), window_close.count(),
                       /*id=*/0, /*span=*/0, items.size());
  if (obs::tracer().enabled() && !groups.empty()) {
    obs::tracer().complete(
        "dispatch", "dispatch_window", us_of(window_open),
        us_of(window_close) - us_of(window_open),
        obs::kDispatchTrackBase + shard,
        {{"invocations", Json(static_cast<std::int64_t>(items.size()))},
         {"groups", Json(static_cast<std::int64_t>(groups.size()))},
         {"shard", Json(static_cast<std::int64_t>(shard))}});
  }
  if (!groups.empty()) {
    FlushedBatch batch;
    batch.shard = shard;
    batch.groups.reserve(groups.size());
    for (auto& [function, requests] : groups) {
      if (options_.policy == LivePolicy::kFaasBatch) {
        live_batch_size().record(static_cast<double>(requests.size()));
      }
      batch.groups.emplace_back(function, std::move(requests));
    }
    // One pool wakeup per flushed window, not per invocation.
    sharded_->submit(std::move(batch));
  }
  for (const auto& request : expired) {
    settle_unexecuted(request, InvocationStatus::kDeadlineExpired);
  }
}

void LivePlatform::execute_batch(FlushedBatch&& batch) {
  // Runs on a dispatch worker thread.
  for (auto& [function, requests] : batch.groups) {
    if (options_.policy == LivePolicy::kVanilla) {
      // A fresh (or idle warm) container per invocation.
      for (auto& request : requests) {
        LiveContainer* container = nullptr;
        {
          MutexLock lock(mutex_);
          container = &container_for(request->function);
        }
        run_request(*container, std::move(request));
      }
      continue;
    }
    LiveContainer* chosen = nullptr;
    {
      MutexLock lock(mutex_);
      chosen = &batch_container_for(function);
    }
    for (auto& request : requests) {
      run_request(*chosen, std::move(request));
    }
  }
}

}  // namespace faasbatch::live
