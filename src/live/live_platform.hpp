// LivePlatform: an embeddable mini serverless platform on real threads.
//
// This is the public "product" API of the library: register functions,
// invoke them, and choose a scheduling policy — per-invocation containers
// (Vanilla) or FaaSBatch's window batching with inline parallelism and
// resource multiplexing. The same architecture the simulator evaluates,
// runnable inside any process. Used by the examples and the live
// motivation benchmarks.
//
// Dispatch pipeline: arrivals hash by function name onto N shard-local
// lock-free MPSC rings; each shard runs its own window flush loop and
// hands batches to a pull-based worker pool with one wakeup per flushed
// batch. invoke() never takes the platform mutex on the happy path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/ordered_mutex.hpp"
#include "core/resource_multiplexer.hpp"
#include "live/dispatch/sharded_dispatcher.hpp"
#include "live/live_container.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/watchdog.hpp"
#include "storage/client.hpp"
#include "storage/object_store.hpp"

namespace faasbatch::live {

/// Context handed to every function handler while it runs.
struct FunctionContext {
  /// The container's Resource Multiplexer; handlers create expensive
  /// resources through it (get_or_create) to benefit from reuse.
  core::ResourceMultiplexer& mux;
  /// Shared object store and client factory of the platform.
  storage::ObjectStore& store;
  storage::ClientFactory& clients;
  /// This invocation's id.
  std::uint64_t invocation_id;
  /// Opaque request payload supplied by the caller (may be empty).
  const std::string& payload;
};

using FunctionHandler = std::function<void(FunctionContext&)>;

/// Terminal outcome of one invocation. Every future resolves with
/// exactly one of these — submissions are never silently dropped.
enum class InvocationStatus {
  kOk,               ///< handler ran to completion
  kShed,             ///< rejected at submit: queue at max_queue capacity
  kDeadlineExpired,  ///< deadline passed before the handler started
  kCancelled,        ///< rejected at submit: platform shutting down
};

/// Timing report for one completed invocation (wall-clock milliseconds).
struct InvocationReport {
  InvocationStatus status = InvocationStatus::kOk;
  double queue_ms = 0.0;  ///< submit -> execution start (incl. window wait)
  double exec_ms = 0.0;   ///< handler run time
  double total_ms = 0.0;  ///< submit -> completion
  bool ok() const { return status == InvocationStatus::kOk; }
};

enum class LivePolicy {
  /// A fresh container per invocation when no idle one exists.
  kVanilla,
  /// FaaSBatch: window batching, one shared container per function,
  /// inline-parallel execution, resource multiplexing.
  kFaasBatch,
};

/// Defaults for the dispatch pipeline (option value 0 selects them).
inline constexpr std::size_t kDefaultShards = 4;
inline constexpr std::size_t kDefaultDispatchWorkers = 2;
inline constexpr std::size_t kDefaultShardRingCapacity = 8192;

struct LivePlatformOptions {
  LivePolicy policy = LivePolicy::kFaasBatch;
  /// Dispatch window for the FaaSBatch policy.
  std::chrono::milliseconds window{50};
  LiveContainerOptions container;
  storage::ClientFactory::Options client_factory;
  /// Time source for window waits and invocation timestamps; nullptr =
  /// Clock::system(). Tests inject a VirtualClock and advance() it to
  /// flush dispatch windows deterministically instead of sleeping.
  Clock* clock = nullptr;
  /// Bounded admission: invoke() sheds (future resolves immediately with
  /// InvocationStatus::kShed) when this many requests are already queued
  /// on the request's shard. 0 = unbounded. The bound applies per shard:
  /// requests of one function always share a shard, so one function never
  /// sees more than max_queue pending, while functions on other shards
  /// keep their own headroom.
  std::size_t max_queue = 0;

  /// Shard count; 0 = kDefaultShards.
  std::size_t shards = 0;
  /// Worker threads draining flushed batches; 0 = kDefaultDispatchWorkers.
  std::size_t dispatch_workers = 0;
  /// MPSC ring slots per shard when max_queue is 0 (unbounded platforms
  /// spill past the ring into a mutex-guarded side queue, never shed);
  /// 0 = kDefaultShardRingCapacity.
  std::size_t shard_ring_capacity = 0;

  /// Stall-watchdog threshold: a dispatch loop with pending work and no
  /// heartbeat for this long is reported unhealthy. Must exceed the
  /// dispatch window (a shard legitimately sits a full window between
  /// flushes); tests with a VirtualClock tighten it.
  std::chrono::milliseconds stall_threshold{5000};
};

/// Point-in-time dispatch pipeline stats (gateway /stats, tests).
struct DispatchStats {
  std::size_t shards = 0;
  std::size_t workers = 0;
  /// Per-shard counters, one entry per shard.
  std::vector<dispatch::ShardSnapshot> shard_stats;
};

class LivePlatform {
 public:
  explicit LivePlatform(LivePlatformOptions options);

  /// Drains the dispatch pipeline and tears down all containers.
  ~LivePlatform();

  LivePlatform(const LivePlatform&) = delete;
  LivePlatform& operator=(const LivePlatform&) = delete;

  /// Registers (or replaces) a function.
  void register_function(const std::string& name, FunctionHandler handler)
      FB_EXCLUDES(mutex_);

  /// Submits one invocation; the future resolves when it reaches a
  /// terminal outcome (see InvocationStatus — not necessarily success).
  /// `payload` is handed to the handler verbatim (request body).
  /// A positive `deadline` bounds submit-to-execution-start: if it
  /// passes before the handler begins (window wait, busy container),
  /// the future resolves with kDeadlineExpired and the handler never
  /// runs. Zero means no deadline.
  std::future<InvocationReport> invoke(
      const std::string& name, std::string payload = "",
      std::chrono::milliseconds deadline = std::chrono::milliseconds(0));

  /// Begins graceful drain: every invocation already queued still
  /// executes to completion, but new invoke() calls resolve immediately
  /// with kCancelled. Pending dispatch windows flush at once rather than
  /// waiting out the timer. Admission close is atomic with the final
  /// drain — an invoke() racing shutdown() either lands before the
  /// shards' final sweep (and executes) or resolves kCancelled; accepted
  /// work is never stranded. Idempotent; the destructor calls it.
  void shutdown() FB_EXCLUDES(mutex_);

  /// Blocks until every submitted invocation has completed.
  void drain() FB_EXCLUDES(mutex_);

  /// Containers created since construction.
  std::uint64_t containers_created() const FB_EXCLUDES(mutex_);

  /// Storage clients actually constructed (misses; hits are reuse).
  std::uint64_t client_creations() const { return clients_.creations(); }

  /// Dispatch pipeline shape and per-shard activity.
  DispatchStats dispatch_stats() const;

  /// Stall watchdog over the dispatch pipeline: one source per shard
  /// flush loop plus one for the worker pool. Scan it with now() from
  /// clock() — the gateway's /healthz does exactly that.
  obs::Watchdog& watchdog() { return watchdog_; }
  const obs::Watchdog& watchdog() const { return watchdog_; }

  /// The platform's injected time source (system clock by default).
  Clock& clock() const { return *clock_; }

  storage::ObjectStore& store() { return store_; }

  const LivePlatformOptions& options() const { return options_; }

 private:
  /// One registration: the handler and its per-function latency series
  /// (`fb_live_{queue,exec}_ms_quantiles{function="..."}`), resolved
  /// once in register_function.
  struct RegisteredFunction {
    FunctionHandler handler;
    obs::QuantileHistogram* queue_ms = nullptr;
    obs::QuantileHistogram* exec_ms = nullptr;
  };

  struct Request {
    std::string function;
    std::string payload;
    std::uint64_t id = 0;
    ClockTime submitted;
    /// Absolute time after which the request must not start executing.
    ClockTime deadline = ClockTime::max();
    /// Copied at admission from the functions snapshot, so dispatch
    /// and execution never need the registration map (or its lock).
    RegisteredFunction registered;
    std::promise<InvocationReport> promise;
  };
  using RequestPtr = std::shared_ptr<Request>;
  using FunctionMap = std::map<std::string, RegisteredFunction>;

  /// One window flush from one shard: requests grouped by function.
  struct FlushedBatch {
    std::size_t shard = 0;
    std::vector<std::pair<std::string, std::vector<RequestPtr>>> groups;
  };
  using Dispatcher = dispatch::ShardedDispatcher<RequestPtr, FlushedBatch>;

  // -- admission -----------------------------------------------------
  InvocationStatus admit(const RequestPtr& request);
  /// Unwinds a failed admission (span + outstanding count).
  void unadmit(const RequestPtr& request);

  // -- dispatch ------------------------------------------------------
  /// Shard flush callback: expire deadlines, group by function, hand one
  /// batch to the worker pool. Runs on the shard's flush thread.
  void flush_shard(std::size_t shard, std::vector<RequestPtr> items,
                   ClockTime window_open, ClockTime window_close);
  /// Worker-pool callback: route each group to a container.
  void execute_batch(FlushedBatch&& batch) FB_EXCLUDES(mutex_);

  // -- execution -----------------------------------------------------
  void run_request(LiveContainer& container, RequestPtr request);
  LiveContainer& container_for(const std::string& function)
      FB_REQUIRES(mutex_);
  /// FaaSBatch group placement: an *idle* warm container of the function
  /// or a fresh one (a busy container still runs a previous window's
  /// group). Caller holds mutex_ (compiler-checked).
  LiveContainer& batch_container_for(const std::string& function)
      FB_REQUIRES(mutex_);
  /// Cold start: creates, owns and counts a fresh container of the
  /// function. Both placement policies call it on a warm-pool miss.
  LiveContainer& create_container(const std::string& function)
      FB_REQUIRES(mutex_);
  /// Resolves a queued request's future without running its handler
  /// (deadline expiry) and settles drain bookkeeping. Must be called
  /// WITHOUT holding mutex_ (compiler-checked): it resolves promises,
  /// and promise continuations never run under the platform lock.
  void settle_unexecuted(const RequestPtr& request, InvocationStatus status)
      FB_EXCLUDES(mutex_);
  /// Retires one outstanding invocation and wakes drain() at zero.
  void finish_one() FB_EXCLUDES(mutex_);

  LivePlatformOptions options_;
  Clock* clock_;
  storage::ObjectStore store_;
  storage::ClientFactory clients_;

  mutable Mutex mutex_;
  CondVar drain_cv_;
  /// Copy-on-write registration snapshot: invoke() resolves handlers
  /// lock-free (acquire load); register_function swaps in a new map
  /// (release store) under mutex_.
  std::atomic<std::shared_ptr<const FunctionMap>> functions_;
  /// All containers ever created; owned for the platform's lifetime
  /// (keep-alive never expires within a process run).
  std::vector<std::unique_ptr<LiveContainer>> all_containers_
      FB_GUARDED_BY(mutex_);
  /// Warm pool: idle containers by function (pointers into
  /// all_containers_). Vanilla returns containers here after each
  /// invocation; FaaSBatch keeps one shared container per function.
  std::map<std::string, std::vector<LiveContainer*>> warm_
      FB_GUARDED_BY(mutex_);
  std::uint64_t containers_created_ FB_GUARDED_BY(mutex_) = 0;
  // Id source; pure counter. fb-atomic-counter
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<bool> draining_{false};
  /// Consecutive sheds with no successful admission in between; crossing
  /// kShedBurstIncident triggers one flight-recorder incident per burst.
  /// fb-atomic-counter
  std::atomic<std::uint32_t> shed_streak_{0};
  /// Declared before the pipeline: the shards and the worker pool
  /// unregister their sources on teardown and must do so into a
  /// still-alive watchdog.
  obs::Watchdog watchdog_;
  std::unique_ptr<Dispatcher> sharded_;
};

}  // namespace faasbatch::live
