// Pull-based worker pool that drains flushed dispatch batches.
//
// Shards push one Batch per window flush and issue exactly one
// notify_one per push — completion wakeups are batched at window
// granularity instead of per-invocation, so a burst of arrivals costs
// one mutex round-trip and one wakeup per window, not per request.
//
// stop() is graceful: workers finish every batch already queued before
// exiting, so a platform drain never strands work here.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ordered_mutex.hpp"
#include "obs/watchdog.hpp"

namespace faasbatch::live::dispatch {

template <typename Batch>
class WorkerPool {
 public:
  using ExecuteFn = std::function<void(Batch&&)>;

  /// `watchdog` (with its `clock`) is optional: when set, the pool
  /// registers one "workers" heartbeat source whose depth is the shared
  /// batch queue and beats it once per executed batch.
  WorkerPool(std::size_t workers, ExecuteFn execute,
             obs::Watchdog* watchdog = nullptr, Clock* clock = nullptr)
      : execute_(std::move(execute)), watchdog_(watchdog), clock_(clock) {
    set_mutex_name(mutex_, "dispatch.workers");
    if (watchdog_ != nullptr && clock_ != nullptr) {
      heartbeat_ = watchdog_->register_source(
          "workers", [this] { return static_cast<double>(queued()); },
          clock_->now().count());
    }
    if (workers == 0) workers = 1;
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~WorkerPool() {
    stop();
    // depth_fn captures `this`; drop out of the watchdog before storage.
    if (watchdog_ != nullptr && heartbeat_ != nullptr) {
      watchdog_->unregister(heartbeat_);
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Hands one flushed batch to the pool: one lock, one wakeup.
  void push(Batch&& batch) FB_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      queue_.push_back(std::move(batch));
    }
    cv_.notify_one();
  }

  /// Stops accepting work and joins; queued batches still execute.
  void stop() FB_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  std::size_t workers() const { return threads_.size(); }

  /// Batches waiting for a worker right now (watchdog depth input).
  std::size_t queued() const FB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return queue_.size();
  }

 private:
  void worker_loop() FB_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    for (;;) {
      if (!queue_.empty()) {
        Batch batch = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        execute_(std::move(batch));
        // Heartbeat contract: beat on a completed batch, not on wakeups.
        if (heartbeat_ != nullptr) heartbeat_->beat(clock_->now().count());
        lock.lock();
        continue;
      }
      if (stopping_) return;
      cv_.wait(lock, [this] {
        mutex_.assert_held();  // predicates run with the pool lock held
        return stopping_ || !queue_.empty();
      });
    }
  }

  ExecuteFn execute_;
  obs::Watchdog* watchdog_ = nullptr;
  Clock* clock_ = nullptr;
  std::shared_ptr<obs::HeartbeatSource> heartbeat_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Batch> queue_ FB_GUARDED_BY(mutex_);
  bool stopping_ FB_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace faasbatch::live::dispatch
