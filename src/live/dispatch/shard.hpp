// One shard of the sharded dispatch pipeline: a lock-free MPSC ring fed
// by producers plus a flush loop that batches arrivals per dispatch
// window (the live analogue of the paper's Invoke Mapper, partitioned
// Archipelago-style so shards never serialise against each other).
//
// Hot path: try_enqueue() claims a ring slot with atomics only — no
// mutex, no condvar unless the flush loop is provably idle (the
// `sleeping_` handshake). The shard mutex exists solely for the flush
// loop's waits and the rare overflow path of an unbounded platform.
//
// Admission vs. drain atomicity: producers wrap the push in an
// `admitting_` reference count and re-check `closed_` after entering it;
// close() publishes `closed_` first, and the flush loop waits for
// `admitting_` to reach zero before its final sweep. Any producer that
// passed the closed check therefore lands its item before the final
// drain reads the ring, so a request is either rejected (kClosed) or
// guaranteed to flush — never accepted-and-lost: a late invoke() cannot
// slip past the draining check into a queue nobody drains.
//
// The flush thread is the ring's only consumer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ordered_mutex.hpp"
#include "live/dispatch/metrics.hpp"
#include "live/dispatch/mpsc_ring.hpp"
#include "obs/watchdog.hpp"

namespace faasbatch::live::dispatch {

/// Sentinel for "no pending entry" in oldest-entry tracking. INT64_MIN,
/// not 0: VirtualClock time 0 is a valid enqueue instant.
inline constexpr std::int64_t kNoPending = std::numeric_limits<std::int64_t>::min();

/// Outcome of one admission attempt.
enum class Admit {
  kOk,      ///< queued; the next window flush picks it up
  kFull,    ///< bounded shard at capacity: shed
  kClosed,  ///< shard closed (platform draining): cancel
};

/// Point-in-time view of one shard (gateway /stats, tests).
struct ShardSnapshot {
  std::size_t shard = 0;
  std::size_t depth = 0;  ///< items awaiting flush right now (approx)
  std::uint64_t enqueued = 0;
  std::uint64_t shed = 0;
  std::uint64_t overflow = 0;  ///< pushes that took the mutex overflow path
  std::uint64_t windows = 0;   ///< flushes performed
  /// Enqueue time (clock ns) of the oldest entry still awaiting flush;
  /// kNoPending when the shard is empty. The age (now - oldest_ns) is
  /// the watchdog's second input next to depth: a wedged shard shows a
  /// nonzero depth whose oldest entry only gets older.
  std::int64_t oldest_ns = kNoPending;
};

template <typename Item>
class Shard {
 public:
  struct Options {
    std::size_t index = 0;
    /// Ring slots (rounded up to a power of two).
    std::size_t ring_capacity = 8192;
    /// Logical admission bound; 0 = unbounded (ring overflow spills to a
    /// mutex-guarded side queue instead of shedding).
    std::size_t max_queue = 0;
    Clock* clock = nullptr;  ///< required
    /// Batching window; zero flushes immediately (Vanilla policy).
    std::chrono::milliseconds window{0};
    /// Optional stall watchdog: the shard registers "shard/<index>" and
    /// beats it once per flush round (the heartbeat contract: beat on
    /// completed drains, never on wakeups).
    obs::Watchdog* watchdog = nullptr;
  };

  /// Called on the shard thread with everything drained for one window.
  /// `window_open`/`window_close` bound the batching wait (equal when the
  /// window is zero or the flush is a drain sweep).
  using FlushFn = std::function<void(std::size_t shard, std::vector<Item> items,
                                     ClockTime window_open, ClockTime window_close)>;

  Shard(const Options& options, FlushFn flush)
      : options_(options),
        flush_(std::move(flush)),
        ring_(options.max_queue > 0 ? options.max_queue : options.ring_capacity),
        instruments_(shard_instruments(options.index)) {
    set_mutex_name(mutex_, "dispatch.shard");
    if (options_.watchdog != nullptr) {
      heartbeat_ = options_.watchdog->register_source(
          "shard/" + std::to_string(options_.index),
          [this] { return static_cast<double>(depth()); },
          options_.clock->now().count());
    }
    thread_ = std::thread([this] { flush_loop(); });
  }

  ~Shard() {
    close();
    join();
    // After the flush thread is gone: the depth_fn captures `this`, so
    // the source must leave the watchdog before the shard's storage does.
    if (options_.watchdog != nullptr && heartbeat_ != nullptr) {
      options_.watchdog->unregister(heartbeat_);
    }
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Multi-producer admission; lock-free except the rare overflow path.
  Admit try_enqueue(Item item) {
    admitting_.fetch_add(1, std::memory_order_seq_cst);
    if (closed_.load(std::memory_order_seq_cst)) {
      admitting_.fetch_sub(1, std::memory_order_release);
      return Admit::kClosed;
    }
    bool pushed = false;
    if (options_.max_queue > 0 &&
        ring_.size_approx() >= options_.max_queue) {
      // Bounded shard at its logical capacity: shed without touching the
      // ring (capacity was rounded up to a power of two).
    } else if (ring_.try_push(item)) {
      pushed = true;
    } else if (options_.max_queue == 0) {
      // Unbounded platform but the ring is momentarily full: spill to
      // the mutex-guarded side queue rather than shedding.
      {
        MutexLock lock(mutex_);
        overflow_.push_back(std::move(item));
      }
      overflow_count_.fetch_add(1, std::memory_order_relaxed);
      instruments_.overflow.inc();
      pushed = true;
    }
    if (!pushed) {
      admitting_.fetch_sub(1, std::memory_order_release);
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      instruments_.shed.inc();
      return Admit::kFull;
    }
    published_.fetch_add(1, std::memory_order_seq_cst);
    admitting_.fetch_sub(1, std::memory_order_release);
    enqueued_count_.fetch_add(1, std::memory_order_relaxed);
    instruments_.enqueued.inc();
    instruments_.depth.set(static_cast<double>(depth()));
    // First entry into an empty shard stamps the oldest-entry clock; the
    // flush loop clears it when it drains the shard empty. Approximate
    // under races (like depth), which is fine for a staleness gauge.
    std::int64_t none = kNoPending;
    oldest_ns_.compare_exchange_strong(none, options_.clock->now().count(),
                                       std::memory_order_relaxed);
    // Wake the flush loop only when it is provably idle: the seq_cst
    // published_/sleeping_ pair guarantees either we see sleeping_ and
    // notify, or the loop's wait predicate sees our publish.
    if (sleeping_.load(std::memory_order_seq_cst)) {
      { MutexLock lock(mutex_); }
      cv_.notify_one();
    }
    return Admit::kOk;
  }

  /// Closes admission and triggers the final drain sweep. Idempotent.
  /// Every item accepted before the close is still flushed.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    { MutexLock lock(mutex_); }
    cv_.notify_all();
  }

  /// Joins the flush thread (it exits after the post-close final sweep).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  ShardSnapshot snapshot() const {
    ShardSnapshot snap;
    snap.shard = options_.index;
    snap.depth = depth();
    snap.enqueued = enqueued_count_.load(std::memory_order_relaxed);
    snap.shed = shed_count_.load(std::memory_order_relaxed);
    snap.overflow = overflow_count_.load(std::memory_order_relaxed);
    snap.windows = windows_count_.load(std::memory_order_relaxed);
    snap.oldest_ns = oldest_ns_.load(std::memory_order_relaxed);
    return snap;
  }

  std::size_t index() const { return options_.index; }

 private:
  std::size_t depth() const {
    // Racy gauge read of the handshake word; the seq_cst ops in
    // try_enqueue/flush_loop carry the ordering. fb-lint-allow(atomic-order)
    const std::uint64_t published = published_.load(std::memory_order_relaxed);
    const std::uint64_t consumed = consumed_public_.load(std::memory_order_relaxed);
    return published >= consumed ? static_cast<std::size_t>(published - consumed) : 0;
  }

  /// Drains ring + overflow into `out`. Called on the shard thread with
  /// mutex_ held; the ring itself needs no lock (single consumer).
  void drain_pending(std::vector<Item>& out) FB_REQUIRES(mutex_) {
    Item item;
    while (ring_.try_pop(item)) out.push_back(std::move(item));
    while (!overflow_.empty()) {
      out.push_back(std::move(overflow_.front()));
      overflow_.pop_front();
    }
  }

  void flush_loop() FB_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    for (;;) {
      sleeping_.store(true, std::memory_order_seq_cst);
      cv_.wait(lock, [this] {
        mutex_.assert_held();  // predicates run with the shard lock held
        return closed_.load(std::memory_order_acquire) ||
               published_.load(std::memory_order_seq_cst) != consumed_;
      });
      // Clearing the nap flag needs no ordering: only the seq_cst
      // store(true) above fences against lost wakeups.
      // fb-lint-allow(atomic-order)
      sleeping_.store(false, std::memory_order_relaxed);
      const bool draining = closed_.load(std::memory_order_acquire);
      const ClockTime window_open = options_.clock->now();
      if (!draining && options_.window.count() > 0) {
        // Let the window fill. A close() mid-window flushes immediately —
        // shutdown never waits out the timer.
        const ClockTime deadline =
            window_open + std::chrono::duration_cast<ClockTime>(options_.window);
        options_.clock->wait_until(lock, cv_, deadline, [this] {
          return closed_.load(std::memory_order_acquire);
        });
      }
      // One drain + flush-callback round. The unlock/relock around the
      // callback stays in this frame, on the locally declared lock: the
      // thread-safety analysis only tracks scoped locks it can see being
      // toggled, not ones passed by reference.
      if (std::vector<Item> items = collect_window(); !items.empty()) {
        const ClockTime window_close = options_.clock->now();
        lock.unlock();
        flush_(options_.index, std::move(items), window_open, window_close);
        lock.lock();
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Final sweep: admission is closed; wait out in-flight pushes so
        // every accepted item is visible, then drain one last time.
        lock.unlock();
        while (admitting_.load(std::memory_order_acquire) != 0) {
          std::this_thread::yield();
        }
        lock.lock();
        if (std::vector<Item> items = collect_window(); !items.empty()) {
          const ClockTime window_close = options_.clock->now();
          lock.unlock();
          flush_(options_.index, std::move(items),
                 /*window_open=*/window_close, window_close);
          lock.lock();
        }
        return;
      }
    }
  }

  /// Drains one round's items and advances cursors/instruments/heartbeat.
  /// Returns the batch for the flush callback (empty = idle round).
  std::vector<Item> collect_window() FB_REQUIRES(mutex_) {
    std::vector<Item> items;
    drain_pending(items);
    consumed_ += items.size();
    consumed_public_.store(consumed_, std::memory_order_relaxed);
    instruments_.depth.set(static_cast<double>(depth()));
    const ClockTime now = options_.clock->now();
    // Entries still pending after the drain arrived during it — their
    // age restarts here; a fully drained shard has no oldest entry.
    oldest_ns_.store(depth() == 0 ? kNoPending : now.count(),
                     std::memory_order_relaxed);
    // Heartbeat contract: beat only on a completed drain round. A loop
    // wedged inside its window wait never reaches this line, which is
    // exactly the signal the watchdog's stall test pins down.
    if (heartbeat_ != nullptr) heartbeat_->beat(now.count());
    if (!items.empty()) {
      windows_count_.fetch_add(1, std::memory_order_relaxed);
      instruments_.windows.inc();
    }
    return items;
  }

  Options options_;
  FlushFn flush_;
  MpscRing<Item> ring_;
  ShardInstruments instruments_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Item> overflow_ FB_GUARDED_BY(mutex_);

  // Admission/shutdown handshake words: seq_cst where the handshake
  // proof needs a total order (see the class comment), acquire/release
  // elsewhere — all orders explicit at the call sites.
  std::atomic<bool> closed_{false};
  std::atomic<bool> sleeping_{false};
  std::atomic<int> admitting_{0};
  std::atomic<std::uint64_t> published_{0};
  // Consumer-side cursor: touched only by the flush loop, under mutex_
  // (its cv predicate compares it against published_).
  std::uint64_t consumed_ FB_GUARDED_BY(mutex_) = 0;
  // Racy mirror of consumed_ for depth gauges. fb-atomic-counter
  std::atomic<std::uint64_t> consumed_public_{0};

  // Statistics and staleness gauges; relaxed by design. fb-atomic-counter
  std::atomic<std::uint64_t> enqueued_count_{0};
  std::atomic<std::uint64_t> shed_count_{0};
  std::atomic<std::uint64_t> overflow_count_{0};
  std::atomic<std::uint64_t> windows_count_{0};
  std::atomic<std::int64_t> oldest_ns_{kNoPending};

  std::shared_ptr<obs::HeartbeatSource> heartbeat_;
  std::thread thread_;
};

}  // namespace faasbatch::live::dispatch
