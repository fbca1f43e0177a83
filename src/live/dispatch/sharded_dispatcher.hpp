// Composes the sharded dispatch pipeline: N shards (MPSC ring + window
// flush loop each) feeding one pull-based worker pool.
//
//   invoke() ── fnv1a(function) % N ──► Shard k ── window flush ──► pool
//
// Arrivals for the same function always land on the same shard, so
// batching opportunities (the paper's core lever) survive the
// partitioning: a shard's flush sees every pending request of the
// functions it owns, exactly like the single global window would — it
// just stops serialising unrelated functions against each other.
//
// Lifecycle: close() atomically stops admission on every shard (late
// producers get Admit::kClosed) and triggers each shard's final drain
// sweep without blocking on execution; join() then waits for the shard
// threads to finish their sweeps and for the worker pool to drain every
// queued batch. After join() returns, every item that was ever accepted
// has been handed to the flush callback and executed.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "live/dispatch/shard.hpp"
#include "live/dispatch/worker_pool.hpp"

namespace faasbatch::live::dispatch {

template <typename Item, typename Batch>
class ShardedDispatcher {
 public:
  struct Options {
    std::size_t shards = 4;
    std::size_t workers = 2;
    std::size_t ring_capacity = 8192;  ///< per shard
    std::size_t max_queue = 0;         ///< per shard; 0 = unbounded
    Clock* clock = nullptr;            ///< required
    std::chrono::milliseconds window{0};
    /// Optional stall watchdog shared by every shard and the worker pool.
    obs::Watchdog* watchdog = nullptr;
  };

  using FlushFn = typename Shard<Item>::FlushFn;
  using ExecuteFn = typename WorkerPool<Batch>::ExecuteFn;

  ShardedDispatcher(const Options& options, FlushFn flush, ExecuteFn execute)
      : pool_(options.workers == 0 ? 2 : options.workers, std::move(execute),
              options.watchdog, options.clock) {
    const std::size_t count = options.shards == 0 ? 4 : options.shards;
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      typename Shard<Item>::Options shard_options;
      shard_options.index = i;
      shard_options.ring_capacity = options.ring_capacity;
      shard_options.max_queue = options.max_queue;
      shard_options.clock = options.clock;
      shard_options.window = options.window;
      shard_options.watchdog = options.watchdog;
      shards_.push_back(std::make_unique<Shard<Item>>(shard_options, flush));
    }
  }

  ~ShardedDispatcher() {
    close();
    join();
  }

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  /// Stable shard assignment for a function key.
  std::size_t shard_for(std::string_view key) const {
    return static_cast<std::size_t>(fnv1a(key)) % shards_.size();
  }

  /// Admits one item onto its shard. Lock-free on the happy path.
  Admit enqueue(std::size_t shard, Item item) {
    return shards_[shard]->try_enqueue(std::move(item));
  }

  /// Hands a flushed batch to the worker pool (called from FlushFn).
  void submit(Batch&& batch) { pool_.push(std::move(batch)); }

  /// Closes admission on every shard and kicks off their final drain
  /// sweeps. Non-blocking and idempotent — callers that must observe all
  /// work finished follow up with join().
  void close() {
    for (auto& shard : shards_) shard->close();
  }

  /// Waits for every shard's final sweep, then drains and stops the
  /// worker pool. Idempotent; close() must have been called.
  void join() {
    for (auto& shard : shards_) shard->join();
    pool_.stop();
  }

  std::size_t shards() const { return shards_.size(); }
  std::size_t workers() const { return pool_.workers(); }

  std::vector<ShardSnapshot> snapshots() const {
    std::vector<ShardSnapshot> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) out.push_back(shard->snapshot());
    return out;
  }

 private:
  WorkerPool<Batch> pool_;
  std::vector<std::unique_ptr<Shard<Item>>> shards_;
};

}  // namespace faasbatch::live::dispatch
