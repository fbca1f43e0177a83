// Watchdog: detects wedged shards and accept loops.
//
// Every progress loop in the live pipeline (a dispatch shard's flush
// loop, the gateway's accept loop) registers a HeartbeatSource and beats
// it once per unit of real progress — a window flush, a connection
// accepted. The watchdog itself owns no thread and reads no clock:
// scan(now) is pull-based, driven by whoever asks for health (the
// gateway's /healthz handler, a test), with `now` coming from the
// caller's injectable Clock. That makes the detector fully deterministic
// under VirtualClock — a test wedges a shard, advances virtual time past
// the threshold, and scan() flags exactly that shard, with no sleeps and
// no background scanner racing the assertion.
//
// Heartbeat contract: beat on *completed work*, not on wakeups. A flush
// loop that wakes, times out, and goes back to sleep has not proven it
// can drain its queue; only a completed drain round beats (a shard's
// collect_window), so a flush callback that wedges stops the beats while
// the queue behind it grows. A source is stalled when its queue depth is
// nonzero and its heartbeat has not advanced for longer than the stall
// threshold — an idle loop (depth 0) is healthy no matter how long it
// sleeps, so the watchdog never false-positives on a quiet system. The
// threshold must exceed the dispatch window (a shard legitimately sits a
// full window between flushes); the default 5 s is comfortably above any
// configured window, and tests tighten it.
//
// Cost model: beat() is two relaxed atomic stores, unconditional —
// cheap enough to stay on even when metrics are off, because health must
// be observable precisely when everything else is going wrong.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/ordered_mutex.hpp"

namespace faasbatch::obs {

/// last_beat value of a source that has never beaten. INT64_MIN, not 0:
/// VirtualClock time 0 is a perfectly valid instant.
inline constexpr std::int64_t kNeverBeat =
    std::numeric_limits<std::int64_t>::min();

/// One monitored progress loop. Owned (via shared_ptr) by the component
/// it monitors; the component beats it and unregisters it on shutdown.
class HeartbeatSource {
 public:
  /// Marks one unit of completed work at the caller's clock time.
  void beat(std::int64_t now_ns) {
    beats_.fetch_add(1, std::memory_order_relaxed);
    last_beat_ns_.store(now_ns, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  std::uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  std::int64_t last_beat_ns() const {
    return last_beat_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class Watchdog;
  HeartbeatSource(std::string name, std::function<double()> depth_fn,
                  std::int64_t registered_ns)
      : name_(std::move(name)),
        depth_fn_(std::move(depth_fn)),
        registered_ns_(registered_ns) {}

  std::string name_;
  std::function<double()> depth_fn_;  ///< pending work right now; may be null
  std::int64_t registered_ns_;
  // Monitoring statistics read racily by scans; no data is published
  // through them. fb-atomic-counter
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::int64_t> last_beat_ns_{kNeverBeat};
};

/// One scan() result: per-source state plus the overall verdict.
struct WatchdogReport {
  struct Source {
    std::string name;
    std::uint64_t beats = 0;
    std::int64_t last_beat_ns = kNeverBeat;
    double depth = 0.0;
    bool stalled = false;
  };

  std::int64_t now_ns = 0;
  std::int64_t threshold_ns = 0;
  bool healthy = true;
  std::vector<Source> sources;
  std::vector<std::string> stalled;  ///< names of stalled sources

  /// {"healthy":...,"stalled":[names],"sources":[{...}]}.
  Json to_json() const;
};

class Watchdog {
 public:
  explicit Watchdog(std::int64_t stall_threshold_ns = 5'000'000'000);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a progress loop. `depth_fn` reports its pending work (a
  /// relaxed read; called during scans) — sources without a meaningful
  /// depth may pass nullptr and are then never flagged. `now_ns` anchors
  /// the stall baseline for a loop that wedges before its first beat.
  std::shared_ptr<HeartbeatSource> register_source(
      std::string name, std::function<double()> depth_fn, std::int64_t now_ns);

  /// Removes a source (component shutdown; depth_fn may dangle after).
  void unregister(const std::shared_ptr<HeartbeatSource>& source);

  void set_stall_threshold_ns(std::int64_t threshold_ns);
  std::int64_t stall_threshold_ns() const;

  /// Evaluates every source against `now_ns` (caller's clock): stalled
  /// means depth > 0 and no beat for longer than the threshold.
  WatchdogReport scan(std::int64_t now_ns) const;

 private:
  // Tunable read per scan; racy update is harmless. fb-atomic-counter
  std::atomic<std::int64_t> threshold_ns_;
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<HeartbeatSource>> sources_ FB_GUARDED_BY(mutex_);
};

}  // namespace faasbatch::obs
