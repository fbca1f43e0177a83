// MetricsRegistry: named counters, gauges, and quantile histograms.
//
// The registry is the platform's always-on production telemetry surface:
// components record counts (cold starts, multiplexer hits), levels
// (live containers), and distributions (batch size, response latency)
// against process-global instruments, and the HTTP gateway / CLI expose
// them as a Prometheus text page or a JSON snapshot. Every distribution
// is one log-bucketed QuantileHistogram, exposed as a Prometheus summary.
//
// Cost model: every instrument holds a pointer to its registry's enabled
// flag and checks it with one relaxed atomic load before touching the
// value, so instrumentation left in hot paths is a load+branch when the
// registry is disabled (the default). Recording itself is a relaxed
// atomic update — safe from any thread, including the live runtime's
// container threads. Nothing here affects control flow, which is what
// keeps the deterministic differential harness bit-identical with
// metrics on or off.
//
// Instrument names follow Prometheus conventions (fb_*_total for
// counters) and may carry a literal label set: "fb_x_total{k=\"v\"}".
// Exposition splices summary "quantile" labels into any existing set.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "common/ordered_mutex.hpp"
#include "obs/quantile_histogram.hpp"

namespace faasbatch::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void reset() { value_.store(0, std::memory_order_relaxed); }

  // Metric words: relaxed by design, nothing else rides on them.
  // fb-atomic-counter
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can move both ways (e.g. live containers right now).
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  // Metric words: relaxed by design, nothing else rides on them.
  // fb-atomic-counter
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() { set_mutex_name(mutex_, "metrics_registry.instruments"); }
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-global registry used by all built-in instrumentation.
  static MetricsRegistry& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// HDR-style log-bucketed histogram with p50/p95/p99/p999 extraction;
  /// the one distribution instrument, exposed as a Prometheus summary
  /// (quantile labels, _sum, _count).
  QuantileHistogram& quantile(const std::string& name);

  /// Zeroes every instrument's value (instruments stay registered).
  void reset();

  /// One JSON object per instrument kind, keyed by name.
  Json snapshot() const;

  /// Prometheus text exposition format (version 0.0.4).
  std::string prometheus_text() const;

 private:
  // Enablement flag checked before every instrument touch; relaxed by
  // design (worst case: one sample recorded/skipped around the flip).
  // fb-atomic-counter
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ FB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<QuantileHistogram>> quantiles_
      FB_GUARDED_BY(mutex_);
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace faasbatch::obs
