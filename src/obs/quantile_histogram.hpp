// QuantileHistogram: HDR-style log-bucketed lock-free latency recording.
//
// The registry's one distribution instrument: batch sizes, cold starts
// and latencies all record here, and the exposition derives a Prometheus
// summary (quantile labels, _sum, _count) from the buckets. It buckets
// values logarithmically — every octave (factor of 2) is split into a
// fixed number of linear sub-buckets — so p50/p95/p99/p999 extraction has
// a bounded RELATIVE error everywhere in the range. With 8 sub-buckets
// per octave the worst-case relative error of a reported quantile is
// 1/16 ≈ 6.7% (half a sub-bucket), uniformly from microseconds to hours.
//
// Why log-spaced and not fixed bounds: latency is multiplicative —
// regressions multiply durations (a 2x slowdown moves every value one
// octave up), and SLOs are stated as ratios of the norm. Buckets with
// constant relative width see a 2x shift as a constant bucket offset at
// every scale; fixed-bound layouts saturate (everything in the overflow
// bucket) or waste resolution, and need a bound list per series. The
// same reasoning drives HdrHistogram and Prometheus native histograms.
//
// Cost model matches the other instruments: one relaxed atomic load when
// the owning registry is disabled; when enabled, recording is a frexp,
// two relaxed fetch_adds, and a CAS loop on the sum — lock-free and safe
// from any thread. Extraction walks the bucket array without stopping
// writers (quantiles over a torn snapshot are still valid samples).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace faasbatch::obs {

class MetricsRegistry;

/// p50/p95/p99/p999 snapshot (same unit as the recorded values).
struct QuantileSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

class QuantileHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave. 8 bounds the relative
  /// quantile error at 1/16; doubling it halves the error and doubles
  /// the (tiny) footprint.
  static constexpr int kSubBuckets = 8;
  /// Smallest / largest distinguishable exponents: values below 2^-20
  /// (~1e-6) clamp into the first bucket, values above 2^30 (~1e9) into
  /// the last. For millisecond-unit series that spans 1 ns to ~12 days.
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 30;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;

  /// Records one observation. Values <= 0 land in the dedicated zero
  /// bucket (they have no logarithm but must still count — a 0 ms queue
  /// wait is the common case, not an error).
  void record(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed)) {
    }
  }

  /// The quantile estimate for q in [0, 1]: the representative value
  /// (geometric bucket midpoint) of the bucket holding the ceil(q*count)
  /// ranked observation. 0 when empty.
  double quantile(double q) const;

  /// One consistent-enough snapshot of count/sum and the four standard
  /// quantiles (single bucket walk).
  QuantileSummary summary() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Bucket index a value records into (exposed for the accuracy tests).
  static std::size_t bucket_index(double v);
  /// Representative value reported for bucket i (geometric midpoint of
  /// its bounds; 0 for the zero bucket).
  static double bucket_value(std::size_t i);

 private:
  friend class MetricsRegistry;
  explicit QuantileHistogram(const std::atomic<bool>* enabled)
      : enabled_(enabled), counts_(kBuckets) {}
  void reset();

  // Metric words: relaxed by design, nothing else rides on them.
  // fb-atomic-counter
  const std::atomic<bool>* enabled_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

}  // namespace faasbatch::obs
