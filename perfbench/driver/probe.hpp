// Measurement plumbing shared by the workloads: the run report printed
// as the result line, process probes read from /proc and getrusage, an
// allocation counter, a fine-grained latency histogram, and the span log
// of the traced run. Everything here observes the program from outside:
// it times calls into public entry points and reads process counters.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
};

/// What one run hands back to main: the verdict, the operation counts
/// and the metrics of the requested kind (end-to-end or per-layer), by
/// name. main prints them in the order and with the units BENCHMARK.json
/// lists; a per-layer metric a workload does not produce reads 0.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Marks the run incorrect and prints why (an output check failed).
  void fail(const std::string& why);
  /// fail() unless `ok`.
  void check(bool ok, const std::string& what);
};

/// Human-readable detail line ("# ..." on stdout, before the result).
void note(const std::string& line);

double now_s();  ///< steady_clock seconds
double median(std::vector<double> values);  ///< 0 for an empty set

// -- process probes --------------------------------------------------
double peak_rss_mib();  ///< VmHWM
double rss_mib();       ///< VmRSS
long thread_count();    ///< Threads in /proc/self/status
long fd_count();        ///< entries of /proc/self/fd
/// Voluntary + involuntary context switches of the whole process.
std::uint64_t context_switches();
double process_cpu_s();  ///< user + system CPU of all threads
/// Guest-wide CPU ticks from /proc/stat: all of them, and those stolen by
/// the hypervisor. The steal share over a run says whether the host was
/// contended while it measured.
struct HostTicks {
  double total = 0, steal = 0;
};
HostTicks host_ticks();
double thread_cpu_s();   ///< CPU of the calling thread

// -- allocation counter ------------------------------------------------
/// Global operator new calls while counting is on (this binary replaces
/// operator new; the count is off, and costs one relaxed load, otherwise).
void count_allocations(bool on);
std::uint64_t allocations();

/// Open-ended latency histogram with 0.2 % wide log buckets and linear
/// interpolation inside a bucket: O(1) memory, and quantiles that move
/// smoothly with the data. obs::QuantileHistogram reports bucket
/// midpoints ~9 % apart, too coarse for end-to-end percentiles. Not
/// thread-safe; each recorder owns one.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(double ms);
  void merge(const LatencyHistogram& other);
  /// Value at rank ceil(q * count), interpolated within its bucket.
  double quantile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double max_ = 0.0;
};

/// Latency histograms per time window of a measured phase. quantile()
/// is the median over windows of each window's quantile, so a transient
/// host stall inside one or two windows cannot move it.
class WindowedLatency {
 public:
  WindowedLatency(double start_s, double seconds, int windows);
  void record(double at_s, double ms);
  void merge(const WindowedLatency& other);
  double quantile(double q) const;
  std::uint64_t count() const;

 private:
  double start_s_;
  double window_s_;
  std::vector<LatencyHistogram> windows_;
};

/// The traced run's spans. The first `keep` go to a private
/// obs::TraceRecorder (the platform's global tracer stays off) and are
/// written as a Chrome trace at the end; every span is aggregated per
/// layer into count, total and self time, where self time is a span's
/// duration minus what its child spans cover. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep = 200'000);
  /// Records one span; `self_us` is its duration minus its children's.
  void add(const std::string& layer, double start_us, double dur_us,
           double self_us, std::uint64_t id, std::uint64_t parent = 0);
  /// A span whose children cover none of it.
  void add(const std::string& layer, double start_us, double dur_us,
           std::uint64_t id = 0, std::uint64_t parent = 0) {
    add(layer, start_us, dur_us, dur_us, id, parent);
  }
  /// Prints "# layer <name> spans=... total_ms=... self_ms=..." lines and
  /// writes the kept spans to `trace_path`.
  void finish(const std::string& trace_path);

 private:
  struct Layer {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  const std::size_t keep_;
  std::mutex mutex_;
  std::map<std::string, Layer> layers_;
  std::size_t kept_ = 0;
  faasbatch::obs::TraceRecorder recorder_;
};

/// Microseconds since process start on the steady clock (span stamps).
double trace_us();

}  // namespace perfbench
