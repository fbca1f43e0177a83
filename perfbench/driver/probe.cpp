#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>

namespace perfbench {

void Report::fail(const std::string& why) {
  correct = false;
  note("CHECK FAILED: " + why);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

void note(const std::string& line) { std::cout << "# " << line << '\n' << std::flush; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m] : 0.5 * (values[m - 1] + values[m]);
}

namespace {

/// Value of a "Key:   123 kB" line of /proc/self/status (-1 if absent).
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line[key.size()] == ':') {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

double peak_rss_mib() { return static_cast<double>(status_field("VmHWM")) / 1024.0; }
double rss_mib() { return static_cast<double>(status_field("VmRSS")) / 1024.0; }
long thread_count() { return status_field("Threads"); }

long fd_count() {
  long n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::uint64_t context_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
  HostTicks ticks;
  double field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {
std::atomic<bool> g_count_allocs{false};
// Pure statistic. fb-atomic-counter
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void count_allocations(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

namespace {
// 0.2 % wide buckets from 1e-4 ms (0.1 us) up to 1e7 ms.
constexpr double kMinMs = 1e-4;
constexpr double kGrowth = 1.002;
const double kLogGrowth = std::log(kGrowth);
const std::size_t kBuckets =
    static_cast<std::size_t>(std::log(1e7 / kMinMs) / std::log(kGrowth)) + 1;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::record(double ms) {
  std::size_t i = 0;
  if (ms > kMinMs) {
    i = std::min(kBuckets - 1,
                 static_cast<std::size_t>(std::log(ms / kMinMs) / kLogGrowth));
  }
  ++buckets_[i];
  ++count_;
  max_ = std::max(max_, ms);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n > 0 && below + n >= rank) {
      const double lo = kMinMs * std::exp(kLogGrowth * static_cast<double>(i));
      return std::min(max_, lo * std::exp(kLogGrowth * (rank - below) / n));
    }
    below += n;
  }
  return max_;
}

WindowedLatency::WindowedLatency(double start_s, double seconds, int windows)
    : start_s_(start_s), window_s_(seconds / windows), windows_(windows) {}

void WindowedLatency::record(double at_s, double ms) {
  const double w = std::floor((at_s - start_s_) / window_s_);
  const auto last = static_cast<double>(windows_.size() - 1);
  windows_[static_cast<std::size_t>(std::clamp(w, 0.0, last))].record(ms);
}

void WindowedLatency::merge(const WindowedLatency& other) {
  for (std::size_t w = 0; w < windows_.size() && w < other.windows_.size(); ++w) {
    windows_[w].merge(other.windows_[w]);
  }
}

double WindowedLatency::quantile(double q) const {
  std::vector<double> per_window;
  for (const auto& w : windows_) {
    if (w.count() > 0) per_window.push_back(w.quantile(q));
  }
  return median(per_window);
}

std::uint64_t WindowedLatency::count() const {
  std::uint64_t n = 0;
  for (const auto& w : windows_) n += w.count();
  return n;
}

SpanLog::SpanLog(std::size_t keep) : keep_(keep) { recorder_.set_enabled(true); }

void SpanLog::add(const std::string& layer, double start_us, double dur_us,
                  double self_us, std::uint64_t id, std::uint64_t parent) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Layer& l = layers_[layer];
    ++l.count;
    l.total_us += dur_us;
    l.self_us += self_us;
    if (kept_ == keep_) return;
    ++kept_;
  }
  recorder_.complete("perfbench", layer, start_us, std::max(0.0, dur_us), id,
                     {{"id", faasbatch::Json(id)}, {"parent", faasbatch::Json(parent)}});
}

void SpanLog::finish(const std::string& trace_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t spans = 0;
  for (const auto& [name, l] : layers_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "layer %-16s spans=%-9llu total_ms=%-12.3f self_ms=%.3f", name.c_str(),
                  static_cast<unsigned long long>(l.count), l.total_us / 1e3,
                  l.self_us / 1e3);
    note(line);
    spans += l.count;
  }
  std::ofstream out(trace_path);
  recorder_.write_chrome_trace(out);
  note("chrome trace: " + trace_path + " (" + std::to_string(kept_) + " of " +
       std::to_string(spans) + " spans)");
}

double trace_us() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace perfbench

// Counting replacements of the global allocation functions. Only the
// plain and array forms are replaced; the aligned forms keep the
// library's versions and go uncounted (the simulator does not use them).
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
