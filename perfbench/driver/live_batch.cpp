// live_batch: the in-process LivePlatform with its default options
// (FaaSBatch policy, 50 ms window, sharded dispatch) under open-loop
// Poisson arrivals from one generator thread.
//
// It runs the paper's mechanism on real threads and bypasses HTTP.
// Latency is bound by the window, so pipeline work shows mostly in
// cpu_us_per_inv. The rate is fixed well below the knee: near the knee a
// host stall makes FaaSBatch scale out onto new containers (a busy
// container at a flush gets a fresh one), and one stall cascades.

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "common/hash.hpp"
#include "live_rig.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/quantile_histogram.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace faasbatch;
namespace {

/// Offered load, invocations per second. On a 4-core host latency stayed
/// window-bound (p99 ~50 ms, no scale-out) from 5k/s up to 40k/s.
constexpr double kRate = 10'000.0;
/// Slices of a measured phase for the per-window medians.
constexpr int kWindows = 6;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// A generator whose p99 lateness exceeds half the dispatch window fell
/// behind its schedule: its lateness would rival the platform's latency.
constexpr double kMaxLateP99Ms = 25.0;

struct Rig {
  IoCheck io;
  std::unique_ptr<live::LivePlatform> platform;
};

/// Constructs the platform, registers the functions and warms one
/// container per function; returns the wall time it took.
double set_up(Rig& rig, Report& report) {
  const double t0 = now_s();
  rig.platform = std::make_unique<live::LivePlatform>(live::LivePlatformOptions{});
  register_live_functions(*rig.platform, rig.io);
  std::vector<std::future<live::InvocationReport>> warm;
  for (const auto& f : live_functions()) warm.push_back(rig.platform->invoke(f.name, "warm"));
  for (auto& w : warm) report.check(w.get().ok(), "live_batch: warm-up invocation failed");
  return now_s() - t0;
}

/// One measured phase of open-loop load and what it observed.
struct Phase {
  WindowedLatency latency{0, 1, kWindows};  // scheduled send -> completion, ms
  obs::QuantileHistogram* admit_us = nullptr;
  obs::QuantileHistogram* queue_ms = nullptr;
  obs::QuantileHistogram* exec_ms = nullptr;
  obs::QuantileHistogram* late_ms = nullptr;
  double late_max_ms = 0;
  std::uint64_t attempted = 0, resolved = 0, ok = 0, mismatches = 0;
  PlatformCounters before, after;
  /// Per-window figures (kWindows equal slices of the phase); the
  /// reported CPU and throughput are their medians, which a transient
  /// host stall in one window cannot move.
  std::vector<double> window_cpu_us, window_ips;
};

/// Runs the generator thread under SCHED_FIFO while it exists. On a
/// 4-core host, bursts of platform threads otherwise delay its wake-ups
/// by ~10 ms at p99 and that lateness set the spread of p99_ms. The
/// generator sleeps between sends, so it cannot starve the platform.
/// Where the policy is not permitted the run proceeds at normal priority
/// and says so.
class RealtimeGenerator {
 public:
  RealtimeGenerator() {
    pthread_getschedparam(pthread_self(), &policy_, &param_);
    sched_param fifo{};
    fifo.sched_priority = 1;
    if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) != 0) {
      note("generator runs at normal priority: SCHED_FIFO not permitted");
    }
  }
  ~RealtimeGenerator() { pthread_setschedparam(pthread_self(), policy_, &param_); }
  RealtimeGenerator(const RealtimeGenerator&) = delete;
  RealtimeGenerator& operator=(const RealtimeGenerator&) = delete;

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
};

struct InFlight {
  std::future<live::InvocationReport> future;
  double scheduled_s;
  double called_s;
  std::uint64_t id;
};

void run_phase(Rig& rig, Rng& rng, double seconds, obs::MetricsRegistry& registry,
               const std::string& label, SpanLog* spans, Phase& phase, Report& report) {
  phase.admit_us = &registry.quantile(label + ".admit_us");
  phase.queue_ms = &registry.quantile(label + ".queue_ms");
  phase.exec_ms = &registry.quantile(label + ".exec_ms");
  phase.late_ms = &registry.quantile(label + ".late_ms");
  const auto& functions = live_functions();
  const double base_us = now_s() * 1e6 - trace_us();  // now_s -> span clock

  auto settle = [&](InFlight& x) {
    const live::InvocationReport r = x.future.get();
    ++phase.resolved;
    if (!r.ok()) return;
    ++phase.ok;
    report.check(r.queue_ms >= 0 && r.queue_ms <= r.total_ms && r.exec_ms <= r.total_ms,
                 "live_batch: inconsistent invocation report");
    const double late_ms = (x.called_s - x.scheduled_s) * 1e3;
    phase.latency.record(x.scheduled_s, late_ms + r.total_ms);
    phase.queue_ms->record(r.queue_ms);
    phase.exec_ms->record(r.exec_ms);
    if (spans != nullptr) {
      const double start = x.called_s * 1e6 - base_us;
      spans->add("live.invocation", start, r.total_ms * 1e3,
                 (r.total_ms - r.queue_ms - r.exec_ms) * 1e3, x.id);
      spans->add("live.queue", start, r.queue_ms * 1e3, x.id, x.id);
      spans->add("live.exec", start + r.queue_ms * 1e3, r.exec_ms * 1e3, x.id, x.id);
    }
  };

  std::deque<InFlight> inflight;
  const auto drain_ready = [&] {
    while (!inflight.empty() && inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                                    std::future_status::ready) {
      settle(inflight.front());
      inflight.pop_front();
    }
  };

  const RealtimeGenerator realtime;
  phase.before = snapshot(*rig.platform, rig.io);
  const std::uint64_t mismatches0 = rig.io.mismatches.load(std::memory_order_relaxed);
  const double start = now_s();
  const double end = start + seconds;
  phase.latency = WindowedLatency(start, seconds, kWindows);
  double next = start;
  std::uint64_t id = 0;
  // Window bookkeeping: process CPU minus this (generator) thread's CPU,
  // per completion, and completions per second.
  struct Mark {
    double process_cpu, generator_cpu, ok, at;
  };
  const auto mark = [&] {
    return Mark{process_cpu_s(), thread_cpu_s(), static_cast<double>(phase.ok), now_s()};
  };
  Mark opened = mark();
  const auto close_window = [&] {
    const Mark m = mark();
    const double ok = m.ok - opened.ok;
    phase.window_cpu_us.push_back(
        (m.process_cpu - opened.process_cpu - (m.generator_cpu - opened.generator_cpu)) * 1e6 /
        ok);
    phase.window_ips.push_back(ok / (m.at - opened.at));
    opened = m;
  };
  int window = 1;
  while (next < end) {
    if (next >= start + seconds * window / kWindows) {
      close_window();
      ++window;
    }
    LiveRequest request = draw_request(rng);
    drain_ready();
    const double wait = next - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    const double called = now_s();
    auto future = rig.platform->invoke(functions[request.function].name,
                                       std::move(request.payload));
    const double returned = now_s();
    ++phase.attempted;
    const double late_ms = (called - next) * 1e3;
    phase.late_ms->record(late_ms);
    phase.late_max_ms = std::max(phase.late_max_ms, late_ms);
    phase.admit_us->record((returned - called) * 1e6);
    if (spans != nullptr) {
      spans->add("gen.late", next * 1e6 - base_us, late_ms * 1e3, 0);
      spans->add("live.admit", called * 1e6 - base_us, (returned - called) * 1e6, 0);
    }
    inflight.push_back({std::move(future), next, called, ++id});
    next += rng.exponential(kRate);
  }
  while (!inflight.empty()) {
    if (inflight.front().future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      report.fail("live_batch: an invocation never resolved");
      break;
    }
    settle(inflight.front());
    inflight.pop_front();
  }
  close_window();
  phase.after = snapshot(*rig.platform, rig.io);
  phase.mismatches = rig.io.mismatches.load(std::memory_order_relaxed) - mismatches0;
  report.check(phase.resolved == phase.attempted,
               "live_batch: resolved futures != attempted invocations");
  report.check(phase.mismatches == 0, "live_batch: an io object read back wrong data");
}

std::string pct(const char* name, double value, std::uint64_t n, double q) {
  return std::string(name) + "=" + std::to_string(value) + " (n=" + std::to_string(n) +
         ", beyond=" + std::to_string(static_cast<std::uint64_t>(
                           static_cast<double>(n) * (1.0 - q))) +
         ")";
}

}  // namespace

Report run_live_batch(const Options& options) {
  Report report;
  Rng rng(ArgsHasher().add("live_batch", std::to_string(options.seed)).digest());
  obs::MetricsRegistry registry;  // private: the platform's own stays off
  registry.set_enabled(true);

  Rig rig;
  std::vector<double> setups{set_up(rig, report)};

  // Unmeasured warm load: caches, allocator arenas and thread stacks
  // settle before timing.
  Phase warm;
  run_phase(rig, rng, std::min(2.0, 0.1 * options.seconds), registry, "warm", nullptr, warm,
            report);

  const double measured = options.trace ? options.seconds / 2 : options.seconds;
  Phase plain;
  run_phase(rig, rng, measured, registry, "plain", nullptr, plain, report);
  SpanLog spans;
  Phase traced;
  if (options.trace) {
    run_phase(rig, rng, measured, registry, "traced", &spans, traced, report);
  }
  const Phase& main = options.trace ? traced : plain;

  const double p50 = plain.latency.quantile(0.50), p99 = plain.latency.quantile(0.99);
  const std::uint64_t completed = plain.ok - plain.mismatches;
  const double late_p99 = plain.late_ms->quantile(0.99);
  note(pct("p50_ms", p50, plain.latency.count(), 0.50));
  note(pct("p99_ms", p99, plain.latency.count(), 0.99));
  note(pct("gen.late_p99_ms", late_p99, plain.late_ms->count(), 0.99) +
       " gen.late_max_ms=" + std::to_string(plain.late_max_ms));
  report.check(late_p99 <= kMaxLateP99Ms, "live_batch: the generator fell behind its schedule");

  // Peak RSS is read before the repeated set-ups below: their heap
  // reuse across malloc arenas made it bimodal.
  const double peak_rss = peak_rss_mib();
  const double containers = static_cast<double>(rig.platform->containers_created());
  if (options.trace) fill_live_layers(report, traced.before, traced.after, traced.ok);
  for (int i = 1; i < kSetups; ++i) {
    rig.platform.reset();
    setups.push_back(set_up(rig, report));
  }
  rig.platform.reset();

  report.attempted = main.attempted;
  report.failed = main.attempted - (main.ok - main.mismatches);
  note_windows(plain.window_cpu_us, plain.window_ips);
  if (!options.trace) {
    auto& metrics = report.metrics;
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mib"] = peak_rss;
    metrics["ok_share"] = static_cast<double>(completed) / static_cast<double>(plain.attempted);
    metrics["throughput_ips"] = median(plain.window_ips);
    metrics["p50_ms"] = p50;
    metrics["p99_ms"] = p99;
    metrics["containers"] = containers;
    metrics["cpu_us_per_inv"] = median(plain.window_cpu_us);
    return report;
  }

  report.metrics["live.admit_us_p50"] = traced.admit_us->quantile(0.50);
  report.metrics["live.admit_us_p99"] = traced.admit_us->quantile(0.99);
  report.metrics["live.queue_ms_p50"] = traced.queue_ms->quantile(0.50);
  report.metrics["live.queue_ms_p99"] = traced.queue_ms->quantile(0.99);
  report.metrics["live.exec_ms_p50"] = traced.exec_ms->quantile(0.50);
  report.metrics["live.exec_ms_p99"] = traced.exec_ms->quantile(0.99);
  report.metrics["gen.late_p99_ms"] = traced.late_ms->quantile(0.99);
  report.metrics["gen.late_max_ms"] = traced.late_max_ms;

  note("tracing overhead: p50_ms " + std::to_string(p50) + " -> " +
       std::to_string(traced.latency.quantile(0.5)) + ", p99_ms " + std::to_string(p99) +
       " -> " + std::to_string(traced.latency.quantile(0.99)) + ", cpu_us_per_inv " +
       std::to_string(median(plain.window_cpu_us)) + " -> " +
       std::to_string(median(traced.window_cpu_us)) + " (generator-side span recording)");
  spans.finish(options.out_dir + "/trace_live_batch.json");
  return report;
}

}  // namespace perfbench
