// http_vanilla: the same platform with LivePolicy::kVanilla behind the
// HttpGateway on loopback, driven by a closed loop of keep-alive clients
// (at most one per core) sending POST /invoke/<function>.
//
// Vanilla dispatches each arrival at once (zero window) and reuses idle
// warm containers, so it exercises the live and dispatch layers
// differently from live_batch, and the HTTP path dominates its latency.
// Closed-loop, small-request traffic over 30 s held its figures within a
// few percent in trials; open-loop or large-body HTTP traffic did not.

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "http/client.hpp"
#include "live/http_gateway.hpp"
#include "live_rig.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/quantile_histogram.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace faasbatch;
namespace {

constexpr int kSetups = 3;
/// Slices of a measured phase for the per-window medians.
constexpr int kWindows = 6;

std::size_t client_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

struct Rig {
  IoCheck io;
  std::unique_ptr<live::LivePlatform> platform;
  std::unique_ptr<live::HttpGateway> gateway;
};

/// Holds warm-up invocations inside their containers until all of them
/// have started, so each one occupies its own container.
class Gate {
 public:
  void enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void open_when_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_ >= n; });
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t entered_ = 0;
  bool open_ = false;
};

/// Constructs the platform, warms exactly client_count() containers per
/// function, registers the real handlers and starts the gateway.
double set_up(Rig& rig, Report& report) {
  const double t0 = now_s();
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kVanilla;
  rig.platform = std::make_unique<live::LivePlatform>(options);
  Gate gate;
  for (const auto& f : live_functions()) {
    rig.platform->register_function(f.name, [&gate](live::FunctionContext&) { gate.enter(); });
  }
  std::vector<std::future<live::InvocationReport>> warm;
  for (const auto& f : live_functions()) {
    for (std::size_t c = 0; c < client_count(); ++c) {
      warm.push_back(rig.platform->invoke(f.name, "warm"));
    }
  }
  gate.open_when_entered(warm.size());
  for (auto& w : warm) report.check(w.get().ok(), "http_vanilla: warm-up invocation failed");
  register_live_functions(*rig.platform, rig.io);
  rig.gateway = std::make_unique<live::HttpGateway>(*rig.platform);
  return now_s() - t0;
}

struct Phase {
  WindowedLatency latency{0, 1, kWindows};  // send -> reply, ms
  obs::QuantileHistogram* overhead_ms = nullptr;
  obs::QuantileHistogram* queue_ms = nullptr;
  obs::QuantileHistogram* exec_ms = nullptr;
  std::uint64_t attempted = 0, replies = 0, ok = 0, mismatches = 0;
  std::uint64_t served = 0, shed = 0;
  PlatformCounters before, after;
  /// Replies so far, for the per-window figures. fb-atomic-counter
  std::atomic<std::uint64_t> completed{0};
  /// Set once the last window is sampled; clients then finish.
  std::atomic<bool> stop{false};
  /// Per-window figures (kWindows equal slices of the phase); the
  /// reported CPU and throughput are their medians, which a transient
  /// host stall in one window cannot move.
  std::vector<double> window_cpu_us, window_ips;
};

/// What one client's closed loop observed.
struct ClientResult {
  WindowedLatency latency{0, 1, kWindows};
  std::uint64_t attempted = 0, replies = 0, ok = 0;
  std::string error;
};

void client_loop(std::uint16_t port, std::uint64_t seed, double start, double end,
                 Phase& phase, SpanLog* spans, std::uint64_t id_base, ClientResult& out) {
  out.latency = WindowedLatency(start, end - start, kWindows);
  Rng rng(seed);
  const auto& functions = live_functions();
  const double base_us = now_s() * 1e6 - trace_us();
  try {
    http::Client client(port);
    while (!phase.stop.load(std::memory_order_acquire)) {
      LiveRequest request = draw_request(rng);
      const double sent = now_s();
      ++out.attempted;
      const http::Response response = client.post(
          "/invoke/" + functions[request.function].name, std::move(request.payload),
          "application/octet-stream");
      const double replied = now_s();
      ++out.replies;
      if (response.status != 200) continue;
      const Json reply = Json::parse(response.body);
      const double queue = reply.at("queue_ms").as_double();
      const double exec = reply.at("exec_ms").as_double();
      const double total = reply.at("total_ms").as_double();
      if (!(queue >= 0 && queue <= total && exec <= total)) {
        out.error = "reply with queue_ms > total_ms";
        continue;
      }
      ++out.ok;
      phase.completed.fetch_add(1, std::memory_order_relaxed);
      const double latency = (replied - sent) * 1e3;
      out.latency.record(sent, latency);
      phase.overhead_ms->record(latency - total);
      phase.queue_ms->record(queue);
      phase.exec_ms->record(exec);
      if (spans != nullptr) {
        const std::uint64_t id = id_base + out.attempted;
        const double start = sent * 1e6 - base_us;
        const double inner = start + (latency - total) * 1e3 / 2;
        spans->add("http.request", start, latency * 1e3, (latency - total) * 1e3, id);
        spans->add("live.queue", inner, queue * 1e3, id, id);
        spans->add("live.exec", inner + queue * 1e3, exec * 1e3, id, id);
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

void run_phase(Rig& rig, std::uint64_t seed, double seconds, obs::MetricsRegistry& registry,
               const std::string& label, SpanLog* spans, Phase& phase, Report& report) {
  phase.overhead_ms = &registry.quantile(label + ".overhead_ms");
  phase.queue_ms = &registry.quantile(label + ".queue_ms");
  phase.exec_ms = &registry.quantile(label + ".exec_ms");
  const std::uint64_t served0 = rig.gateway->requests_served();
  const std::uint64_t shed0 = rig.gateway->invokes_shed();
  const std::uint64_t mismatches0 = rig.io.mismatches.load(std::memory_order_relaxed);
  phase.before = snapshot(*rig.platform, rig.io);
  const double start = now_s();
  const double end = start + seconds;
  phase.latency = WindowedLatency(start, seconds, kWindows);
  std::vector<ClientResult> results(client_count());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const std::uint64_t client_seed =
        ArgsHasher().add(label, std::to_string(seed)).add("client", std::to_string(c)).digest();
    clients.emplace_back(client_loop, rig.gateway->port(), client_seed, start, end,
                         std::ref(phase), spans, (c + 1) << 40, std::ref(results[c]));
  }
  // Window sampling from this (otherwise idle) thread: process CPU minus
  // the clients' CPU, per reply. The clients run until the last window
  // is sampled, so their CPU clocks are readable at every boundary.
  const auto clients_cpu = [&] {
    double sum = 0;
    for (auto& t : clients) {
      clockid_t clock{};
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        sum += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
      }
    }
    return sum;
  };
  double last_cpu = process_cpu_s(), last_clients = clients_cpu(), last_at = now_s();
  double last_done = static_cast<double>(phase.completed.load(std::memory_order_relaxed));
  for (int w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(end - seconds * (kWindows - w) / kWindows - now_s()));
    const double cpu = process_cpu_s(), client = clients_cpu(), at = now_s();
    const double done = static_cast<double>(phase.completed.load(std::memory_order_relaxed));
    phase.window_cpu_us.push_back((cpu - last_cpu - (client - last_clients)) * 1e6 /
                                  (done - last_done));
    phase.window_ips.push_back((done - last_done) / (at - last_at));
    last_cpu = cpu, last_clients = client, last_at = at, last_done = done;
  }
  phase.stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  phase.after = snapshot(*rig.platform, rig.io);
  for (const auto& r : results) {
    phase.latency.merge(r.latency);
    phase.attempted += r.attempted;
    phase.replies += r.replies;
    phase.ok += r.ok;
    report.check(r.error.empty(), "http_vanilla: client error: " + r.error);
  }
  phase.served = rig.gateway->requests_served() - served0;
  phase.shed = rig.gateway->invokes_shed() - shed0;
  phase.mismatches = rig.io.mismatches.load(std::memory_order_relaxed) - mismatches0;
  report.check(phase.replies == phase.attempted, "http_vanilla: a request got no reply");
  report.check(phase.served >= phase.replies, "http_vanilla: gateway served fewer requests");
  report.check(phase.mismatches == 0, "http_vanilla: an io object read back wrong data");
}

}  // namespace

Report run_http_vanilla(const Options& options) {
  Report report;
  obs::MetricsRegistry registry;
  registry.set_enabled(true);

  Rig rig;
  std::vector<double> setups{set_up(rig, report)};

  Phase warm;
  run_phase(rig, options.seed, std::min(2.0, 0.1 * options.seconds), registry, "warm",
            nullptr, warm, report);
  const double measured = options.trace ? options.seconds / 2 : options.seconds;
  Phase plain;
  run_phase(rig, options.seed, measured, registry, "plain", nullptr, plain, report);
  SpanLog spans;
  Phase traced;
  if (options.trace) {
    run_phase(rig, options.seed, measured, registry, "traced", &spans, traced, report);
  }
  const Phase& main = options.trace ? traced : plain;

  const double p50 = plain.latency.quantile(0.50), p99 = plain.latency.quantile(0.99);
  const std::uint64_t completed = plain.ok - plain.mismatches;
  note_windows(plain.window_cpu_us, plain.window_ips);
  note("clients=" + std::to_string(client_count()) + " p50_ms=" + std::to_string(p50) +
       " p99_ms=" + std::to_string(p99) + " (n=" + std::to_string(plain.latency.count()) +
       ", beyond p99=" + std::to_string(plain.latency.count() / 100) + ")");
  // Peak RSS is read before the repeated set-ups below: their heap
  // reuse across malloc arenas made it bimodal.
  const double peak_rss = peak_rss_mib();
  const double containers = static_cast<double>(rig.platform->containers_created());
  if (options.trace) fill_live_layers(report, traced.before, traced.after, traced.ok);
  for (int i = 1; i < kSetups; ++i) {
    rig.gateway.reset();
    rig.platform.reset();
    setups.push_back(set_up(rig, report));
  }
  rig.gateway.reset();
  rig.platform.reset();

  report.attempted = main.attempted;
  report.failed = main.attempted - (main.ok - main.mismatches);
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

  report.metrics["live.queue_ms_p50"] = traced.queue_ms->quantile(0.50);
  report.metrics["live.queue_ms_p99"] = traced.queue_ms->quantile(0.99);
  report.metrics["live.exec_ms_p50"] = traced.exec_ms->quantile(0.50);
  report.metrics["live.exec_ms_p99"] = traced.exec_ms->quantile(0.99);
  report.metrics["http.overhead_ms_p50"] = traced.overhead_ms->quantile(0.50);
  report.metrics["http.overhead_ms_p99"] = traced.overhead_ms->quantile(0.99);
  report.metrics["http.requests_served"] = static_cast<double>(traced.served);
  report.metrics["http.shed"] = static_cast<double>(traced.shed);
  note("tracing overhead: p50_ms " + std::to_string(p50) + " -> " +
       std::to_string(traced.latency.quantile(0.5)) + ", throughput_ips " +
       std::to_string(median(plain.window_ips)) + " -> " +
       std::to_string(median(traced.window_ips)) + ", cpu_us_per_inv " +
       std::to_string(median(plain.window_cpu_us)) + " -> " +
       std::to_string(median(traced.window_cpu_us)) + " (client-side span recording)");
  spans.finish(options.out_dir + "/trace_http_vanilla.json");
  return report;
}

}  // namespace perfbench
