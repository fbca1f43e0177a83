// bench_dispatch: sharded dispatch pipeline sweep over producer counts.
//
// Two measurements per producer-count cell:
//
//  1. invoke_path — pure admission throughput. The platform runs on a
//     pinned VirtualClock so dispatch windows never flush while the
//     producers hammer invoke(); what's timed is exactly the submit
//     path: handler lookup, span open, and the lock-free shard ring.
//     The output records hardware_concurrency: producers beyond the
//     core count serialize in the kernel, not on the ring.
//  2. e2e — submit-to-drain throughput and total_ms percentiles with a
//     real clock and a short batching window, so the whole pipeline
//     (flush loops, worker pool, containers) is on the path.
//
// Usage:
//   bench_dispatch [quick=1] [per_producer=N] [shards=8] [workers=2]
//                  [window_ms=2] [functions=8] [reps=3] [out=dispatch.json]
//                  [--trace t.json] [--metrics]
//
// Output: a human table plus optional JSON (out=) consumed by
// scripts/check_perf.py against bench/bench_baseline.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "common/json.hpp"
#include "live/live_platform.hpp"

namespace faasbatch {
namespace {

struct BenchSettings {
  std::size_t per_producer = 300;
  std::size_t e2e_per_producer = 100;
  std::size_t shards = 8;
  std::size_t workers = 2;
  std::size_t functions = 8;
  /// Repetitions per cell; the best run is reported (standard practice
  /// on a noisy shared box — the minimum time is the least-perturbed).
  std::size_t reps = 3;
  std::chrono::milliseconds window{2};
};

struct CellResult {
  std::string name;  // e.g. "invoke_path/sharded/p64"
  double seconds = 0.0;
  double throughput_ips = 0.0;  // invocations per second
  double p50_ms = 0.0;          // e2e only
  double p99_ms = 0.0;          // e2e only
  std::uint64_t invocations = 0;
};

double seconds_between(ClockTime start, ClockTime stop) {
  return std::chrono::duration<double>(stop - start).count();
}

/// "f0", "f1", ...: the functions every cell registers and invokes.
std::string function_name(std::size_t f) {
  // Appended, not "f" + std::to_string(f): GCC 12 reports a false
  // -Wrestrict on that inlined concatenation in Release builds.
  std::string name = "f";
  name += std::to_string(f);
  return name;
}

void register_noop_functions(live::LivePlatform& platform, std::size_t count) {
  for (std::size_t f = 0; f < count; ++f) {
    platform.register_function(function_name(f), [](live::FunctionContext&) {});
  }
}

/// Runs `producers` threads, each submitting `per_producer` invocations
/// round-robin over the registered functions, gated by a latch so they
/// contend for real. Returns (submit seconds, completed reports).
struct RunOutput {
  double submit_seconds = 0.0;
  double drain_seconds = 0.0;
  std::vector<live::InvocationReport> reports;
};

RunOutput run_cell(live::LivePlatform& platform, std::size_t producers,
                   std::size_t per_producer, std::size_t functions) {
  std::vector<std::vector<std::future<live::InvocationReport>>> futures(producers);
  // Each producer stamps its own start/stop; the cell's elapsed time is
  // max(stop) - min(start). Timing from the main thread would be wrong
  // on few-core boxes: after the latch releases, main may be scheduled
  // last, long after producers already did real work.
  std::vector<ClockTime> starts(producers), stops(producers);
  // Precomputed so the timed loop measures invoke(), not to_string().
  std::vector<std::string> names;
  names.reserve(functions);
  for (std::size_t f = 0; f < functions; ++f) {
    names.push_back(function_name(f));
  }
  std::latch gate(producers + 1);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    futures[p].reserve(per_producer);
    threads.emplace_back([&, p] {
      gate.arrive_and_wait();
      starts[p] = Clock::system().now();
      for (std::size_t i = 0; i < per_producer; ++i) {
        futures[p].push_back(platform.invoke(names[(p + i) % functions]));
      }
      stops[p] = Clock::system().now();
    });
  }

  RunOutput out;
  gate.arrive_and_wait();
  for (auto& t : threads) t.join();
  const ClockTime submit_start = *std::min_element(starts.begin(), starts.end());
  const ClockTime submit_stop = *std::max_element(stops.begin(), stops.end());
  out.submit_seconds = seconds_between(submit_start, submit_stop);

  platform.shutdown();  // flush pending windows immediately
  platform.drain();
  out.drain_seconds = seconds_between(submit_start, Clock::system().now());

  out.reports.reserve(producers * per_producer);
  for (auto& lane : futures) {
    for (auto& f : lane) out.reports.push_back(f.get());
  }
  return out;
}

/// Admission-path cell: windows never flush (pinned VirtualClock), so
/// the timed region is invoke() alone. Rings are sized to hold the whole
/// run so no push falls onto the overflow mutex path.
CellResult bench_invoke_path(std::size_t producers, const BenchSettings& s) {
  VirtualClock clock;  // never advanced: queues only fill
  // Constant total work across the sweep: low-producer cells otherwise
  // finish in under a microsecond and report timer noise.
  const std::size_t per_producer = s.per_producer * std::max<std::size_t>(
                                       std::size_t{1}, 64 / producers);
  const std::size_t total = producers * per_producer;

  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.window = std::chrono::milliseconds(50);
  options.clock = &clock;
  options.shards = s.shards;
  options.dispatch_workers = s.workers;
  options.shard_ring_capacity = total;  // rounded up to a power of two
  live::LivePlatform platform(options);
  register_noop_functions(platform, s.functions);

  RunOutput run = run_cell(platform, producers, per_producer, s.functions);

  CellResult cell;
  cell.name = "invoke_path/sharded/p" + std::to_string(producers);
  cell.invocations = total;
  cell.seconds = run.submit_seconds;
  cell.throughput_ips = static_cast<double>(total) / run.submit_seconds;
  for (const auto& r : run.reports) {
    if (!r.ok()) {
      std::cerr << "warning: non-ok invocation in invoke_path cell\n";
      break;
    }
  }
  return cell;
}

/// Whole-pipeline cell: real clock, short window, percentiles from the
/// completed reports.
CellResult bench_e2e(std::size_t producers, const BenchSettings& s) {
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.window = s.window;
  options.shards = s.shards;
  options.dispatch_workers = s.workers;
  live::LivePlatform platform(options);
  register_noop_functions(platform, s.functions);

  RunOutput run = run_cell(platform, producers, s.e2e_per_producer, s.functions);

  std::vector<double> totals;
  totals.reserve(run.reports.size());
  for (const auto& r : run.reports) {
    if (r.ok()) totals.push_back(r.total_ms);
  }
  std::sort(totals.begin(), totals.end());
  auto quantile = [&](double q) {
    if (totals.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(totals.size() - 1));
    return totals[idx];
  };

  CellResult cell;
  cell.name = "e2e/sharded/p" + std::to_string(producers);
  cell.invocations = producers * s.e2e_per_producer;
  cell.seconds = run.drain_seconds;
  cell.throughput_ips = static_cast<double>(totals.size()) / run.drain_seconds;
  cell.p50_ms = quantile(0.50);
  cell.p99_ms = quantile(0.99);
  return cell;
}

template <typename Fn>
CellResult best_of(std::size_t reps, Fn&& fn) {
  CellResult best = fn();
  for (std::size_t r = 1; r < reps; ++r) {
    CellResult c = fn();
    if (c.throughput_ips > best.throughput_ips) best = c;
  }
  return best;
}

void print_cell(const CellResult& cell) {
  std::cout << "  " << std::left << std::setw(28) << cell.name << std::right
            << std::setw(12) << std::fixed << std::setprecision(0)
            << cell.throughput_ips << " inv/s";
  if (cell.p99_ms > 0.0) {
    std::cout << "   p50 " << std::setprecision(2) << cell.p50_ms << " ms"
              << "   p99 " << cell.p99_ms << " ms";
  }
  std::cout << "\n";
}

Json cell_to_json(const CellResult& cell) {
  JsonObject o;
  o["name"] = Json{cell.name};
  o["invocations"] = Json{static_cast<std::int64_t>(cell.invocations)};
  o["seconds"] = Json{cell.seconds};
  o["throughput_ips"] = Json{cell.throughput_ips};
  if (cell.p99_ms > 0.0) {
    o["p50_ms"] = Json{cell.p50_ms};
    o["p99_ms"] = Json{cell.p99_ms};
  }
  return Json{std::move(o)};
}

}  // namespace
}  // namespace faasbatch

int main(int argc, char** argv) {
  using namespace faasbatch;
  benchcommon::ObsScope obs(argc, argv);
  const Config config = Config::from_args(argc, argv);

  const bool quick = config.get_bool("quick", false);
  BenchSettings s;
  s.per_producer = static_cast<std::size_t>(
      config.get_int("per_producer", quick ? 150 : 300));
  s.e2e_per_producer = static_cast<std::size_t>(
      config.get_int("e2e_per_producer", quick ? 25 : 100));
  s.shards = static_cast<std::size_t>(config.get_int("shards", 8));
  s.workers = static_cast<std::size_t>(config.get_int("workers", 2));
  s.functions = static_cast<std::size_t>(config.get_int("functions", 8));
  s.window = std::chrono::milliseconds(config.get_int("window_ms", 2));
  s.reps = static_cast<std::size_t>(config.get_int("reps", 3));

  const std::vector<std::size_t> sweep = quick
                                             ? std::vector<std::size_t>{64}
                                             : std::vector<std::size_t>{1, 8, 64};

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "# bench_dispatch — sharded pipeline (N=" << s.shards
            << ", workers=" << s.workers << ", " << s.functions
            << " functions, " << cores << " hardware threads)\n\n";

  std::vector<CellResult> cells;
  std::cout << "## invoke-path throughput (windows pinned; admission only)\n";
  for (const auto producers : sweep) {
    cells.push_back(best_of(s.reps, [&] { return bench_invoke_path(producers, s); }));
    print_cell(cells.back());
  }

  std::cout << "\n## end-to-end (real clock, " << s.window.count()
            << " ms window, submit -> drain)\n";
  for (const auto producers : sweep) {
    cells.push_back(best_of(s.reps, [&] { return bench_e2e(producers, s); }));
    print_cell(cells.back());
  }

  if (const auto path = config.raw("out")) {
    JsonObject root;
    root["quick"] = Json{quick};
    root["hardware_concurrency"] = Json{static_cast<std::int64_t>(cores)};
    root["shards"] = Json{static_cast<std::int64_t>(s.shards)};
    root["workers"] = Json{static_cast<std::int64_t>(s.workers)};
    JsonArray bench_list;
    for (const auto& c : cells) bench_list.push_back(cell_to_json(c));
    root["benchmarks"] = Json{std::move(bench_list)};
    std::ofstream out(*path);
    out << Json{std::move(root)}.dump() << "\n";
    std::cout << "(wrote dispatch data to " << *path << ")\n";
  }
  return 0;
}
