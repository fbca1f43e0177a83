// bench_obs: throughput of the diagnostics-layer primitives.
//
// Measures events/sec for the hot-path obs instruments in both states:
//
//   obs/flight_record/disabled   FlightRecorder::record, recorder off
//   obs/flight_record/enabled    six relaxed stores into the TLS ring
//   obs/quantile_record/disabled QuantileHistogram::record, registry off
//   obs/quantile_record/enabled  frexp bucket + two relaxed RMWs + CAS sum
//   obs/heartbeat_beat           HeartbeatSource::beat (unconditional)
//   obs/quantile_summary         full 402-bucket walk (scrape path)
//   obs/watchdog_scan/s16        scan() over 16 registered sources
//   obs/flight_dump              dump() of a full 4-thread recorder
//
// The disabled cells pin the "one relaxed load + branch" contract from
// the recorder side (scripts/check_obs_overhead.py pins the same from
// google-benchmark timings); the enabled cells and the scrape-path cells
// get absolute floors in bench/bench_baseline.json via check_perf.py
// --prefix obs/ so a structural regression (a lock on the record path,
// an allocation per event) fails `ctest -L perf`.
//
// Usage:
//   bench_obs [quick=1] [events=N] [reps=3] [out=obs.json]
//
// Output: a human table plus optional JSON (out=) consumed by
// scripts/check_perf.py against bench/bench_baseline.json.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/quantile_histogram.hpp"
#include "obs/watchdog.hpp"

namespace faasbatch {
namespace {

struct CellResult {
  std::string name;
  double seconds = 0.0;
  double throughput_ips = 0.0;  // operations per second
  std::uint64_t operations = 0;
};

double seconds_between(ClockTime start, ClockTime stop) {
  return std::chrono::duration<double>(stop - start).count();
}

/// Times `op` over `n` iterations and reports ops/sec.
template <typename Fn>
CellResult time_cell(const std::string& name, std::uint64_t n, Fn&& op) {
  const ClockTime start = Clock::system().now();
  for (std::uint64_t i = 0; i < n; ++i) op(i);
  const ClockTime stop = Clock::system().now();
  CellResult cell;
  cell.name = name;
  cell.operations = n;
  cell.seconds = seconds_between(start, stop);
  if (cell.seconds <= 0.0) cell.seconds = 1e-9;
  cell.throughput_ips = static_cast<double>(n) / cell.seconds;
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

CellResult bench_flight_record(bool enabled, std::uint64_t n) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(enabled);
  return time_cell(
      enabled ? "obs/flight_record/enabled" : "obs/flight_record/disabled", n,
      [&](std::uint64_t i) {
        recorder.record(obs::FlightEventKind::kEnqueue,
                        static_cast<std::uint32_t>(i & 7),
                        static_cast<std::int64_t>(i), i, i ^ 0x9e37, i);
      });
}

CellResult bench_quantile_record(bool enabled, std::uint64_t n) {
  obs::MetricsRegistry registry;
  registry.set_enabled(enabled);
  obs::QuantileHistogram& quantiles = registry.quantile("bench_ms_quantiles");
  double value = 0.125;
  return time_cell(
      enabled ? "obs/quantile_record/enabled" : "obs/quantile_record/disabled",
      n, [&](std::uint64_t) {
        quantiles.record(value);
        value += 0.37;
        if (value > 4000.0) value = 0.125;
      });
}

CellResult bench_heartbeat(std::uint64_t n) {
  obs::Watchdog watchdog;
  auto source = watchdog.register_source("bench", nullptr, 0);
  CellResult cell = time_cell("obs/heartbeat_beat", n, [&](std::uint64_t i) {
    source->beat(static_cast<std::int64_t>(i));
  });
  watchdog.unregister(source);
  return cell;
}

CellResult bench_quantile_summary(std::uint64_t n) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::QuantileHistogram& quantiles = registry.quantile("bench_ms_quantiles");
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    quantiles.record(0.05 * static_cast<double>(i % 10'000));
  }
  double sink = 0.0;
  CellResult cell = time_cell("obs/quantile_summary", n, [&](std::uint64_t) {
    sink += quantiles.summary().p99;
  });
  if (sink < 0.0) std::cerr << "";  // keep the summaries observable
  return cell;
}

CellResult bench_watchdog_scan(std::uint64_t n) {
  obs::Watchdog watchdog;
  std::vector<std::shared_ptr<obs::HeartbeatSource>> sources;
  for (int i = 0; i < 16; ++i) {
    // Appended, not "s" + std::to_string(i): GCC 12 reports a false
    // -Wrestrict on that inlined concatenation in Release builds.
    std::string name = "s";
    name += std::to_string(i);
    sources.push_back(watchdog.register_source(name, [] { return 1.0; }, 0));
    sources.back()->beat(1);
  }
  std::uint64_t healthy = 0;
  CellResult cell = time_cell("obs/watchdog_scan/s16", n, [&](std::uint64_t i) {
    healthy += watchdog.scan(static_cast<std::int64_t>(i)).healthy ? 1 : 0;
  });
  if (healthy == 0) std::cerr << "";  // keep the scans observable
  for (auto& source : sources) watchdog.unregister(source);
  return cell;
}

CellResult bench_flight_dump(std::uint64_t n) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  // Fill rings from four threads so the dump walks a realistic recorder.
  std::latch gate(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, &gate, t] {
      gate.arrive_and_wait();
      for (std::uint64_t i = 0; i < obs::FlightRecorder::kRingCapacity * 2; ++i) {
        recorder.record(obs::FlightEventKind::kExec,
                        static_cast<std::uint32_t>(t), static_cast<std::int64_t>(i),
                        i, i, i);
      }
    });
  }
  gate.arrive_and_wait();
  for (auto& thread : threads) thread.join();
  std::size_t sink = 0;
  CellResult cell = time_cell("obs/flight_dump", n, [&](std::uint64_t) {
    sink += recorder.dump().dump().size();
  });
  if (sink == 0) std::cerr << "";  // keep the dumps observable
  return cell;
}

void print_cell(const CellResult& cell) {
  std::cout << "  " << std::left << std::setw(30) << cell.name << std::right
            << std::setw(14) << std::fixed << std::setprecision(0)
            << cell.throughput_ips << " ops/s   ("
            << std::setprecision(1) << 1e9 / cell.throughput_ips << " ns/op)\n";
}

Json cell_to_json(const CellResult& cell) {
  JsonObject o;
  o["name"] = Json{cell.name};
  o["operations"] = Json{static_cast<std::int64_t>(cell.operations)};
  o["seconds"] = Json{cell.seconds};
  o["throughput_ips"] = Json{cell.throughput_ips};
  return Json{std::move(o)};
}

}  // namespace
}  // namespace faasbatch

int main(int argc, char** argv) {
  using namespace faasbatch;
  const Config config = Config::from_args(argc, argv);

  const bool quick = config.get_bool("quick", false);
  const auto events = static_cast<std::uint64_t>(
      config.get_int("events", quick ? 2'000'000 : 10'000'000));
  const auto reps = static_cast<std::size_t>(config.get_int("reps", 3));
  // Scrape-path operations are thousands of times slower than record
  // operations; scale their counts so every cell runs a comparable time.
  const std::uint64_t scrapes = std::max<std::uint64_t>(events / 2'000, 100);
  const std::uint64_t dumps = std::max<std::uint64_t>(events / 20'000, 20);

  std::cout << "# bench_obs — diagnostics-layer primitive throughput ("
            << events << " events/cell, best of " << reps << ")\n\n";

  std::vector<CellResult> cells;
  auto run = [&](auto&& fn) {
    cells.push_back(best_of(reps, fn));
    print_cell(cells.back());
  };
  run([&] { return bench_flight_record(false, events); });
  run([&] { return bench_flight_record(true, events); });
  run([&] { return bench_quantile_record(false, events); });
  run([&] { return bench_quantile_record(true, events); });
  run([&] { return bench_heartbeat(events); });
  run([&] { return bench_quantile_summary(scrapes); });
  run([&] { return bench_watchdog_scan(scrapes); });
  run([&] { return bench_flight_dump(dumps); });

  if (const auto path = config.raw("out")) {
    JsonObject root;
    root["quick"] = Json{quick};
    root["hardware_concurrency"] = Json{
        static_cast<std::int64_t>(std::thread::hardware_concurrency())};
    JsonArray bench_list;
    for (const auto& c : cells) bench_list.push_back(cell_to_json(c));
    root["benchmarks"] = Json{std::move(bench_list)};
    std::ofstream out(*path);
    out << Json{std::move(root)}.dump() << "\n";
    std::cout << "(wrote obs bench data to " << *path << ")\n";
  }
  return 0;
}
