// Tests for the observability layer: metrics registry semantics,
// trace recorder ordering and JSON well-formedness, virtual-clock
// timestamps in live spans, and the guard that tracing/metrics cannot
// perturb simulation results (the deterministic-differential contract).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "eval/experiment.hpp"
#include "live/functions.hpp"
#include "live/live_platform.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "trace/workload.hpp"

namespace faasbatch {
namespace {

/// Restores the process-global recorders to their default (disabled,
/// empty) state on scope exit so tests cannot leak into each other.
struct GlobalObsGuard {
  ~GlobalObsGuard() {
    obs::tracer().set_enabled(false);
    obs::tracer().drain();
    obs::metrics().set_enabled(false);
    obs::metrics().reset();
  }
};

trace::Workload small_workload(std::uint64_t seed = 7) {
  trace::WorkloadSpec spec;
  spec.kind = trace::FunctionKind::kCpuIntensive;
  spec.invocations = 40;
  spec.num_functions = 4;
  spec.seed = seed;
  return trace::synthesize_workload(spec);
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, DisabledInstrumentsRecordNothing) {
  obs::MetricsRegistry registry;  // disabled by default
  obs::Counter& counter = registry.counter("c_total");
  obs::Gauge& gauge = registry.gauge("g");
  obs::QuantileHistogram& histogram = registry.quantile("h");
  counter.inc();
  gauge.set(5.0);
  histogram.record(1.5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
}

TEST(MetricsRegistryTest, CounterConcurrentIncrements) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Counter& counter = registry.counter("c_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.counter("fb_cold_starts_total").inc(3);
  registry.gauge("fb_live_containers").set(2.0);
  obs::QuantileHistogram& h = registry.quantile("fb_batch_size");
  h.record(1.0);
  h.record(2.0);
  h.record(5.0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE fb_cold_starts_total counter"), std::string::npos);
  EXPECT_NE(text.find("fb_cold_starts_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fb_live_containers gauge"), std::string::npos);
  // A distribution is one summary: four quantile lines, _sum, _count,
  // and no cumulative buckets.
  EXPECT_NE(text.find("# TYPE fb_batch_size summary\n"), std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99", "0.999"}) {
    EXPECT_NE(text.find(std::string("fb_batch_size{quantile=\"") + q + "\"} "),
              std::string::npos)
        << q;
  }
  EXPECT_NE(text.find("fb_batch_size_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("fb_batch_size_sum 8\n"), std::string::npos);
  EXPECT_EQ(text.find("_bucket"), std::string::npos);
  EXPECT_EQ(text.find(" histogram\n"), std::string::npos);
}

TEST(MetricsRegistryTest, LabelledNamesSpliceLeIntoLabelSet) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::QuantileHistogram& h =
      registry.quantile("fb_exec_ms{scheduler=\"faasbatch\"}");
  h.record(5.0);
  const std::string text = registry.prometheus_text();
  // The quantile label goes after the existing set; _sum and _count keep
  // the set as it is.
  EXPECT_NE(text.find("fb_exec_ms{scheduler=\"faasbatch\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("fb_exec_ms_sum{scheduler=\"faasbatch\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fb_exec_ms_count{scheduler=\"faasbatch\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fb_exec_ms summary"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotIsWellFormedJson) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.counter("c_total").inc(2);
  registry.gauge("g").set(1.5);
  registry.quantile("h").record(0.5);
  const Json round_trip = Json::parse(registry.snapshot().dump());
  EXPECT_EQ(round_trip.at("counters").at("c_total").as_int(), 2);
  EXPECT_EQ(round_trip.at("gauges").at("g").as_double(), 1.5);
  EXPECT_EQ(round_trip.at("quantiles").at("h").at("count").as_int(), 1);
  EXPECT_EQ(round_trip.at("quantiles").at("h").at("sum").as_double(), 0.5);
  EXPECT_FALSE(round_trip.contains("histograms"));
}

// --- TraceRecorder ---

TEST(TraceRecorderTest, DisabledEmitsNothing) {
  obs::TraceRecorder recorder;
  recorder.complete("cat", "span", 10.0, 5.0, 1);
  recorder.instant("cat", "mark", 11.0, 1);
  recorder.counter("queue_depth", 12.0, 3.0);
  EXPECT_EQ(recorder.begin_process("p"), 0u);
  EXPECT_EQ(recorder.pending(), 0u);
  EXPECT_TRUE(recorder.drain().empty());
}

TEST(TraceRecorderTest, DrainOrdersByTimestampWithMetadataFirst) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.complete("cat", "late", 300.0, 10.0, 1);
  recorder.instant("cat", "early", 100.0, 1);
  recorder.begin_process("proc");  // metadata, emitted last
  recorder.instant("cat", "middle", 200.0, 1);
  const std::vector<obs::TraceEvent> events = recorder.drain();
  ASSERT_GE(events.size(), 5u);  // process_name + platform thread + 3
  EXPECT_EQ(events.front().phase, 'M');
  std::vector<std::string> timed;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'M') timed.push_back(event.name);
  }
  ASSERT_EQ(timed.size(), 3u);
  EXPECT_EQ(timed[0], "early");
  EXPECT_EQ(timed[1], "middle");
  EXPECT_EQ(timed[2], "late");
  EXPECT_EQ(recorder.pending(), 0u);  // drain clears
}

TEST(TraceRecorderTest, ChromeJsonRoundTrip) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  const std::uint32_t pid = recorder.begin_process("sim:faasbatch");
  ASSERT_NE(pid, 0u);
  recorder.name_thread(7, "inv 7");
  recorder.complete("invocation", "exec", 100.0, 50.0, 7,
                    {{"function", Json(std::int64_t{3})}});
  recorder.instant("mux", "mux_hit", 120.0, 7);
  recorder.counter("containers", 130.0, 2.0);
  std::ostringstream os;
  recorder.write_chrome_trace(os);
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const JsonArray& events = doc.at("traceEvents").as_array();
  bool saw_exec = false;
  for (const Json& event : events) {
    if (event.at("name").as_string() != "exec") continue;
    saw_exec = true;
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_DOUBLE_EQ(event.at("ts").as_double(), 100.0);
    EXPECT_DOUBLE_EQ(event.at("dur").as_double(), 50.0);
    EXPECT_EQ(event.at("pid").as_int(), static_cast<std::int64_t>(pid));
    EXPECT_EQ(event.at("tid").as_int(), 7);
    EXPECT_EQ(event.at("args").at("function").as_int(), 3);
  }
  EXPECT_TRUE(saw_exec);
}

TEST(TraceRecorderTest, SpanPairsSurviveDrainAndSortStably) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("live", "request", 100.0, 42,
                      {{"function", Json(std::string("resize"))}});
  recorder.end_span("live", "request", 150.0, 42);
  // A zero-length span at the same timestamp as the enclosing end: the
  // seq tie-break must preserve emission order, keeping pairs nested.
  recorder.begin_span("live", "inner", 150.0, 42);
  recorder.end_span("live", "inner", 150.0, 42);
  const std::vector<obs::TraceEvent> events = recorder.drain();
  std::vector<char> phases;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'M') phases.push_back(event.phase);
  }
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], 'B');
  EXPECT_EQ(phases[1], 'E');  // request closes before inner opens at ts=150
  EXPECT_EQ(phases[2], 'B');
  EXPECT_EQ(phases[3], 'E');
  EXPECT_EQ(events.front().args.empty(), false);  // 'B' carries args
}

TEST(TraceRecorderTest, SpanJsonCarriesBeginEndPhases) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("live", "request", 10.0, 3);
  recorder.end_span("live", "request", 20.0, 3);
  std::ostringstream os;
  recorder.write_chrome_trace(os);
  const Json doc = Json::parse(os.str());
  std::vector<std::string> phases;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "request") {
      phases.push_back(event.at("ph").as_string());
      EXPECT_FALSE(event.contains("dur"));  // duration belongs to 'X' only
    }
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"B", "E"}));
}

TEST(TraceRecorderTest, ConcurrentEmittersLoseNoEvents) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.instant("cat", "tick", static_cast<double>(i),
                         static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::size_t ticks = 0;
  for (const obs::TraceEvent& event : recorder.drain()) {
    if (event.name == "tick") ++ticks;
  }
  EXPECT_EQ(ticks, static_cast<std::size_t>(kThreads) * kPerThread);
}

// --- Simulation integration ---

eval::ExperimentSpec sim_spec(schedulers::SchedulerKind kind) {
  eval::ExperimentSpec spec;
  spec.scheduler = kind;
  spec.scheduler_options.dispatch_window = from_millis(50.0);
  return spec;
}

TEST(ObsSimulationTest, EverySchedulerEmitsCompleteSpanChains) {
  GlobalObsGuard guard;
  const trace::Workload workload = small_workload();
  for (const auto kind :
       {schedulers::SchedulerKind::kVanilla, schedulers::SchedulerKind::kKraken,
        schedulers::SchedulerKind::kSfs, schedulers::SchedulerKind::kFaasBatch}) {
    obs::tracer().drain();
    obs::tracer().set_enabled(true);
    (void)eval::run_experiment(sim_spec(kind), workload);
    obs::tracer().set_enabled(false);
    std::size_t invocation_spans = 0;
    std::size_t schedule_spans = 0;
    std::size_t exec_spans = 0;
    double max_ts = 0.0;
    for (const obs::TraceEvent& event : obs::tracer().drain()) {
      if (event.name == "invocation") ++invocation_spans;
      if (event.name == "schedule") ++schedule_spans;
      if (event.name == "exec") {
        ++exec_spans;
        max_ts = std::max(max_ts, event.ts_us + event.dur_us);
      }
    }
    // One full arrival -> dispatch -> exec chain per invocation; span
    // timestamps are virtual time (µs), bounded by the sim horizon.
    EXPECT_EQ(invocation_spans, workload.events.size()) << "scheduler " << (int)kind;
    EXPECT_EQ(schedule_spans, workload.events.size());
    EXPECT_EQ(exec_spans, workload.events.size());
    EXPECT_GT(max_ts, 0.0);
  }
}

TEST(ObsSimulationTest, ObservabilityDoesNotPerturbResults) {
  GlobalObsGuard guard;
  const trace::Workload workload = small_workload(11);
  const eval::ExperimentSpec spec = sim_spec(schedulers::SchedulerKind::kFaasBatch);

  obs::tracer().set_enabled(false);
  obs::metrics().set_enabled(false);
  const eval::ExperimentResult off = eval::run_experiment(spec, workload);

  obs::tracer().set_enabled(true);
  obs::metrics().set_enabled(true);
  const eval::ExperimentResult on = eval::run_experiment(spec, workload);

  // Tracing and metrics must be pure observers: virtual time, placement,
  // and resource outcomes are bit-identical with them on or off.
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.containers_provisioned, on.containers_provisioned);
  EXPECT_EQ(off.cold_starts, on.cold_starts);
  EXPECT_EQ(off.warm_hits, on.warm_hits);
  ASSERT_EQ(off.records.size(), on.records.size());
  for (std::size_t i = 0; i < off.records.size(); ++i) {
    EXPECT_EQ(off.records[i].dispatched, on.records[i].dispatched);
    EXPECT_EQ(off.records[i].exec_start, on.records[i].exec_start);
    EXPECT_EQ(off.records[i].exec_end, on.records[i].exec_end);
  }
}

TEST(ObsSimulationTest, MetricsCoverColdStartsAndBatchSizes) {
  GlobalObsGuard guard;
  obs::metrics().reset();
  obs::metrics().set_enabled(true);
  const trace::Workload workload = small_workload();
  const eval::ExperimentResult result =
      eval::run_experiment(sim_spec(schedulers::SchedulerKind::kFaasBatch), workload);
  obs::metrics().set_enabled(false);
  EXPECT_EQ(obs::metrics().counter("fb_cold_starts_total").value(),
            result.cold_starts);
  EXPECT_EQ(obs::metrics().counter("fb_invocations_total").value(),
            workload.events.size());
  const std::uint64_t groups =
      obs::metrics().counter("fb_faasbatch_groups_total").value();
  EXPECT_GT(groups, 0u);
  // Each distribution sample is recorded once: one batch-size sample per
  // dispatched group, covering every invocation exactly once, and one
  // response-latency sample per completed invocation.
  ASSERT_EQ(result.completed, workload.events.size());  // fault-free run
  const obs::QuantileHistogram& batch_size = obs::metrics().quantile("fb_batch_size");
  EXPECT_EQ(batch_size.count(), groups);
  EXPECT_EQ(batch_size.sum(), static_cast<double>(workload.events.size()));
  EXPECT_EQ(obs::metrics().quantile("fb_response_latency_ms").count(),
            result.completed);
  EXPECT_EQ(obs::metrics().quantile("fb_cold_start_ms").count(), result.cold_starts);
  const std::string text = obs::metrics().prometheus_text();
  EXPECT_NE(text.find("# TYPE fb_batch_size summary"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fb_response_latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fb_cold_start_ms summary"), std::string::npos);
}

// --- Live platform: cold-start and response-latency summaries ---

TEST(ObsLiveTest, ColdStartAndResponseLatencyRecordedOncePerEvent) {
  // The live platform records the simulator's two distributions under
  // the same names: one fb_cold_start_ms sample per container created
  // and one fb_response_latency_ms sample per completed invocation.
  GlobalObsGuard guard;
  obs::metrics().reset();
  obs::metrics().set_enabled(true);
  constexpr std::uint64_t kInvocations = 12;
  std::uint64_t containers = 0;
  {
    live::LivePlatformOptions options;
    options.policy = live::LivePolicy::kVanilla;  // immediate dispatch
    options.container.threads = 1;
    options.container.cold_start_work_ms = 0.5;
    live::LivePlatform platform(options);
    platform.register_function("f", [](live::FunctionContext&) {});
    std::vector<std::future<live::InvocationReport>> futures;
    for (std::uint64_t i = 0; i < kInvocations; ++i) {
      futures.push_back(platform.invoke("f"));
    }
    for (auto& future : futures) EXPECT_TRUE(future.get().ok());
    platform.drain();
    containers = platform.containers_created();
  }
  obs::metrics().set_enabled(false);
  EXPECT_GT(containers, 0u);
  EXPECT_EQ(obs::metrics().quantile("fb_cold_start_ms").count(), containers);
  EXPECT_EQ(obs::metrics().quantile("fb_response_latency_ms").count(), kInvocations);
  const std::string text = obs::metrics().prometheus_text();
  EXPECT_NE(text.find("# TYPE fb_cold_start_ms summary"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fb_response_latency_ms summary"), std::string::npos);
  // Built by appending: GCC 12 reports a false -Wrestrict on an inlined
  // "literal" + std::to_string(n) in Release builds.
  const auto count_line = [](const std::string& name, std::uint64_t count) {
    std::string line = "\n";
    line += name;
    line += "_count ";
    line += std::to_string(count);
    line += "\n";
    return line;
  };
  EXPECT_NE(text.find(count_line("fb_cold_start_ms", containers)), std::string::npos);
  EXPECT_NE(text.find(count_line("fb_response_latency_ms", kInvocations)),
            std::string::npos);
}

// --- Live platform: spans carry the injected clock's time ---

TEST(ObsLiveTest, SpansUseVirtualClockTimestamps) {
  GlobalObsGuard guard;
  obs::tracer().drain();
  obs::tracer().set_enabled(true);

  VirtualClock clock;
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kVanilla;  // immediate dispatch
  options.clock = &clock;
  options.container.threads = 1;
  options.container.cold_start_work_ms = 0.5;

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<bool> started{false};
  {
    live::LivePlatform platform(options);
    platform.register_function("gated", [&started, open](live::FunctionContext&) {
      started = true;
      open.wait();
    });
    auto future = platform.invoke("gated");
    while (!started.load()) {
      // fb-lint-allow(raw-clock): real pacing on a cross-thread flag.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Execution began at virtual t=0; advance virtual time while the
    // handler is pinned so the exec span's duration is exactly 5 ms.
    clock.advance(std::chrono::milliseconds(5));
    gate.set_value();
    const live::InvocationReport report = future.get();
    EXPECT_DOUBLE_EQ(report.exec_ms, 5.0);
  }
  obs::tracer().set_enabled(false);

  bool saw_exec = false;
  bool saw_arrival = false;
  for (const obs::TraceEvent& event : obs::tracer().drain()) {
    if (event.name == "arrival") {
      saw_arrival = true;
      EXPECT_DOUBLE_EQ(event.ts_us, 0.0);  // submitted at virtual zero
    }
    if (event.name == "exec") {
      saw_exec = true;
      EXPECT_DOUBLE_EQ(event.ts_us, 0.0);
      EXPECT_DOUBLE_EQ(event.dur_us, 5000.0);  // virtual, not wall time
    }
  }
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_exec);
}

}  // namespace
}  // namespace faasbatch
