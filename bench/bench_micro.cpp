// Micro-benchmarks (google-benchmark) for the building blocks: event
// queue, simulator, CPU model, invoke mapper, resource multiplexer, RNG,
// and the live fib workload. These are ablation/overhead numbers, not
// paper figures: they quantify that the simulation substrate is cheap
// enough that scheduler effects, not kernel overhead, dominate results.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/invoke_mapper.hpp"
#include "core/resource_multiplexer.hpp"
#include "eval/experiment.hpp"
#include "live/functions.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sim/cpu.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/workload.hpp"

namespace {

using namespace faasbatch;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(static_cast<SimTime>((i * 7919) % 100000), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 1000) sim.schedule_after(1, chain);
    };
    sim.schedule_at(0, chain);
    sim.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_CpuSchedulerChurn(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::CpuScheduler cpu(sim, 32.0);
    for (int i = 0; i < tasks; ++i) {
      cpu.submit(0.01 + 0.001 * i, 1.0, sim::CpuScheduler::kNoGroup, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(cpu.busy_core_seconds());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * tasks);
}
BENCHMARK(BM_CpuSchedulerChurn)->Arg(32)->Arg(256);

void BM_InvokeMapperAddFlush(benchmark::State& state) {
  const auto n = static_cast<InvocationId>(state.range(0));
  core::InvokeMapper mapper(200 * kMillisecond);
  for (auto _ : state) {
    for (InvocationId i = 0; i < n; ++i) {
      mapper.add(static_cast<SimTime>(i), i, static_cast<FunctionId>(i % 16));
    }
    benchmark::DoNotOptimize(mapper.flush().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InvokeMapperAddFlush)->Arg(100)->Arg(1000);

void BM_MultiplexerHitPath(benchmark::State& state) {
  core::ResourceMultiplexer mux;
  core::ResourceMultiplexer::ResourcePtr instance;
  mux.acquire("client", 1, nullptr, &instance);
  mux.complete("client", 1, std::make_shared<int>(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mux.acquire("client", 1, nullptr, &instance));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiplexerHitPath);

void BM_ArgsHashing(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ArgsHasher()
                                 .add("service", "s3")
                                 .add("account", "benchmark-account")
                                 .add("region", "us-east-1")
                                 .digest());
  }
}
BENCHMARK(BM_ArgsHashing);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_WorkloadSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    trace::WorkloadSpec spec;
    spec.invocations = 800;
    spec.seed = 42;
    benchmark::DoNotOptimize(trace::synthesize_workload(spec).events.size());
  }
}
BENCHMARK(BM_WorkloadSynthesis);

void BM_FullExperimentFaasBatch(benchmark::State& state) {
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 200;
  workload_spec.seed = 42;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);
  for (auto _ : state) {
    eval::ExperimentSpec spec;
    spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
    benchmark::DoNotOptimize(eval::run_experiment(spec, workload).completed);
  }
}
BENCHMARK(BM_FullExperimentFaasBatch)->Unit(benchmark::kMillisecond);

void BM_LiveFib(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(live::fib(n));
}
BENCHMARK(BM_LiveFib)->Arg(20)->Arg(24);

// --- Observability overhead guards (scripts/check_obs_overhead.py) ---
//
// The disabled-path benches pin the contract that instrumentation left
// in hot paths costs one relaxed load + branch; the traced experiment
// bench bounds the enabled-path cost against BM_FullExperimentFaasBatch.

void BM_ObsDisabledCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;  // disabled
  obs::Counter& counter = registry.counter("bench_total");
  for (auto _ : state) counter.inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledCounterInc);

void BM_ObsDisabledInstant(benchmark::State& state) {
  obs::TraceRecorder recorder;  // disabled
  for (auto _ : state) recorder.instant("cat", "tick", 1.0, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledInstant);

void BM_ObsDisabledFlightEvent(benchmark::State& state) {
  obs::FlightRecorder recorder;  // disabled
  for (auto _ : state) {
    recorder.record(obs::FlightEventKind::kEnqueue, 0, 1, 2, 3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledFlightEvent);

void BM_ObsEnabledFlightEvent(benchmark::State& state) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  for (auto _ : state) {
    recorder.record(obs::FlightEventKind::kEnqueue, 0, 1, 2, 3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEnabledFlightEvent);

void BM_ObsDisabledQuantileObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;  // disabled
  obs::QuantileHistogram& quantiles = registry.quantile("bench_ms_quantiles");
  for (auto _ : state) quantiles.record(3.5);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsDisabledQuantileObserve);

void BM_ObsEnabledQuantileObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::QuantileHistogram& quantiles = registry.quantile("bench_ms_quantiles");
  double value = 0.0;
  for (auto _ : state) {
    quantiles.record(value);
    value += 0.1;
    if (value > 1000.0) value = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEnabledQuantileObserve);

void BM_ObsEnabledInstant(benchmark::State& state) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  for (auto _ : state) recorder.instant("cat", "tick", 1.0, 0);
  recorder.drain();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsEnabledInstant);

void BM_FullExperimentFaasBatchTraced(benchmark::State& state) {
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 200;
  workload_spec.seed = 42;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);
  obs::tracer().set_enabled(true);
  obs::metrics().set_enabled(true);
  for (auto _ : state) {
    eval::ExperimentSpec spec;
    spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
    benchmark::DoNotOptimize(eval::run_experiment(spec, workload).completed);
    obs::tracer().drain();  // don't let buffers grow across iterations
  }
  obs::tracer().set_enabled(false);
  obs::metrics().set_enabled(false);
}
BENCHMARK(BM_FullExperimentFaasBatchTraced)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
