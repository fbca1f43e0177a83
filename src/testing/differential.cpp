#include "testing/differential.hpp"

#include <sstream>
#include <utility>

#include "core/invocation.hpp"
#include "eval/worker.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::testing {

namespace {

/// Everything one instrumented scheduler run produces.
struct InstrumentedRun {
  SchedulerRunSummary summary;
  std::vector<std::uint32_t> accountings;  // per-invocation terminal notifications
  std::vector<core::InvocationRecord> records;
  runtime::PoolStats pool_stats;
  std::size_t live_containers_at_end = 0;
  double min_memory_bytes = 0.0;
  double final_memory_bytes = 0.0;
  double platform_base_bytes = 0.0;
  double min_live_containers = 0.0;
  double final_live_containers = 0.0;
  double machine_cores = 0.0;
};

InstrumentedRun run_one(schedulers::SchedulerKind kind, eval::ExperimentSpec spec,
                        const trace::Workload& workload) {
  spec.scheduler = kind;

  sim::Simulator simulator;
  resilience::ChaosEngine chaos(spec.fault_plan, spec.retry_policy,
                                spec.overload);

  InstrumentedRun run;
  run.machine_cores = spec.runtime.machine_cores;
  run.platform_base_bytes = static_cast<double>(spec.runtime.platform_base_memory);
  run.accountings.assign(workload.events.size(), 0);

  eval::Worker worker(simulator, spec, workload, chaos, [&](InvocationId id) {
    if (worker.records().at(id).outcome != core::Outcome::kShed) chaos.finish();
    ++run.accountings.at(id);
    run.summary.last_completion = simulator.now();
  });
  run.summary.name = std::string(worker.scheduler_name());
  run.summary.invocations = workload.events.size();
  runtime::Machine& machine = worker.machine();
  runtime::ContainerPool& pool = worker.pool();

  // Watch busy cores on every rate change: the fluid CPU must never
  // allocate negative rates or exceed the machine.
  double min_rate = 0.0;
  double peak_rate = 0.0;
  machine.cpu().set_rate_observer([&](SimTime, double busy_cores) {
    if (busy_cores < min_rate) min_rate = busy_cores;
    if (busy_cores > peak_rate) peak_rate = busy_cores;
  });

  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    const InvocationId id = static_cast<InvocationId>(i);
    simulator.schedule_at(workload.events[i].arrival,
                          [&worker, id] { worker.arrive(id); });
  }

  // Unlike run_experiment, run to full quiescence: keep-alive expiries
  // fire and every container is reclaimed, so drain invariants apply.
  simulator.run();
  run.records = std::move(worker.records());

  for (const core::InvocationRecord& record : run.records) {
    switch (record.outcome) {
      case core::Outcome::kCompleted: ++run.summary.completed; break;
      case core::Outcome::kFailed: ++run.summary.failed; break;
      case core::Outcome::kShed: ++run.summary.shed; break;
      case core::Outcome::kPending: break;  // reported as a violation
    }
  }
  run.summary.faults_injected = chaos.injector().stats().total();
  run.summary.chaos_fingerprint = chaos.fingerprint();
  run.pool_stats = pool.stats();
  run.summary.containers_provisioned = run.pool_stats.total_provisioned;
  run.summary.warm_hits = run.pool_stats.warm_hits;
  run.live_containers_at_end = pool.live_containers();

  const auto& memory_history = machine.memory_gauge().history();
  run.min_memory_bytes = machine.memory_gauge().value();
  for (const auto& [t, bytes] : memory_history) {
    if (bytes < run.min_memory_bytes) run.min_memory_bytes = bytes;
  }
  run.final_memory_bytes = machine.memory_gauge().value();
  run.summary.memory_peak_mib = to_mib(machine.memory_peak());

  run.min_live_containers = pool.live_gauge().value();
  for (const auto& [t, count] : pool.live_gauge().history()) {
    if (count < run.min_live_containers) run.min_live_containers = count;
  }
  run.final_live_containers = pool.live_gauge().value();

  run.summary.peak_busy_cores = peak_rate;
  run.summary.min_busy_cores = min_rate;
  return run;
}

}  // namespace

std::string InvariantViolation::to_string() const {
  std::ostringstream out;
  out << "[seed " << seed << "] ";
  if (!scheduler.empty()) out << scheduler << ": ";
  out << invariant << ": " << detail << " (replay: fuzz_workload(" << seed << "))";
  return out.str();
}

std::string DifferentialReport::summary() const {
  std::ostringstream out;
  out << "differential seed " << seed << ": " << runs.size() << " scheduler runs, "
      << violations.size() << " violations\n";
  for (const SchedulerRunSummary& run : runs) {
    out << "  " << run.name << ": " << run.completed << "/" << run.invocations
        << " completed";
    if (run.failed != 0 || run.shed != 0 || run.faults_injected != 0) {
      out << " (" << run.failed << " failed, " << run.shed << " shed, "
          << run.faults_injected << " faults injected)";
    }
    out << ", " << run.containers_provisioned << " containers, peak "
        << run.peak_busy_cores << " busy cores\n";
  }
  for (const InvariantViolation& violation : violations) {
    out << "  VIOLATION " << violation.to_string() << "\n";
  }
  return out.str();
}

DifferentialReport check_workload(std::uint64_t seed, const trace::Workload& workload,
                                  const DifferentialOptions& options) {
  DifferentialReport report;
  report.seed = seed;

  const auto violate = [&](const std::string& scheduler, const std::string& invariant,
                           const std::string& detail) {
    report.violations.push_back(InvariantViolation{seed, scheduler, invariant, detail});
  };

  std::uint64_t vanilla_containers = 0;
  bool have_vanilla = false;
  std::uint64_t faasbatch_containers = 0;
  bool have_faasbatch = false;
  const bool chaos_mode = options.spec.fault_plan.any();

  for (const schedulers::SchedulerKind kind : options.schedulers) {
    const InstrumentedRun run = run_one(kind, options.spec, workload);
    const std::string& name = run.summary.name;

    // Chaos determinism: an identical second run must reproduce every
    // fault/retry/shed decision bit-for-bit.
    if (chaos_mode) {
      const InstrumentedRun replay = run_one(kind, options.spec, workload);
      if (replay.summary.chaos_fingerprint != run.summary.chaos_fingerprint ||
          replay.summary.completed != run.summary.completed ||
          replay.summary.failed != run.summary.failed ||
          replay.summary.shed != run.summary.shed) {
        violate(name, "chaos determinism",
                "replay diverged: fingerprint " +
                    std::to_string(run.summary.chaos_fingerprint) + " vs " +
                    std::to_string(replay.summary.chaos_fingerprint));
      }
    }

    // 1. Conservation: every invocation is terminally accounted exactly
    // once (completed, failed, or shed — never lost, never double).
    for (std::size_t i = 0; i < run.accountings.size(); ++i) {
      if (run.accountings[i] != 1) {
        violate(name, "exactly-once terminal accounting",
                "invocation " + std::to_string(i) + " accounted " +
                    std::to_string(run.accountings[i]) + " times");
      } else if (!run.records[i].accounted()) {
        violate(name, "terminal outcome recorded",
                "invocation " + std::to_string(i) +
                    " notified but outcome still pending");
      }
    }
    if (!chaos_mode && options.spec.overload.max_inflight == 0 &&
        run.summary.completed != run.summary.invocations) {
      violate(name, "fault-free runs complete everything",
              std::to_string(run.summary.invocations - run.summary.completed) +
                  " invocations did not complete without faults");
    }

    // 2. Phase stamps are ordered for every completed invocation.
    for (const core::InvocationRecord& record : run.records) {
      if (!record.completed) continue;  // already reported above
      const bool ordered = record.arrival <= record.dispatched &&
                           record.dispatched <= record.exec_start &&
                           record.exec_start < record.exec_end &&
                           (record.returned == 0 || record.returned >= record.exec_end) &&
                           record.cold_start >= 0;
      if (!ordered) {
        violate(name, "phase-stamp ordering",
                "invocation " + std::to_string(record.id) + " has stamps arrival=" +
                    std::to_string(record.arrival) + " dispatched=" +
                    std::to_string(record.dispatched) + " exec_start=" +
                    std::to_string(record.exec_start) + " exec_end=" +
                    std::to_string(record.exec_end));
      }
    }

    // 3. CPU gauge: busy cores within [0, machine size] at all times.
    constexpr double kRateEpsilon = 1e-6;
    if (run.summary.min_busy_cores < -kRateEpsilon) {
      violate(name, "cpu gauge non-negative",
              "busy cores dipped to " + std::to_string(run.summary.min_busy_cores));
    }
    if (run.summary.peak_busy_cores > run.machine_cores + kRateEpsilon) {
      violate(name, "cpu gauge within capacity",
              "busy cores peaked at " + std::to_string(run.summary.peak_busy_cores) +
                  " on a " + std::to_string(run.machine_cores) + "-core machine");
    }

    // 4. Memory gauge: never negative; back to the platform base at drain.
    if (run.min_memory_bytes < 0.0) {
      violate(name, "memory gauge non-negative",
              "resident memory dipped to " + std::to_string(run.min_memory_bytes) +
                  " bytes");
    }
    if (run.final_memory_bytes != run.platform_base_bytes) {
      violate(name, "memory returns to base at drain",
              "final resident " + std::to_string(run.final_memory_bytes) +
                  " bytes vs platform base " +
                  std::to_string(run.platform_base_bytes));
    }

    // 5. Container gauge: never negative; every container reclaimed.
    if (run.min_live_containers < 0.0) {
      violate(name, "container gauge non-negative",
              "live containers dipped to " +
                  std::to_string(run.min_live_containers));
    }
    if (run.live_containers_at_end != 0 || run.final_live_containers != 0.0) {
      violate(name, "containers drain to zero",
              std::to_string(run.live_containers_at_end) +
                  " containers still live after full drain");
    }

    // 6. Keep-alive expiry must never target a non-idle container.
    if (run.pool_stats.expired_while_active != 0) {
      violate(name, "keep-alive never reaps active containers",
              std::to_string(run.pool_stats.expired_while_active) +
                  " expiry events fired on non-idle containers");
    }

    if (kind == schedulers::SchedulerKind::kVanilla) {
      vanilla_containers = run.summary.containers_provisioned;
      have_vanilla = true;
    }
    if (kind == schedulers::SchedulerKind::kFaasBatch) {
      faasbatch_containers = run.summary.containers_provisioned;
      have_faasbatch = true;
    }
    report.runs.push_back(run.summary);
  }

  // Cross-scheduler: window batching can only consolidate, so FaaSBatch
  // must never start more containers than Vanilla on the same trace.
  // Only meaningful fault-free: under chaos, crash blast radius and
  // per-member retries legitimately add FaaSBatch containers.
  if (!chaos_mode && have_vanilla && have_faasbatch &&
      faasbatch_containers > vanilla_containers) {
    violate("", "FaaSBatch consolidates vs Vanilla",
            "FaaSBatch provisioned " + std::to_string(faasbatch_containers) +
                " containers, Vanilla " + std::to_string(vanilla_containers));
  }

  return report;
}

DifferentialReport run_differential(std::uint64_t seed, const FuzzerOptions& fuzz,
                                    const DifferentialOptions& options) {
  const trace::Workload workload = fuzz_workload(seed, fuzz);
  if (options.fuzz_faults && !options.spec.fault_plan.any()) {
    // Chaos by default: every seed sweep exercises faults, with
    // fuzz_fault_plan keeping a fraction of seeds fault-free so the
    // fault-free-only invariants retain coverage.
    DifferentialOptions chaos_options = options;
    chaos_options.spec.fault_plan = fuzz_fault_plan(seed);
    return check_workload(seed, workload, chaos_options);
  }
  return check_workload(seed, workload, options);
}

}  // namespace faasbatch::testing
