// Calibration constants of the simulated worker machine and container
// runtime. Defaults model the paper's testbed: a 32-vCPU / 64 GB worker
// VM running Docker containers (§IV). Every constant is documented with
// the observation it is calibrated against; EXPERIMENTS.md records the
// values used for each reproduced figure.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace faasbatch::runtime {

struct RuntimeConfig {
  /// Worker VM size (paper: 32 vCPU, 64 GB).
  double machine_cores = 32.0;
  Bytes machine_memory = 64 * kGiB;

  /// Resident memory of an idle container (runtime + language heap).
  Bytes container_base_memory = from_mib(6.0);

  /// Extra resident memory per in-flight invocation (stack, request state).
  Bytes per_invocation_memory = from_mib(0.5);

  /// Idle container reclamation delay. Longer than any experiment run, so
  /// "containers provisioned" counts total spawned, as the paper reports.
  SimDuration keep_alive = 10 * kMinute;

  /// Cold start: fixed non-CPU part (image setup, namespace creation I/O).
  SimDuration cold_start_base = 500 * kMillisecond;

  /// Cold start: CPU part in core-seconds. Runs on the machine CPU, so
  /// simultaneous container launches contend — reproducing the paper's
  /// observation that cold-start latency grows with the number of
  /// containers being provisioned (§V-A2).
  double cold_start_cpu_seconds = 1.5;

  /// Platform CPU cost of dispatching one (batch of) invocation(s) to an
  /// already-known container.
  double dispatch_cpu_seconds = 0.002;

  /// Platform CPU cost of deciding/initiating one container provision
  /// (docker API interaction). Dominates Vanilla/SFS scheduling latency
  /// under bursts because it is paid once per invocation there.
  double provision_cpu_seconds = 0.1;

  /// Memory of the platform itself (serverless framework, OS slice).
  Bytes platform_base_memory = from_mib(512.0);

  /// Concurrent dispatch workers in the platform control plane.
  std::size_t dispatch_parallelism = 16;
};

}  // namespace faasbatch::runtime
