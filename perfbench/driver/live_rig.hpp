// Pieces shared by the two live workloads: the function set and its
// handlers, the output checks of the I/O handlers, per-phase counter
// snapshots of a LivePlatform, and the per-layer report rows.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "live/live_platform.hpp"
#include "probe.hpp"

namespace perfbench {

/// The deployed functions: fib bodies of a few sizes and I/O bodies on
/// separate storage accounts. Requests pick one uniformly.
struct LiveFunction {
  std::string name;
  int fib_n = 0;  ///< 0 = an I/O function
};
const std::vector<LiveFunction>& live_functions();

/// Counts I/O handler runs and read-back mismatches (a handler that reads
/// back something else than it wrote fails the run).
struct IoCheck {
  // Pure statistics. fb-atomic-counter
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> mismatches{0};
};

/// Registers every function of live_functions() on `platform`. The I/O
/// handlers create their storage client through the container's Resource
/// Multiplexer, write the request payload and read it back.
void register_live_functions(faasbatch::live::LivePlatform& platform, IoCheck& io);

/// One request's inputs, drawn from the workload seed.
struct LiveRequest {
  std::size_t function = 0;
  std::string payload;
};
LiveRequest draw_request(faasbatch::Rng& rng);

/// Platform and process counters at one instant; deltas between two
/// snapshots give the per-phase figures.
struct PlatformCounters {
  std::uint64_t containers = 0;
  std::uint64_t client_creations = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t windows = 0;
  std::uint64_t overflow = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t io_calls = 0;
};
PlatformCounters snapshot(const faasbatch::live::LivePlatform& platform,
                          const IoCheck& io);

/// Fills the live.cold_starts, dispatch.*, storage.*, core.* and proc.*
/// rows from two snapshots around the measured phase.
void fill_live_layers(Report& report, const PlatformCounters& before,
                      const PlatformCounters& after, std::uint64_t completed);

/// Prints the per-window CPU and throughput figures of a phase.
void note_windows(const std::vector<double>& cpu_us, const std::vector<double>& ips);

}  // namespace perfbench
