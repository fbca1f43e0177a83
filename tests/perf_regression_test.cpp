// Perf-regression floors for the dispatch pipeline (ctest -L perf).
//
// Every assertion here is SELF-RELATIVE — a ratio of two timings taken
// back-to-back in the same process — with a deliberately generous 3x
// threshold, so the tests hold on any hardware (including 1-vCPU CI
// runners where wall-clock benchmarking is noisy) and only trip on real
// structural regressions: a lock added to the ring, a syscall added to
// the admission path, a wakeup storm reintroduced.
//
// Absolute numbers are guarded separately by scripts/check_perf.py
// against bench/bench_baseline.json (registered as the `perf_check`
// ctest, also under the perf label).
//
// Skipped under ASan/TSan: sanitizer instrumentation distorts the two
// sides of a ratio unevenly (atomics cost far more under TSan than a
// parked mutex), so the floors are meaningless there.

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "live/dispatch/mpsc_ring.hpp"

namespace faasbatch {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// The regression floor: the "fast" side must stay within 3x of the
/// "slow" side even when noise swings against it.
constexpr double kFloorFactor = 3.0;

double seconds_since(ClockTime start) {
  return std::chrono::duration<double>(Clock::system().now() - start).count();
}

template <typename Fn>
double best_seconds_of(int reps, Fn&& fn) {
  double best = fn();
  for (int r = 1; r < reps; ++r) best = std::min(best, fn());
  return best;
}

// ---------------------------------------------------------------------
// MpscRing vs mutex+deque: the ring replaced the mutex-guarded queue on
// the admission path; it must never degrade to worse than 3x the thing
// it replaced.
// ---------------------------------------------------------------------

constexpr std::size_t kRingOps = 1 << 19;

double time_ring_ops() {
  live::dispatch::MpscRing<std::uint64_t> ring(1024);
  const ClockTime start = Clock::system().now();
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < kRingOps; i += 64) {
    for (std::size_t j = 0; j < 64; ++j) {
      std::uint64_t v = i + j;
      ring.try_push(v);
    }
    while (ring.try_pop(out)) {
    }
  }
  const double elapsed = seconds_since(start);
  EXPECT_EQ(out, kRingOps - 1);  // defeat dead-code elimination
  return elapsed;
}

double time_mutex_deque_ops() {
  std::mutex mu;
  std::deque<std::uint64_t> queue;
  const ClockTime start = Clock::system().now();
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < kRingOps; i += 64) {
    for (std::size_t j = 0; j < 64; ++j) {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i + j);
    }
    while (true) {
      std::lock_guard<std::mutex> lock(mu);
      if (queue.empty()) break;
      out = queue.front();
      queue.pop_front();
    }
  }
  const double elapsed = seconds_since(start);
  EXPECT_EQ(out, kRingOps - 1);
  return elapsed;
}

TEST(PerfRegressionTest, MpscRingKeepsUpWithMutexDeque) {
  if (kSanitized) GTEST_SKIP() << "ratio floors are meaningless under sanitizers";
  const double ring = best_seconds_of(3, time_ring_ops);
  const double mutexed = best_seconds_of(3, time_mutex_deque_ops);
  const double ring_ops = static_cast<double>(kRingOps) / ring;
  const double mutex_ops = static_cast<double>(kRingOps) / mutexed;
  // The ring is normally faster outright; 3x slower means a lock or an
  // allocation crept into try_push/try_pop.
  EXPECT_GE(ring_ops, mutex_ops / kFloorFactor)
      << "MpscRing " << ring_ops << " ops/s vs mutex+deque " << mutex_ops
      << " ops/s";
}

}  // namespace
}  // namespace faasbatch
