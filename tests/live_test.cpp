// Tests for the live (real-thread) runtime: containers, platform
// policies, handlers, and multiplexer behaviour under real concurrency.
//
// Timing-sensitive behaviour (window flushes, busy/idle container
// decisions) is driven through a VirtualClock and completion gates, never
// wall-clock sleeps, so every assertion is deterministic — including
// under ThreadSanitizer's heavy scheduling perturbation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "live/functions.hpp"
#include "live/live_container.hpp"
#include "live/live_platform.hpp"

namespace faasbatch::live {
namespace {

/// Repeatedly advances the virtual clock (waking window waits) until
/// `pred` holds. The 1 ms pause is liveness pacing for the dispatcher
/// thread, not a timing assumption: the loop tolerates arbitrarily slow
/// scheduling and only ever fails if `pred` never becomes true.
template <typename Pred>
bool advance_until(VirtualClock& clock, std::chrono::milliseconds step, Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    clock.advance(std::chrono::duration_cast<ClockTime>(step));
    // Real 1 ms pacing while polling a cross-thread predicate.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // fb-lint-allow(raw-clock)
  }
  return pred();
}

/// Ids of this process's threads right now: the entries of /proc/self/task.
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

/// Threads running now that were not in `before`.
std::size_t threads_started_since(const std::set<std::string>& before) {
  std::size_t started = 0;
  for (const std::string& id : thread_ids()) {
    if (before.count(id) == 0) ++started;
  }
  return started;
}

LiveContainerOptions fast_container() {
  LiveContainerOptions options;
  options.threads = 2;
  options.cold_start_work_ms = 1.0;
  options.base_memory_bytes = 64 * kKiB;
  return options;
}

TEST(FibTest, KnownValues) {
  EXPECT_EQ(fib(0), 0u);
  EXPECT_EQ(fib(1), 1u);
  EXPECT_EQ(fib(10), 55u);
  EXPECT_EQ(fib(20), 6765u);
}

TEST(BusyWorkTest, TakesRoughlyRequestedTime) {
  // Wall-time bound: asserts real elapsed time stays sane.
  const auto start = std::chrono::steady_clock::now();  // fb-lint-allow(raw-clock)
  (void)busy_work_ms(10.0);
  const double elapsed = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -  // fb-lint-allow(raw-clock)
                             start)
                             .count();
  EXPECT_GE(elapsed, 9.0);
}

TEST(LiveContainerTest, ColdStartIsMeasuredAndMemoryResident) {
  LiveContainer container("f", fast_container());
  EXPECT_GE(container.cold_start_ms(), 1.0);
  EXPECT_EQ(container.base_memory(), 64 * kKiB);
  EXPECT_EQ(container.function(), "f");
}

TEST(LiveContainerTest, ExecutesSubmittedTasks) {
  LiveContainer container("f", fast_container());
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    container.submit([&count] { ++count; });
  }
  container.drain();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(container.executed(), 20u);
}

TEST(LiveContainerTest, TasksRunConcurrently) {
  LiveContainerOptions options = fast_container();
  options.threads = 4;
  LiveContainer container("f", options);
  // Two tasks rendezvous at a latch: neither can pass until both are
  // running, so reaching drain() proves >= 2 ran concurrently — no
  // sleep-and-hope measurement.
  std::latch rendezvous(2);
  std::atomic<int> met{0};
  for (int i = 0; i < 2; ++i) {
    container.submit([&] {
      rendezvous.arrive_and_wait();
      ++met;
    });
  }
  container.drain();
  EXPECT_EQ(met.load(), 2);
}

TEST(LiveContainerTest, DrainWaitsForInFlightWork) {
  LiveContainer container("f", fast_container());
  std::atomic<bool> finished{false};
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  container.submit([&finished, open] {
    open.wait();
    finished = true;
  });
  // The task was queued before drain(), so drain() must not return until
  // it has run to completion once the gate opens.
  gate.set_value();
  container.drain();
  EXPECT_TRUE(finished.load());
}

LivePlatformOptions fast_platform(LivePolicy policy) {
  LivePlatformOptions options;
  options.policy = policy;
  options.window = std::chrono::milliseconds(15);
  options.container = fast_container();
  options.client_factory.creation_work_ms = 1.0;
  options.client_factory.client_buffer_bytes = 16 * kKiB;
  return options;
}

TEST(LivePlatformTest, InvokeUnknownFunctionThrows) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  EXPECT_THROW(platform.invoke("nope"), std::invalid_argument);
}

TEST(LivePlatformTest, ReportsHaveSaneTimings) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("fib", make_fib_handler(18));
  auto report = platform.invoke("fib").get();
  EXPECT_GE(report.total_ms, report.exec_ms);
  EXPECT_GE(report.queue_ms, 0.0);
  EXPECT_GT(report.total_ms, 0.0);
}

TEST(LivePlatformTest, FaasBatchGroupsIntoFewContainers) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("fib", make_fib_handler(15));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(platform.invoke("fib"));
  for (auto& future : futures) future.get();
  // One function -> one (occasionally two, across windows) container.
  EXPECT_LE(platform.containers_created(), 2u);
}

TEST(LivePlatformTest, VanillaCreatesManyContainers) {
  LivePlatform platform(fast_platform(LivePolicy::kVanilla));
  // All six invocations rendezvous at a latch, so every one is in flight
  // at once and no warm container is ever available — forced overlap,
  // not sleep-based overlap.
  std::latch all_running(6);
  platform.register_function("slow", [&all_running](FunctionContext&) {
    all_running.arrive_and_wait();
  });
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(platform.invoke("slow"));
  for (auto& future : futures) future.get();
  EXPECT_EQ(platform.containers_created(), 6u);
}

TEST(LivePlatformTest, VanillaReusesIdleContainers) {
  LivePlatform platform(fast_platform(LivePolicy::kVanilla));
  platform.register_function("quick", make_fib_handler(5));
  for (int i = 0; i < 5; ++i) {
    platform.invoke("quick").get();  // strictly sequential
  }
  EXPECT_EQ(platform.containers_created(), 1u);
}

TEST(LivePlatformTest, MultiplexerSharesClientsWithinContainer) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("io", make_io_handler("acct"));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 25; ++i) futures.push_back(platform.invoke("io"));
  for (auto& future : futures) future.get();
  EXPECT_EQ(platform.client_creations(), 1u);
  // The objects really were written to the store through the client.
  EXPECT_GT(platform.store().stats().puts, 0u);
}

TEST(LivePlatformTest, NoMuxHandlerCreatesPerInvocation) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("io", make_io_handler_no_mux("acct"));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(platform.invoke("io"));
  for (auto& future : futures) future.get();
  EXPECT_EQ(platform.client_creations(), 10u);
}

TEST(LivePlatformTest, IoHandlerRoundTripsData) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("io", make_io_handler("acct", 256));
  platform.invoke("io").get();
  // The handler wrote a 256-byte object under the account prefix.
  bool found = false;
  for (int i = 0; i < 16 && !found; ++i) {
    found = platform.store().exists("acct/obj-" + std::to_string(i));
  }
  EXPECT_TRUE(found);
}

TEST(LivePlatformTest, DrainBlocksUntilQuiescent) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("fib", make_fib_handler(18));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(platform.invoke("fib"));
  platform.drain();
  for (auto& future : futures) {
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(LivePlatformTest, FaasBatchScalesOutWhenContainerBusy) {
  // Window timing runs on a virtual clock; container busy-ness is pinned
  // by a gate the test controls. No wall-clock in any decision.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  LivePlatform platform(options);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> started{0};
  platform.register_function("slow", [&started, open](FunctionContext&) {
    ++started;
    open.wait();
  });

  // First window's group occupies container 1 (handler blocked on gate)...
  auto first = platform.invoke("slow");
  ASSERT_TRUE(advance_until(clock, options.window,
                            [&] { return started.load() == 1; }));
  // ...so the second window's group must scale out to a new container.
  auto second = platform.invoke("slow");
  ASSERT_TRUE(advance_until(clock, options.window,
                            [&] { return started.load() == 2; }));
  EXPECT_EQ(platform.containers_created(), 2u);
  gate.set_value();
  first.get();
  second.get();
  // Once both are idle, a third burst reuses them instead of growing.
  auto third = platform.invoke("slow");
  ASSERT_TRUE(advance_until(clock, options.window,
                            [&] { return started.load() == 3; }));
  third.get();
  EXPECT_EQ(platform.containers_created(), 2u);
}

TEST(LivePlatformTest, DeadlineExpiresAtWindowFlush) {
  // The dispatch window (15 ms) is longer than the request deadline
  // (5 ms), so by the time the window flushes the deadline has passed:
  // the future must resolve kDeadlineExpired and the handler never runs.
  // All timing is virtual — the outcome is decided by clock arithmetic,
  // not scheduling.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  auto future = platform.invoke("f", "", std::chrono::milliseconds(5));
  ASSERT_TRUE(advance_until(clock, options.window, [&] {
    return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }));
  const InvocationReport report = future.get();
  EXPECT_EQ(report.status, InvocationStatus::kDeadlineExpired);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(ran.load(), 0);
  // drain() must not wait on a terminally-settled request.
  platform.drain();
}

TEST(LivePlatformTest, DeadlineExpiresWhileQueuedBehindBusyContainer) {
  // Two gate-blocked invocations occupy both container threads; a third
  // with a deadline joins the same window's group and queues inside the
  // container. The clock then advances past its deadline before the gate
  // opens, so the exec-start check must expire it without running it.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  options.container.threads = 2;
  LivePlatform platform(options);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> started{0};
  platform.register_function("slow", [&started, open](FunctionContext&) {
    ++started;
    open.wait();
  });

  auto a = platform.invoke("slow");
  auto b = platform.invoke("slow");
  // Deadline far beyond the window, so it survives the flush check and
  // expires only inside the container (100 ms < the 500 ms advance).
  auto c = platform.invoke("slow", "", std::chrono::milliseconds(100));
  ASSERT_TRUE(advance_until(clock, options.window,
                            [&] { return started.load() == 2; }));
  clock.advance(std::chrono::duration_cast<ClockTime>(std::chrono::milliseconds(500)));
  gate.set_value();
  EXPECT_EQ(a.get().status, InvocationStatus::kOk);
  EXPECT_EQ(b.get().status, InvocationStatus::kOk);
  EXPECT_EQ(c.get().status, InvocationStatus::kDeadlineExpired);
  EXPECT_EQ(started.load(), 2);
}

TEST(LivePlatformTest, ShedsWhenQueueFull) {
  // With the virtual clock never advanced the dispatcher sits in its
  // window wait, so the first request stays queued and the second hits
  // the max_queue bound: its future is ready immediately with kShed.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  options.max_queue = 1;
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  auto queued = platform.invoke("f");
  auto shed = platform.invoke("f");
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(shed.get().status, InvocationStatus::kShed);

  // The admitted request still completes once the window flushes.
  ASSERT_TRUE(advance_until(clock, options.window, [&] {
    return queued.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }));
  EXPECT_EQ(queued.get().status, InvocationStatus::kOk);
  EXPECT_EQ(ran.load(), 1);
}

TEST(LivePlatformTest, ShutdownDrainsQueuedAndCancelsNew) {
  // shutdown() is a graceful drain: requests already queued flush and
  // execute immediately — even mid-window on a never-advanced virtual
  // clock — while later invokes resolve at once with kCancelled.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  auto a = platform.invoke("f");
  auto b = platform.invoke("f");
  platform.shutdown();
  EXPECT_EQ(a.get().status, InvocationStatus::kOk);
  EXPECT_EQ(b.get().status, InvocationStatus::kOk);
  EXPECT_EQ(ran.load(), 2);

  auto late = platform.invoke("f");
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(late.get().status, InvocationStatus::kCancelled);
  EXPECT_EQ(ran.load(), 2);
  platform.drain();  // returns: nothing outstanding
}

TEST(LivePlatformTest, SeparateFunctionsSeparateContainers) {
  LivePlatform platform(fast_platform(LivePolicy::kFaasBatch));
  platform.register_function("a", make_fib_handler(10));
  platform.register_function("b", make_fib_handler(10));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(platform.invoke(i % 2 == 0 ? "a" : "b"));
  }
  for (auto& future : futures) future.get();
  EXPECT_GE(platform.containers_created(), 2u);
}

// ---------------------------------------------------------------------
// Sharded dispatch pipeline
// ---------------------------------------------------------------------

TEST(ShardedDispatchTest, StatsExposePipelineShape) {
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.shards = 3;
  LivePlatform platform(options);
  platform.register_function("fib", make_fib_handler(10));

  DispatchStats stats = platform.dispatch_stats();
  EXPECT_EQ(stats.shards, 3u);
  ASSERT_EQ(stats.shard_stats.size(), 3u);

  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(platform.invoke("fib"));
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  stats = platform.dispatch_stats();
  std::uint64_t enqueued = 0, windows = 0;
  for (const auto& snap : stats.shard_stats) {
    enqueued += snap.enqueued;
    windows += snap.windows;
  }
  EXPECT_EQ(enqueued, 12u);
  EXPECT_GE(windows, 1u);
}

TEST(ShardedDispatchTest, PipelineStartsOneThreadPerShard) {
  // Each shard's flush loop places its windows on containers itself, so
  // the pipeline's only threads are one per shard. Containers start
  // theirs on first use: before any invoke() the platform has added
  // exactly `shards` threads, and destruction joins every one of them.
  // One thread is started and joined first, so a helper thread that a
  // runtime starts on the first thread creation (ThreadSanitizer's) is
  // already running and not counted.
  std::thread([] {}).join();
  const std::set<std::string> before = thread_ids();
  {
    LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
    options.shards = 3;
    LivePlatform platform(options);
    EXPECT_EQ(threads_started_since(before), 3u);
  }
  // A joined thread leaves /proc/self/task a moment after join()
  // returns; the 1 ms pause is liveness pacing, not a timing assumption.
  bool gone = false;
  for (int i = 0; i < 5000 && !gone; ++i) {
    gone = threads_started_since(before) == 0;
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(1));  // fb-lint-allow(raw-clock)
  }
  EXPECT_TRUE(gone) << threads_started_since(before) << " threads outlived the platform";
}

TEST(ShardedDispatchTest, RingOverflowSpillsAndStillFlushesEveryRequest) {
  // An unbounded shard whose 2-slot ring fills spills the rest into its
  // mutex-guarded overflow deque instead of shedding. The clock is pinned,
  // so the flush loop sits in its window wait and consumes nothing: the
  // first two requests take the ring slots and the other eight overflow.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  options.max_queue = 0;
  options.shard_ring_capacity = 2;
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  constexpr int kRequests = 10;
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < kRequests; ++i) futures.push_back(platform.invoke("f"));

  int shards_used = 0;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    if (snap.enqueued == 0) continue;
    ++shards_used;
    EXPECT_EQ(snap.enqueued, 10u);
    EXPECT_EQ(snap.overflow, 8u);
    EXPECT_EQ(snap.depth, 10u);
    EXPECT_EQ(snap.shed, 0u);
  }
  EXPECT_EQ(shards_used, 1);

  // Once the window closes, the ring and the overflow deque flush as one
  // window and every request runs.
  ASSERT_TRUE(advance_until(clock, options.window, [&] {
    for (auto& future : futures) {
      if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return false;
      }
    }
    return true;
  }));
  for (auto& future : futures) EXPECT_EQ(future.get().status, InvocationStatus::kOk);
  platform.drain();
  EXPECT_EQ(ran.load(), kRequests);
}

TEST(ShardedDispatchTest, SameFunctionAlwaysLandsOnOneShard) {
  // Shard assignment hashes the function name, so one function's
  // requests never spread across shards — the per-shard window sees the
  // whole batching opportunity, exactly like the single global window.
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.shards = 4;
  LivePlatform platform(options);
  platform.register_function("fib", make_fib_handler(10));
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(platform.invoke("fib"));
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  int shards_used = 0;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    if (snap.enqueued > 0) ++shards_used;
  }
  EXPECT_EQ(shards_used, 1);
}

// Regression test for the shutdown/invoke race: a late invoke() must
// never slip past the draining check into a queue nobody drains
// (accepted-but-never-settled future). Admission close and the final
// drain are atomic: under a storm of concurrent invokes racing
// shutdown(), every single future must reach a terminal state and the
// accounting must add up exactly.
TEST(ShardedDispatchTest, ShutdownInvokeRaceNeverStrandsARequest) {
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.window = std::chrono::milliseconds(1);
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::latch gate(kThreads + 1);
  std::vector<std::vector<std::future<InvocationReport>>> futures(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    futures[t].reserve(kPerThread);
    producers.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(platform.invoke("f"));
      }
    });
  }
  gate.arrive_and_wait();
  // Shut down while the storm is in full flight.
  platform.shutdown();
  for (auto& producer : producers) producer.join();
  platform.drain();

  int ok = 0, cancelled = 0, other = 0;
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      // drain() returned, so every accepted invocation has settled and
      // every rejected one settled at submit: no future may still be
      // pending — a pending one is exactly the accepted-but-never-
      // drained bug this test pins down.
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      switch (future.get().status) {
        case InvocationStatus::kOk: ++ok; break;
        case InvocationStatus::kCancelled: ++cancelled; break;
        default: ++other; break;
      }
    }
  }
  EXPECT_EQ(ok + cancelled + other, kThreads * kPerThread);
  EXPECT_EQ(other, 0);  // unbounded queue, no deadlines: no shed/expiry
  EXPECT_EQ(ok, ran.load());  // every kOk really executed, exactly once
}

TEST(ShardedDispatchTest, ManyFunctionsSpreadAcrossShardsAndStillBatch) {
  // Different functions spread over shards (not necessarily all — the
  // hash may collide) while each function's burst still batches into
  // few containers.
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.shards = 8;
  LivePlatform platform(options);
  const int kFunctions = 16;
  std::vector<std::string> names;
  for (int f = 0; f < kFunctions; ++f) {
    // Appended, not "f" + std::to_string(f): GCC 12 reports a false
    // -Wrestrict on that inlined concatenation in Release builds.
    std::string name = "f";
    name += std::to_string(f);
    platform.register_function(name, make_fib_handler(8));
    names.push_back(std::move(name));
  }
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < kFunctions * 8; ++i) {
    futures.push_back(platform.invoke(names[i % kFunctions]));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  int shards_used = 0;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    if (snap.enqueued > 0) ++shards_used;
  }
  EXPECT_GE(shards_used, 2);
  // Window batching held per function: far fewer containers than
  // invocations (each function needs at most a couple of containers).
  EXPECT_LE(platform.containers_created(), 2u * kFunctions);
}

TEST(ShardedDispatchTest, ShedAccountingMatchesShardCounters) {
  // Bounded sharded admission: platform-level kShed outcomes and the
  // shard's own shed counter must agree exactly.
  VirtualClock clock;
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  options.max_queue = 2;
  options.shards = 2;
  LivePlatform platform(options);
  std::atomic<int> ran{0};
  platform.register_function("f", [&ran](FunctionContext&) { ++ran; });

  // Clock never advances: the shard sits in its window wait, so pushes
  // beyond max_queue=2 shed deterministically.
  std::vector<std::future<InvocationReport>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(platform.invoke("f"));
  int shed = 0;
  int pending = 0;
  for (auto& future : futures) {
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(future.get().status, InvocationStatus::kShed);
      ++shed;
    } else {
      ++pending;
    }
  }
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(pending, 2);

  std::uint64_t shard_shed = 0;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    shard_shed += snap.shed;
  }
  EXPECT_EQ(shard_shed, 4u);
  platform.shutdown();  // flushes the two queued requests immediately
  platform.drain();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ShardedDispatchTest, MaxQueueBoundsEachShardSeparately) {
  // max_queue is a per-shard bound: two functions on different shards
  // each admit max_queue requests into the same pinned window and shed
  // only their own excess — one function's backlog never eats the other
  // shard's headroom.
  VirtualClock clock;  // never advanced: both shards sit in their window wait
  LivePlatformOptions options = fast_platform(LivePolicy::kFaasBatch);
  options.clock = &clock;
  options.shards = 2;
  options.max_queue = 2;
  LivePlatform platform(options);
  // Shard assignment is fnv1a(name) % shards: pick a second name of the
  // other parity. The per-shard counters below confirm the split.
  const std::string a = "a";
  std::string b = "b";
  for (int i = 0; fnv1a(b) % 2 == fnv1a(a) % 2; ++i) {
    b = "b";
    b += std::to_string(i);  // appended for the same GCC 12 -Wrestrict reason
  }
  std::atomic<int> ran{0};
  for (const std::string& name : {a, b}) {
    platform.register_function(name, [&ran](FunctionContext&) { ++ran; });
  }

  constexpr int kPerFunction = 5;
  std::map<std::string, std::vector<std::future<InvocationReport>>> futures;
  for (int i = 0; i < kPerFunction; ++i) {
    for (const std::string& name : {a, b}) futures[name].push_back(platform.invoke(name));
  }
  for (auto& [name, per_function] : futures) {
    int shed = 0;
    for (auto& future : per_function) {
      if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        EXPECT_EQ(future.get().status, InvocationStatus::kShed) << name;
        ++shed;
      }
    }
    EXPECT_EQ(shed, kPerFunction - 2) << name;
  }
  const DispatchStats stats = platform.dispatch_stats();
  ASSERT_EQ(stats.shard_stats.size(), 2u);
  for (const auto& snap : stats.shard_stats) {
    EXPECT_EQ(snap.enqueued, 2u) << "shard " << snap.shard;
    EXPECT_EQ(snap.shed, static_cast<std::uint64_t>(kPerFunction - 2))
        << "shard " << snap.shard;
  }

  platform.shutdown();  // flushes both shards' admitted requests
  platform.drain();
  for (auto& [name, per_function] : futures) {
    for (auto& future : per_function) {
      if (future.valid()) {
        EXPECT_EQ(future.get().status, InvocationStatus::kOk) << name;
      }
    }
  }
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace faasbatch::live
