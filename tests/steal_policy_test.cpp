// Property tests for the cluster's pull-scheduling building blocks:
// PendingQueue and the steal policy (pure, deterministic).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "cluster/pending_queue.hpp"
#include "cluster/steal_policy.hpp"

namespace faasbatch::cluster {
namespace {

// --- PendingQueue ordering contract ---------------------------------------

TEST(PendingQueueTest, FifoPerKey) {
  PendingQueue queue;
  queue.push(1, 7, 10);
  queue.push(2, 7, 20);
  queue.push(3, 7, 30);
  std::vector<PendingItem> out;
  EXPECT_EQ(queue.pull_key(7, 2, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.pull_key(7, 10, out), 1u);
  EXPECT_EQ(out[2].id, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(PendingQueueTest, FrontKeyFollowsActivationOrder) {
  PendingQueue queue;
  queue.push(1, 5, 0);   // key 5 activates first
  queue.push(2, 9, 0);   // then key 9
  queue.push(3, 5, 0);   // growing key 5 must not re-activate it
  EXPECT_EQ(queue.front_key(), 5u);
  std::vector<PendingItem> out;
  queue.pull_key(5, 100, out);  // drains key 5 -> deactivates
  EXPECT_EQ(queue.front_key(), 9u);
  queue.push(4, 5, 0);  // key 5 re-activates BEHIND key 9
  EXPECT_EQ(queue.front_key(), 9u);
}

TEST(PendingQueueTest, PartialPullKeepsKeyActive) {
  PendingQueue queue;
  queue.push(1, 5, 0);
  queue.push(2, 5, 0);
  std::vector<PendingItem> out;
  queue.pull_key(5, 1, out);
  EXPECT_EQ(queue.front_key(), 5u);
  EXPECT_EQ(queue.key_depth(5), 1u);
}

TEST(PendingQueueTest, OldestEnqueuedTracksFrontItem) {
  PendingQueue queue;
  EXPECT_EQ(queue.oldest_enqueued(), 0);
  queue.push(1, 5, 40);
  queue.push(2, 9, 10);  // younger key, later activation
  EXPECT_EQ(queue.oldest_enqueued(), 40);
}

TEST(PendingQueueTest, RequeueFrontRestoresHeadOfKeyAndOrder) {
  PendingQueue queue;
  queue.push(1, 5, 0);
  queue.push(2, 5, 0);
  queue.push(3, 9, 0);
  std::vector<PendingItem> pulled;
  queue.pull_key(5, 2, pulled);  // key 5 drained, key 9 now front
  queue.push(4, 5, 0);           // new arrival re-activates key 5 behind 9
  EXPECT_EQ(queue.front_key(), 9u);

  // The worker died: its pulled items return to the head of key 5, and
  // key 5 returns to the head of the activation order.
  queue.requeue_front(pulled);
  EXPECT_EQ(queue.front_key(), 5u);
  ASSERT_EQ(queue.key_depth(5), 3u);
  std::vector<PendingItem> out;
  queue.pull_key(5, 3, out);
  EXPECT_EQ(out[0].id, 1u);  // reclaimed items ahead of the newer arrival
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(out[2].id, 4u);
  EXPECT_EQ(queue.front_key(), 9u);
}

TEST(PendingQueueTest, RequeueMultipleKeysKeepsFirstAppearanceOrder) {
  PendingQueue queue;
  queue.push(9, 3, 0);  // resident key
  const std::vector<PendingItem> reclaimed = {
      {1, 7, 0}, {2, 4, 0}, {3, 7, 0}};
  queue.requeue_front(reclaimed);
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.front_key(), 7u);  // first-appearance order: 7 then 4
  std::vector<PendingItem> out;
  queue.pull_key(7, 10, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 3u);
  EXPECT_EQ(queue.front_key(), 4u);
  queue.pull_key(4, 10, out);
  EXPECT_EQ(queue.front_key(), 3u);
}

// --- PendingQueue op-fuzz vs. a reference model ---------------------------
//
// Double-entry bookkeeping: a seeded op mix (push / pull / crash-requeue)
// runs against the queue and an independently maintained model; every op
// cross-checks order and depths, and the final drain proves conservation
// (every pushed id leaves exactly once — nothing lost, nothing doubled).

struct QueueModel {
  std::map<FunctionId, std::deque<InvocationId>> keys;
  std::deque<FunctionId> order;

  void push(InvocationId id, FunctionId key) {
    if (keys[key].empty()) order.push_back(key);
    keys[key].push_back(id);
  }
  std::vector<InvocationId> pull(FunctionId key, std::size_t max) {
    std::vector<InvocationId> out;
    auto& fifo = keys[key];
    while (out.size() < max && !fifo.empty()) {
      out.push_back(fifo.front());
      fifo.pop_front();
    }
    if (fifo.empty()) {
      keys.erase(key);
      order.erase(std::find(order.begin(), order.end(), key));
    }
    return out;
  }
  void requeue(const std::vector<PendingItem>& items) {
    std::vector<FunctionId> reclaimed;
    for (const PendingItem& item : items) {
      if (std::find(reclaimed.begin(), reclaimed.end(), item.function) ==
          reclaimed.end()) {
        reclaimed.push_back(item.function);
      }
    }
    for (auto it = items.rbegin(); it != items.rend(); ++it) {
      keys[it->function].push_front(it->id);
    }
    for (const FunctionId key : reclaimed) {
      const auto pos = std::find(order.begin(), order.end(), key);
      if (pos != order.end()) order.erase(pos);
    }
    for (auto it = reclaimed.rbegin(); it != reclaimed.rend(); ++it) {
      order.push_front(*it);
    }
  }
};

/// Deterministic LCG (same constants as MSVC's) — no std::random in tests.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() { return state = state * 6364136223846793005ull + 1442695040888963407ull; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>((next() >> 33) % n); }
};

void run_fuzz(std::uint64_t seed, std::size_t ops,
              std::vector<InvocationId>& committed) {
  PendingQueue queue;
  QueueModel model;
  Lcg rng{seed};
  InvocationId next_id = 1;
  std::vector<std::vector<PendingItem>> in_flight;  // pulled, not committed
  std::size_t pushed = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t roll = rng.below(10);
    if (roll < 5) {  // push
      const FunctionId key = static_cast<FunctionId>(rng.below(8));
      queue.push(next_id, key, static_cast<SimTime>(op));
      model.push(next_id, key);
      ++next_id;
      ++pushed;
    } else if (roll < 8 && !queue.empty()) {  // pull the front key
      const FunctionId key = queue.front_key();
      ASSERT_FALSE(model.order.empty());
      EXPECT_EQ(key, model.order.front());
      const std::size_t max = 1 + rng.below(5);
      std::vector<PendingItem> batch;
      queue.pull_key(key, max, batch);
      const std::vector<InvocationId> expect = model.pull(key, max);
      ASSERT_EQ(batch.size(), expect.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].id, expect[i]);
      }
      in_flight.push_back(std::move(batch));
    } else if (roll == 8 && !in_flight.empty()) {  // crash: requeue a batch
      const std::size_t pick = rng.below(in_flight.size());
      queue.requeue_front(in_flight[pick]);
      model.requeue(in_flight[pick]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!in_flight.empty()) {  // commit: the batch executed
      const std::size_t pick = rng.below(in_flight.size());
      for (const PendingItem& item : in_flight[pick]) {
        committed.push_back(item.id);
      }
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_EQ(queue.empty(), model.order.empty());
  }

  // Drain everything still queued or in flight.
  while (!queue.empty()) {
    const FunctionId key = queue.front_key();
    EXPECT_EQ(key, model.order.front());
    std::vector<PendingItem> batch;
    queue.pull_key(key, 1000, batch);
    const std::vector<InvocationId> expect = model.pull(key, 1000);
    ASSERT_EQ(batch.size(), expect.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].id, expect[i]);
      committed.push_back(batch[i].id);
    }
  }
  for (const auto& batch : in_flight) {
    for (const PendingItem& item : batch) committed.push_back(item.id);
  }

  // Conservation: every pushed id accounted exactly once.
  EXPECT_EQ(committed.size(), pushed);
  std::vector<InvocationId> sorted = committed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "an invocation left the queue twice";
}

TEST(PendingQueueFuzzTest, NoLossNoDuplicationAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    std::vector<InvocationId> committed;
    run_fuzz(seed, 2000, committed);
  }
}

TEST(PendingQueueFuzzTest, ReplayIsDeterministic) {
  std::vector<InvocationId> first, second;
  run_fuzz(99, 3000, first);
  run_fuzz(99, 3000, second);
  EXPECT_EQ(first, second);
}

// --- Steal policy decisions -----------------------------------------------

TEST(StealPolicyTest, PickVictimTakesDeepestAboveThreshold) {
  StealPolicyOptions options;
  options.min_victim_backlog = 4;
  EXPECT_EQ(pick_victim({0, 9, 3, 12}, /*thief=*/0, options), 3u);
  EXPECT_EQ(pick_victim({0, 9, 3, 2}, 0, options), 1u);
  // Below threshold everywhere: no victim.
  EXPECT_EQ(pick_victim({3, 3, 3, 3}, 0, options), std::nullopt);
}

TEST(StealPolicyTest, PickVictimNeverPicksTheThief) {
  StealPolicyOptions options;
  options.min_victim_backlog = 1;
  EXPECT_EQ(pick_victim({20, 5}, /*thief=*/0, options), 1u);
  EXPECT_EQ(pick_victim({20}, 0, options), std::nullopt);
}

TEST(StealPolicyTest, PickVictimTiesBreakToLowerIndex) {
  StealPolicyOptions options;
  options.min_victim_backlog = 1;
  EXPECT_EQ(pick_victim({3, 8, 8, 8}, /*thief=*/1, options), 2u);
  EXPECT_EQ(pick_victim({8, 3, 8, 8}, 1, options), 0u);
}

TEST(StealPolicyTest, StealBudgetIsFractionRoundedUpAndCapped) {
  StealPolicyOptions options;
  options.steal_fraction = 0.5;
  options.max_steal = 8;
  EXPECT_EQ(steal_budget(1, options), 1u);   // ceil(0.5)
  EXPECT_EQ(steal_budget(7, options), 4u);   // ceil(3.5)
  EXPECT_EQ(steal_budget(100, options), 8u); // max_steal cap
  options.steal_fraction = 2.0;              // clamped to the backlog
  EXPECT_EQ(steal_budget(5, options), 5u);
}

TEST(StealPolicyTest, SelectPrefersWarmThenAffineThenRestNewestFirst) {
  // Backlog (front = oldest): f0 f1 f2 f0 f1 f2. Thief warm for f2,
  // affine for f1.
  std::deque<PendingItem> backlog;
  for (InvocationId id = 0; id < 6; ++id) {
    backlog.push_back({id, static_cast<FunctionId>(id % 3), 0});
  }
  const auto warm = [](FunctionId f) { return f == 2; };
  const auto affine = [](FunctionId f) { return f == 1; };
  // Budget 3: both f2 items (newest first: index 5 then 2), then the
  // newest f1 item (index 4). Output ascending for caller-side erase.
  const auto indices = select_steal_indices(backlog, 3, warm, affine);
  EXPECT_EQ(indices, (std::vector<std::size_t>{2, 4, 5}));
  // Budget 6 takes everything, still ascending.
  const auto all = select_steal_indices(backlog, 6, warm, affine);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(StealPolicyTest, SelectFallsBackToNewestOfTheRest) {
  std::deque<PendingItem> backlog;
  for (InvocationId id = 0; id < 4; ++id) backlog.push_back({id, 9, 0});
  const auto none = [](FunctionId) { return false; };
  // No warm or affine items: take the newest, leave the victim its
  // oldest (FIFO progress survives the steal).
  const auto indices = select_steal_indices(backlog, 2, none, none);
  EXPECT_EQ(indices, (std::vector<std::size_t>{2, 3}));
}

}  // namespace
}  // namespace faasbatch::cluster
