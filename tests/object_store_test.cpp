// Tests for the in-memory object store.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/object_store.hpp"

namespace faasbatch::storage {
namespace {

TEST(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store;
  store.put("a", "hello");
  const auto value = store.get("a");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "hello");
}

TEST(ObjectStoreTest, GetMissingReturnsNullopt) {
  ObjectStore store;
  EXPECT_FALSE(store.get("missing").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ObjectStoreTest, PutReplaces) {
  ObjectStore store;
  store.put("k", "v1");
  store.put("k", "longer-value");
  EXPECT_EQ(*store.get("k"), "longer-value");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.total_bytes(), static_cast<Bytes>(12));
}

TEST(ObjectStoreTest, RemoveTracksBytes) {
  ObjectStore store;
  store.put("a", "12345");
  store.put("b", "123");
  EXPECT_EQ(store.total_bytes(), 8);
  EXPECT_TRUE(store.remove("a"));
  EXPECT_EQ(store.total_bytes(), 3);
  EXPECT_FALSE(store.remove("a"));
  EXPECT_FALSE(store.exists("a"));
  EXPECT_TRUE(store.exists("b"));
}

TEST(ObjectStoreTest, StatsCountOperations) {
  ObjectStore store;
  store.put("a", "x");
  store.get("a");
  store.get("nope");
  store.remove("a");
  store.remove("a");
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.deletes, 2u);
  EXPECT_EQ(stats.misses, 2u);  // one get miss + one delete miss
}

TEST(ObjectStoreTest, OpLatencyModelScalesWithSize) {
  OpLatencyModel model;
  EXPECT_EQ(model.op_latency(0), model.base);
  EXPECT_GT(model.op_latency(from_mib(10.0)), model.op_latency(from_mib(1.0)));
  EXPECT_EQ(model.op_latency(kMiB), model.base + model.per_mib);
}

TEST(ObjectStoreTest, ConcurrentAccessIsSafe) {
  ObjectStore store;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Appended, not "k" + std::to_string(...): GCC 12 reports a false
        // -Wrestrict on that inlined concatenation in Release builds.
        std::string key = "k";
        key += std::to_string((t * kOpsPerThread + i) % 32);
        store.put(key, std::string(16, 'a'));
        (void)store.get(key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(store.stats().puts, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_LE(store.object_count(), 32u);
}

}  // namespace
}  // namespace faasbatch::storage
