// Tests for the live platform's HTTP gateway.
#include <gtest/gtest.h>

#include <future>
#include <latch>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "http/client.hpp"
#include "live/http_gateway.hpp"

namespace faasbatch::live {
namespace {

LivePlatformOptions fast_options() {
  LivePlatformOptions options;
  options.policy = LivePolicy::kFaasBatch;
  options.window = std::chrono::milliseconds(10);
  options.container.threads = 2;
  options.container.cold_start_work_ms = 0.5;
  options.container.base_memory_bytes = 16 * kKiB;
  options.client_factory.creation_work_ms = 0.5;
  options.client_factory.client_buffer_bytes = 16 * kKiB;
  return options;
}

TEST(ParseTargetTest, SegmentsAndQuery) {
  const TargetParts parts = parse_target("/invoke/fib?x=1&y=two&flag");
  ASSERT_EQ(parts.segments.size(), 2u);
  EXPECT_EQ(parts.segments[0], "invoke");
  EXPECT_EQ(parts.segments[1], "fib");
  EXPECT_EQ(parts.query.at("x"), "1");
  EXPECT_EQ(parts.query.at("y"), "two");
  EXPECT_EQ(parts.query.at("flag"), "");
}

TEST(ParseTargetTest, RootAndTrailingSlash) {
  EXPECT_TRUE(parse_target("/").segments.empty());
  const TargetParts parts = parse_target("/a/b/");
  ASSERT_EQ(parts.segments.size(), 2u);
  EXPECT_EQ(parts.segments[1], "b");
}

class GatewayFixture : public ::testing::Test {
 protected:
  GatewayFixture() : platform_(fast_options()), gateway_(platform_, 0) {}

  LivePlatform platform_;
  HttpGateway gateway_;
};

TEST_F(GatewayFixture, HealthCheck) {
  http::Client client(gateway_.port());
  const auto response = client.get("/healthz");
  EXPECT_EQ(response.status, 200);
  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("status").as_string(), "ok");
  EXPECT_TRUE(body.at("healthy").as_bool());
  EXPECT_TRUE(body.at("stalled").as_array().empty());
  // Every dispatch loop reports: the shards and the gateway's own accept
  // loop.
  bool saw_gateway = false;
  for (const Json& source : body.at("sources").as_array()) {
    if (source.at("name").as_string() == "gateway") saw_gateway = true;
  }
  EXPECT_TRUE(saw_gateway);
}

TEST(GatewayHealthTest, WedgedShardTurnsHealthz503NamingTheShard) {
  // Same wedge as watchdog_test, observed through the HTTP surface: a
  // 10 s window with a 100 ms stall threshold, one request parked in a
  // shard, virtual time advanced past the threshold but short of the
  // window. /healthz must flip to 503 and name the stalled shard.
  VirtualClock clock;
  LivePlatformOptions options;
  options.policy = LivePolicy::kFaasBatch;
  options.clock = &clock;
  options.shards = 4;
  options.window = std::chrono::milliseconds(10'000);
  options.stall_threshold = std::chrono::milliseconds(100);
  LivePlatform platform(options);
  HttpGateway gateway(platform, 0);
  platform.register_function("f", [](FunctionContext&) {});

  http::Client client(gateway.port());
  ASSERT_EQ(client.get("/healthz").status, 200);

  auto future = platform.invoke("f");
  std::string wedged;
  for (const auto& snap : platform.dispatch_stats().shard_stats) {
    if (snap.depth > 0) wedged = "shard/" + std::to_string(snap.shard);
  }
  ASSERT_FALSE(wedged.empty());

  clock.advance(std::chrono::milliseconds(200));
  const auto response = client.get("/healthz");
  EXPECT_EQ(response.status, 503);
  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("status").as_string(), "stalled");
  EXPECT_FALSE(body.at("healthy").as_bool());
  ASSERT_EQ(body.at("stalled").as_array().size(), 1u);
  EXPECT_EQ(body.at("stalled").as_array()[0].as_string(), wedged);

  // While wedged, /stats reports the pending entry's age on that shard.
  const Json stats = Json::parse(client.get("/stats").body);
  bool saw_aged_shard = false;
  for (const Json& shard : stats.at("dispatch").at("shard_stats").as_array()) {
    if ("shard/" + std::to_string(shard.at("shard").as_int()) != wedged)
      continue;
    saw_aged_shard = true;
    EXPECT_EQ(shard.at("depth").as_int(), 1);
    EXPECT_NEAR(shard.at("oldest_age_ms").as_double(), 200.0, 1e-6);
  }
  EXPECT_TRUE(saw_aged_shard);

  // Liveness pacing, not a timing assumption: advance until the flush
  // thread has woken, drained the window, and resolved the future.
  for (int i = 0; i < 10000; ++i) {
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      break;
    clock.advance(std::chrono::milliseconds(1000));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // fb-lint-allow(raw-clock)
  }
  future.get();
  EXPECT_EQ(client.get("/healthz").status, 200);
  platform.shutdown();
  platform.drain();
}

TEST_F(GatewayFixture, DebugVarsServesOneDiagnosticsPage) {
  http::Client client(gateway_.port());
  client.post("/functions/fib?type=fib&n=10", "");
  client.post("/invoke/fib", "");
  const auto response = client.get("/debug/vars");
  EXPECT_EQ(response.status, 200);
  const Json body = Json::parse(response.body);
  // One page, three subsystems: metrics snapshot, watchdog report,
  // flight-recorder status.
  EXPECT_TRUE(body.at("metrics").contains("counters"));
  EXPECT_TRUE(body.at("metrics").contains("quantiles"));
  EXPECT_TRUE(body.at("watchdog").at("healthy").as_bool());
  EXPECT_TRUE(body.at("flight").at("enabled").as_bool());
  EXPECT_GE(body.at("flight").at("incidents").as_int(), 0);
}

TEST_F(GatewayFixture, RegisterAndInvokeFib) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.post("/functions/fib?type=fib&n=15", "").status, 200);
  const auto response = client.post("/invoke/fib", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"exec_ms\":"), std::string::npos);
}

TEST_F(GatewayFixture, RegisterAndInvokeIo) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.post("/functions/up?type=io&account=acct&payload=64", "").status,
            200);
  EXPECT_EQ(client.post("/invoke/up", "").status, 200);
  EXPECT_GT(platform_.store().object_count(), 0u);
}

TEST_F(GatewayFixture, InvokeUnknownFunctionIs404) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.post("/invoke/ghost", "").status, 404);
}

TEST_F(GatewayFixture, BadRegistrationIs400) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.post("/functions/x?type=nope", "").status, 400);
  EXPECT_EQ(client.post("/functions/x?type=fib&n=99", "").status, 400);
  EXPECT_EQ(client.post("/functions", "").status, 400);
}

TEST_F(GatewayFixture, MethodAndPathErrors) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.get("/invoke/x").status, 405);
  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.get("/").status, 404);
}

TEST_F(GatewayFixture, StatsReflectActivity) {
  http::Client client(gateway_.port());
  client.post("/functions/fib?type=fib&n=10", "");
  client.post("/invoke/fib", "");
  const auto stats = client.get("/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"containers_created\":1"), std::string::npos);
  EXPECT_NE(stats.body.find("\"policy\":\"faasbatch\""), std::string::npos);
}

TEST_F(GatewayFixture, RegisterViaJsonBody) {
  http::Client client(gateway_.port());
  EXPECT_EQ(client.post("/functions/fib", R"({"type":"fib","n":12})").status, 200);
  EXPECT_EQ(client.post("/invoke/fib", "").status, 200);
  // Malformed JSON body is a 400, not a crash.
  EXPECT_EQ(client.post("/functions/x", "{not json").status, 400);
  EXPECT_EQ(client.post("/functions/x", "[1,2]").status, 400);
}

TEST_F(GatewayFixture, InvokePayloadReachesHandler) {
  http::Client client(gateway_.port());
  client.post("/functions/up", R"({"type":"io","account":"acct"})");
  EXPECT_EQ(client.post("/invoke/up", "custom-object-content").status, 200);
  // The payload became the stored object's content.
  bool found = false;
  for (int i = 0; i < 16 && !found; ++i) {
    const auto value = platform_.store().get("acct/obj-" + std::to_string(i));
    if (value && *value == "custom-object-content") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(GatewayFixture, InvokeReplyIsValidJson) {
  http::Client client(gateway_.port());
  client.post("/functions/fib?type=fib&n=10", "");
  const auto response = client.post("/invoke/fib", "");
  const Json reply = Json::parse(response.body);
  EXPECT_GE(reply.at("total_ms").as_double(), reply.at("exec_ms").as_double());
  EXPECT_GE(reply.at("queue_ms").as_double(), 0.0);
}

TEST_F(GatewayFixture, ConcurrentInvocationsThroughGateway) {
  {
    http::Client client(gateway_.port());
    client.post("/functions/fib?type=fib&n=12", "");
  }
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &ok] {
      http::Client client(gateway_.port());
      for (int i = 0; i < 10; ++i) {
        if (client.post("/invoke/fib", "").status == 200) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 40);
  // Batched through FaaSBatch: far fewer containers than invocations.
  EXPECT_LE(platform_.containers_created(), 3u);
}

// Every error response carries {"error": {"code", "message"}} with a
// stable machine-readable code — clients branch on the code, not on
// prose. This is the regression suite for that contract.
TEST_F(GatewayFixture, ErrorBodiesAreStructuredWithStableCodes) {
  http::Client client(gateway_.port());
  const auto expect_code = [](const http::Response& response, int status,
                              const std::string& code) {
    EXPECT_EQ(response.status, status) << response.body;
    const Json body = Json::parse(response.body);
    const Json& error = body.at("error");
    EXPECT_EQ(error.at("code").as_string(), code);
    EXPECT_FALSE(error.at("message").as_string().empty());
  };
  expect_code(client.post("/invoke/ghost", ""), 404, "unknown_function");
  expect_code(client.get("/nope"), 404, "not_found");
  expect_code(client.get("/"), 404, "not_found");
  expect_code(client.get("/invoke/x"), 405, "method_not_allowed");
  expect_code(client.post("/invoke", ""), 400, "invalid_request");
  expect_code(client.post("/functions/x", "{not json"), 400, "invalid_request");
  expect_code(client.post("/functions/x?type=nope", ""), 400, "invalid_request");
  expect_code(client.post("/functions", ""), 400, "invalid_request");
  expect_code(client.post("/invoke/ghost?deadline_ms=abc", ""), 400,
              "invalid_request");
  expect_code(client.post("/invoke/ghost?deadline_ms=-5", ""), 400,
              "invalid_request");
}

TEST_F(GatewayFixture, DeadlineExpiredInvokeIs504) {
  // The fixture's dispatch window is 10 ms, so a 1 ms deadline always
  // expires by the time the window flushes: deterministic 504, and the
  // handler never runs.
  http::Client client(gateway_.port());
  ASSERT_EQ(client.post("/functions/fib?type=fib&n=15", "").status, 200);
  const auto response = client.post("/invoke/fib?deadline_ms=1", "");
  EXPECT_EQ(response.status, 504);
  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("error").at("code").as_string(), "deadline_exceeded");
  // An un-deadlined invoke on the same platform still succeeds.
  EXPECT_EQ(client.post("/invoke/fib", "").status, 200);
}

TEST(GatewayOverloadTest, ShedsAboveInflightCapWithRetryAfter) {
  LivePlatform platform(fast_options());
  GatewayOptions options;
  options.max_inflight_invokes = 1;
  options.retry_after_seconds = 7;
  HttpGateway gateway(platform, options);

  // The handler proves the first invoke is in flight (latch), then holds
  // it there (gate) while the second request arrives — admission is
  // decided by synchronisation, not timing.
  std::latch started(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  platform.register_function("block", [&started, open](FunctionContext&) {
    started.count_down();
    open.wait();
  });

  std::thread first([&] {
    http::Client client(gateway.port());
    EXPECT_EQ(client.post("/invoke/block", "").status, 200);
  });
  started.wait();  // first request admitted and executing

  http::Client client(gateway.port());
  const auto shed = client.post("/invoke/block", "");
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.headers.at("Retry-After"), "7");
  const Json body = Json::parse(shed.body);
  EXPECT_EQ(body.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(gateway.invokes_shed(), 1u);

  gate.set_value();
  first.join();
  // Slot released: the next invoke is admitted again.
  EXPECT_EQ(client.post("/invoke/block", "").status, 200);
}

TEST(GatewayOverloadTest, ShedStatusConfigurableTo429) {
  LivePlatform platform(fast_options());
  GatewayOptions options;
  options.max_inflight_invokes = 1;
  options.shed_status = 429;
  HttpGateway gateway(platform, options);

  std::latch started(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  platform.register_function("block", [&started, open](FunctionContext&) {
    started.count_down();
    open.wait();
  });
  std::thread first([&] {
    http::Client client(gateway.port());
    EXPECT_EQ(client.post("/invoke/block", "").status, 200);
  });
  started.wait();
  http::Client client(gateway.port());
  const auto shed = client.post("/invoke/block", "");
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(Json::parse(shed.body).at("error").at("code").as_string(),
            "overloaded");
  gate.set_value();
  first.join();
}

TEST(GatewayOverloadTest, DrainingPlatformReturnsShuttingDown) {
  LivePlatform platform(fast_options());
  HttpGateway gateway(platform, 0);
  platform.register_function("fib", [](FunctionContext&) {});
  platform.shutdown();
  http::Client client(gateway.port());
  const auto response = client.post("/invoke/fib", "");
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(Json::parse(response.body).at("error").at("code").as_string(),
            "shutting_down");
}

TEST_F(GatewayFixture, MetricsEndpointServesPrometheusText) {
  http::Client client(gateway_.port());
  ASSERT_EQ(client.post("/functions/fib?type=fib&n=12", "").status, 200);
  ASSERT_EQ(client.post("/invoke/fib", "").status, 200);
  const auto response = client.get("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.at("Content-Type").find("text/plain"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE fb_live_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("fb_cold_starts_total"), std::string::npos);
  // Every distribution is one summary; no fixed-bucket histogram lines.
  EXPECT_NE(response.body.find("# TYPE fb_batch_size summary"), std::string::npos);
  EXPECT_EQ(response.body.find("_bucket"), std::string::npos);
  // Pre-registered series appear even before their code paths run.
  EXPECT_NE(response.body.find("fb_mux_hits_total"), std::string::npos);
  EXPECT_NE(response.body.find("fb_mux_misses_total"), std::string::npos);
  // Latency quantiles: the platform-wide summaries and the per-function
  // series labelled with the invoked function.
  EXPECT_NE(response.body.find("# TYPE fb_live_exec_ms_quantiles summary"),
            std::string::npos);
  EXPECT_NE(response.body.find("fb_live_exec_ms_quantiles{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("fb_live_queue_ms_quantiles{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "fb_live_exec_ms_quantiles{function=\"fib\",quantile=\"0.5\"}"),
            std::string::npos);
  // Per-shard pipeline gauges refreshed at scrape time.
  EXPECT_NE(response.body.find("fb_dispatch_shard_depth"), std::string::npos);
  EXPECT_NE(response.body.find("fb_dispatch_shard_oldest_age_ms"),
            std::string::npos);
}

TEST_F(GatewayFixture, TraceEndpointTogglesAndDrainsChromeJson) {
  http::Client client(gateway_.port());
  ASSERT_EQ(client.post("/functions/fib?type=fib&n=12", "").status, 200);
  ASSERT_EQ(client.get("/trace?enable=1").status, 200);
  ASSERT_EQ(client.post("/invoke/fib", "").status, 200);
  const auto response = client.get("/trace?enable=0");
  EXPECT_EQ(response.status, 200);
  const Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  bool saw_invocation = false;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "invocation") saw_invocation = true;
  }
  EXPECT_TRUE(saw_invocation);
  // Drained and disabled: a fresh invocation adds nothing.
  ASSERT_EQ(client.post("/invoke/fib", "").status, 200);
  const Json empty = Json::parse(client.get("/trace").body);
  EXPECT_TRUE(empty.at("traceEvents").as_array().empty());
}

}  // namespace
}  // namespace faasbatch::live
