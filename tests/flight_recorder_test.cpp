// FlightRecorder tests: ring retention semantics, incident dump shape
// and file output, dump determinism under a seeded FaultPlan (two
// identical chaos runs produce byte-identical black boxes), and the
// platform's shed-burst dump trigger.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "live/live_platform.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/workload.hpp"

namespace faasbatch {
namespace {

/// Restores the global recorder to a pristine disabled state on scope
/// exit so tests never leak configuration into each other.
struct GlobalFlightGuard {
  GlobalFlightGuard() {
    obs::flight().set_dump_dir("");
    obs::flight().clear();
    obs::flight().set_enabled(true);
  }
  ~GlobalFlightGuard() {
    obs::flight().set_enabled(false);
    obs::flight().set_dump_dir("");
    obs::flight().clear();
  }
};

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  obs::FlightRecorder recorder;
  recorder.record(obs::FlightEventKind::kEnqueue, 0, 1, 2, 3);
  EXPECT_TRUE(recorder.incident("nothing", 0).is_null());
  EXPECT_EQ(recorder.incident_count(), 0u);
  const Json dump = recorder.dump();
  EXPECT_TRUE(dump.at("threads").as_array().empty());
}

TEST(FlightRecorderTest, RingKeepsLastCapacityEvents) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  const std::size_t total = obs::FlightRecorder::kRingCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record(obs::FlightEventKind::kExec, 1,
                    static_cast<std::int64_t>(i), i, i, i);
  }
  const Json dump = recorder.dump();
  ASSERT_EQ(dump.at("threads").as_array().size(), 1u);
  const JsonArray& events =
      dump.at("threads").as_array()[0].at("events").as_array();
  ASSERT_EQ(events.size(), obs::FlightRecorder::kRingCapacity);
  // Oldest events were overwritten; what's left is the trailing window,
  // in sequence order.
  std::int64_t last_seq = 0;
  for (const Json& event : events) {
    const std::int64_t seq = event.at("seq").as_int();
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  EXPECT_EQ(events[0].at("seq").as_int(),
            static_cast<std::int64_t>(total - obs::FlightRecorder::kRingCapacity + 1));
}

TEST(FlightRecorderTest, IncidentDumpShapeAndFileOutput) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fb_flight_test").string();
  std::filesystem::remove_all(dir);

  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_dump_dir(dir);
  const std::uint64_t id = 7;
  const std::uint64_t root = obs::invocation_root_span(id);
  recorder.record(obs::FlightEventKind::kEnqueue, 2, 100, id, root);
  recorder.record(obs::FlightEventKind::kExec, 2, 200, id,
                  obs::attempt_span(root, 1), 1);

  const Json incident = recorder.incident("deadline_expired", 300, id, root);
  EXPECT_EQ(incident.at("reason").as_string(), "deadline_expired");
  EXPECT_EQ(incident.at("id").as_int(), static_cast<std::int64_t>(id));
  EXPECT_EQ(incident.at("span").as_string(), obs::span_hex(root));
  EXPECT_EQ(incident.at("incident_seq").as_int(), 1);
  EXPECT_EQ(recorder.incident_count(), 1u);

  // The buffered events reference the invocation's span tree: the root
  // span on the enqueue, the derived attempt span on the exec.
  const JsonArray& events =
      incident.at("threads").as_array()[0].at("events").as_array();
  ASSERT_EQ(events.size(), 3u);  // enqueue, exec, the incident marker
  EXPECT_EQ(events[0].at("span").as_string(), obs::span_hex(root));
  EXPECT_EQ(events[1].at("span").as_string(),
            obs::span_hex(obs::attempt_span(root, 1)));
  EXPECT_EQ(events[2].at("kind").as_string(), "incident");

  // last_incident() returns the same document; the dump file landed in
  // the configured directory under the documented name.
  EXPECT_EQ(recorder.last_incident().dump(), incident.dump());
  const std::string path = dir + "/flight_incident_1_deadline_expired.json";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const Json parsed = Json::parse(buffer.str());
  EXPECT_EQ(parsed.at("reason").as_string(), "deadline_expired");
  std::filesystem::remove_all(dir);
}

/// Runs one seeded chaos experiment against the global recorder and
/// returns (incident count, last incident JSON text).
std::pair<std::uint64_t, std::string> run_seeded_chaos() {
  obs::flight().clear();
  trace::WorkloadSpec workload_spec;
  workload_spec.invocations = 200;
  workload_spec.seed = 42;
  const trace::Workload workload = trace::synthesize_workload(workload_spec);
  eval::ExperimentSpec spec;
  spec.scheduler = schedulers::SchedulerKind::kFaasBatch;
  spec.fault_plan.seed = 42;
  spec.fault_plan.exec_error_rate = 0.5;
  const eval::ExperimentResult result = eval::run_experiment(spec, workload);
  EXPECT_GT(result.failed, 0u) << "plan injected no terminal failures";
  return {obs::flight().incident_count(), obs::flight().last_incident().dump()};
}

TEST(FlightRecorderTest, SeededChaosDumpIsDeterministic) {
  GlobalFlightGuard guard;
  const auto [count_a, dump_a] = run_seeded_chaos();
  const auto [count_b, dump_b] = run_seeded_chaos();
  ASSERT_GT(count_a, 0u);
  EXPECT_EQ(count_a, count_b);
  // Same seed, same plan, cleared recorder: the black box is
  // byte-identical across runs.
  EXPECT_EQ(dump_a, dump_b);

  // The incident references the failing invocation's span id, and the
  // buffered events carry its per-attempt spans.
  const Json last = Json::parse(dump_a);
  EXPECT_EQ(last.at("reason").as_string(), "terminal_failure");
  const auto id = static_cast<std::uint64_t>(last.at("id").as_int());
  const std::uint64_t root = obs::invocation_root_span(id);
  EXPECT_EQ(last.at("span").as_string(), obs::span_hex(root));
  bool found_fault_event = false;
  for (const Json& thread : last.at("threads").as_array()) {
    for (const Json& event : thread.at("events").as_array()) {
      if (event.at("kind").as_string() == "fault" &&
          static_cast<std::uint64_t>(event.at("id").as_int()) == id) {
        found_fault_event = true;
        // Attempt spans derive from the root: recompute and match.
        const auto attempt =
            static_cast<std::uint32_t>(event.at("arg").as_int());
        EXPECT_EQ(event.at("span").as_string(),
                  obs::span_hex(obs::attempt_span(root, attempt)));
      }
    }
  }
  EXPECT_TRUE(found_fault_event)
      << "no fault event for failing invocation " << id << " in the dump";
}

TEST(FlightRecorderTest, ShedBurstTriggersOneIncident) {
  GlobalFlightGuard guard;
  VirtualClock clock;  // pinned: windows never flush, the queue stays full
  live::LivePlatformOptions options;
  options.policy = live::LivePolicy::kFaasBatch;
  options.clock = &clock;
  options.shards = 1;
  options.max_queue = 1;
  live::LivePlatform platform(options);
  platform.register_function("f", [](live::FunctionContext&) {});

  std::vector<std::future<live::InvocationReport>> futures;
  // 1 admitted + 40 consecutive sheds: the burst crosses the incident
  // threshold exactly once.
  for (int i = 0; i < 41; ++i) futures.push_back(platform.invoke("f"));
  EXPECT_EQ(obs::flight().incident_count(), 1u);
  const Json last = obs::flight().last_incident();
  EXPECT_EQ(last.at("reason").as_string(), "shed_burst");
  platform.shutdown();
  platform.drain();
  for (auto& f : futures) f.get();
}

}  // namespace
}  // namespace faasbatch
