#include "live/http_gateway.hpp"

#include <stdexcept>

#include "common/json.hpp"
#include "live/dispatch/metrics.hpp"
#include "live/functions.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace faasbatch::live {
namespace {

http::Response json_response(int status, const Json& body) {
  return http::Response::make(status, body.dump(), "application/json");
}

// Structured error body with a stable machine-readable code:
//   {"error": {"code": "...", "message": "..."}}
http::Response error_response(int status, const std::string& code,
                              const std::string& message) {
  Json error;
  error["code"] = code;
  error["message"] = message;
  Json body;
  body["error"] = error;
  return json_response(status, body);
}

/// Releases one OverloadGuard slot on scope exit.
struct AdmissionRelease {
  resilience::OverloadGuard& guard;
  ~AdmissionRelease() { guard.release(); }
};

}  // namespace

TargetParts parse_target(const std::string& target) {
  TargetParts parts;
  const auto question = target.find('?');
  const std::string path = target.substr(0, question);
  std::size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    auto end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    parts.segments.push_back(path.substr(start, end - start));
    start = end;
  }
  if (question != std::string::npos) {
    const std::string query = target.substr(question + 1);
    std::size_t pos = 0;
    while (pos < query.size()) {
      auto amp = query.find('&', pos);
      if (amp == std::string::npos) amp = query.size();
      const std::string pair = query.substr(pos, amp - pos);
      const auto eq = pair.find('=');
      if (eq != std::string::npos) {
        parts.query[pair.substr(0, eq)] = pair.substr(eq + 1);
      } else if (!pair.empty()) {
        parts.query[pair] = "";
      }
      pos = amp + 1;
    }
  }
  return parts;
}

namespace {
resilience::OverloadGuard::Options guard_options(const GatewayOptions& options) {
  resilience::OverloadGuard::Options guard;
  guard.max_inflight = options.max_inflight_invokes;
  guard.retry_after_seconds = options.retry_after_seconds;
  return guard;
}
}  // namespace

HttpGateway::HttpGateway(LivePlatform& platform, std::uint16_t port)
    : HttpGateway(platform, GatewayOptions{.port = port}) {}

HttpGateway::HttpGateway(LivePlatform& platform, GatewayOptions options)
    : platform_(platform),
      options_(options),
      invoke_guard_(guard_options(options_)),
      heartbeat_(platform.watchdog().register_source(
          "gateway", nullptr, platform.clock().now().count())),
      server_(options_.port,
              [this](const http::Request& request) { return handle(request); }) {
  // Serving a /metrics page implies the operator wants telemetry: turn
  // the registry on so the platform's instruments record. Tracing stays
  // opt-in (GET /trace?enable=1) because it buffers per-event data.
  obs::metrics().set_enabled(true);
  // Pre-register the core series so the very first scrape lists them at
  // zero instead of omitting series whose code paths haven't run yet.
  obs::metrics().counter("fb_live_requests_total");
  obs::metrics().counter("fb_cold_starts_total");
  obs::metrics().counter("fb_warm_hits_total");
  obs::metrics().counter("fb_mux_hits_total");
  obs::metrics().counter("fb_mux_misses_total");
  obs::metrics().counter("fb_mux_pending_waits_total");
  obs::metrics().counter("fb_live_shed_total");
  obs::metrics().counter("fb_live_deadline_expired_total");
  obs::metrics().counter("fb_live_cancelled_total");
  obs::metrics().quantile("fb_batch_size");
  obs::metrics().quantile("fb_cold_start_ms");
  obs::metrics().quantile("fb_response_latency_ms");
  obs::metrics().quantile("fb_live_queue_ms_quantiles");
  obs::metrics().quantile("fb_live_exec_ms_quantiles");
  // The flight recorder is the always-on black box: a served platform
  // keeps it recording so an incident dump has history to show.
  obs::flight().set_enabled(true);
  // Per-shard dispatch series: registering them up front makes shard
  // queue-depth gauges scrapeable from the first request.
  const DispatchStats dispatch = platform_.dispatch_stats();
  for (std::size_t shard = 0; shard < dispatch.shards; ++shard) {
    dispatch::shard_instruments(shard);
  }
}

HttpGateway::~HttpGateway() {
  // Runs before the server_ member destructor stops the accept loop;
  // the shared_ptr keeps the source alive for any in-flight beat.
  platform_.watchdog().unregister(heartbeat_);
}

http::Response HttpGateway::handle(const http::Request& request) {
  heartbeat_->beat(platform_.clock().now().count());
  try {
    return route(request);
  } catch (const std::exception& e) {
    // Last-resort catch: a handler bug must surface as a structured 500,
    // not tear down the connection thread.
    return error_response(500, "internal", e.what());
  }
}

http::Response HttpGateway::route(const http::Request& request) {
  const TargetParts parts = parse_target(request.target);
  if (parts.segments.empty()) {
    return error_response(404, "not_found", "no such endpoint");
  }
  const std::string& head = parts.segments.front();
  if (head == "healthz" && request.method == "GET") {
    return handle_healthz();
  }
  if (head == "debug" && request.method == "GET" &&
      parts.segments.size() == 2 && parts.segments[1] == "vars") {
    return handle_debug_vars();
  }
  if (head == "stats" && request.method == "GET") {
    return handle_stats();
  }
  if (head == "metrics" && request.method == "GET") {
    return handle_metrics();
  }
  if (head == "trace" && request.method == "GET") {
    return handle_trace(parts);
  }
  if (head == "functions" && request.method == "POST") {
    return handle_register(parts, request.body);
  }
  if (head == "invoke" && request.method == "POST") {
    return handle_invoke(parts, request.body);
  }
  if (head == "functions" || head == "invoke") {
    return error_response(405, "method_not_allowed",
                          "use POST for " + head + " endpoints");
  }
  return error_response(404, "not_found", "no such endpoint");
}

http::Response HttpGateway::handle_register(const TargetParts& parts,
                                            const std::string& body) {
  if (parts.segments.size() != 2) {
    return error_response(400, "invalid_request", "missing function name");
  }
  const std::string& name = parts.segments[1];
  try {
    // Registration options come from the JSON body when present, with
    // query parameters as the curl-friendly fallback.
    Json options;
    if (!body.empty()) {
      options = Json::parse(body);
      if (!options.is_object()) throw std::runtime_error("body must be an object");
    } else {
      Json from_query;
      for (const auto& [key, value] : parts.query) from_query[key] = value;
      options = std::move(from_query);
    }
    std::string type = options.get_string("type", "fib");
    if (type == "fib") {
      int n = 24;
      if (options.contains("n")) {
        const Json& field = options.at("n");
        n = field.is_string() ? std::stoi(field.as_string())
                              : static_cast<int>(field.as_int());
      }
      if (n < 1 || n > 40) throw std::invalid_argument("n outside [1, 40]");
      platform_.register_function(name, make_fib_handler(n));
    } else if (type == "io") {
      const std::string account = options.get_string("account", name);
      std::size_t payload = 1024;
      if (options.contains("payload")) {
        const Json& field = options.at("payload");
        payload = field.is_string()
                      ? static_cast<std::size_t>(std::stoull(field.as_string()))
                      : static_cast<std::size_t>(field.as_int());
      }
      platform_.register_function(name, make_io_handler(account, payload));
    } else {
      return error_response(400, "invalid_request", "unknown type " + type);
    }
  } catch (const std::exception& e) {
    return error_response(400, "invalid_request", e.what());
  }
  Json reply;
  reply["registered"] = name;
  return json_response(200, reply);
}

http::Response HttpGateway::shed_response(const std::string& code,
                                          const std::string& message) {
  http::Response response = error_response(options_.shed_status, code, message);
  response.headers["Retry-After"] = std::to_string(options_.retry_after_seconds);
  return response;
}

http::Response HttpGateway::handle_invoke(const TargetParts& parts,
                                          const std::string& body) {
  if (parts.segments.size() != 2) {
    return error_response(400, "invalid_request", "missing function name");
  }
  std::chrono::milliseconds deadline = options_.default_deadline;
  const auto deadline_param = parts.query.find("deadline_ms");
  if (deadline_param != parts.query.end()) {
    try {
      const long long ms = std::stoll(deadline_param->second);
      if (ms < 0) throw std::invalid_argument("negative");
      deadline = std::chrono::milliseconds(ms);
    } catch (const std::exception&) {
      return error_response(400, "invalid_request",
                            "deadline_ms must be a non-negative integer");
    }
  }
  // Bounded admission: shed before touching the platform so an
  // overloaded gateway answers fast instead of queueing blocked
  // connection threads.
  if (!invoke_guard_.try_admit()) {
    return shed_response("overloaded",
                         "too many in-flight invocations; retry later");
  }
  AdmissionRelease release{invoke_guard_};
  try {
    // Like the paper's platform, the HTTP reply returns only after the
    // invocation (and, for batched groups, its execution) completes.
    // The request body travels to the handler as the payload.
    const InvocationReport report =
        platform_.invoke(parts.segments[1], body, deadline).get();
    switch (report.status) {
      case InvocationStatus::kOk:
        break;
      case InvocationStatus::kShed:
        return shed_response("overloaded",
                             "platform dispatch queue is full; retry later");
      case InvocationStatus::kDeadlineExpired:
        return error_response(504, "deadline_exceeded",
                              "deadline expired before execution started");
      case InvocationStatus::kCancelled:
        return error_response(503, "shutting_down",
                              "platform is draining; no new invocations");
    }
    Json reply;
    reply["queue_ms"] = report.queue_ms;
    reply["exec_ms"] = report.exec_ms;
    reply["total_ms"] = report.total_ms;
    return json_response(200, reply);
  } catch (const std::invalid_argument& e) {
    return error_response(404, "unknown_function", e.what());
  }
}

namespace {
/// Age in ms of a shard's oldest pending entry (0 when the shard is
/// empty — kNoPending is the "nothing waiting" sentinel).
double shard_oldest_age_ms(const dispatch::ShardSnapshot& snap,
                           std::int64_t now_ns) {
  if (snap.oldest_ns == dispatch::kNoPending) return 0.0;
  return static_cast<double>(now_ns - snap.oldest_ns) / 1e6;
}
}  // namespace

DispatchStats HttpGateway::refresh_dispatch_gauges() const {
  DispatchStats dispatch = platform_.dispatch_stats();
  const std::int64_t now_ns = platform_.clock().now().count();
  for (const auto& snap : dispatch.shard_stats) {
    dispatch::ShardInstruments instruments = dispatch::shard_instruments(snap.shard);
    instruments.depth.set(static_cast<double>(snap.depth));
    instruments.oldest_age_ms.set(shard_oldest_age_ms(snap, now_ns));
  }
  return dispatch;
}

http::Response HttpGateway::handle_healthz() const {
  const obs::WatchdogReport report =
      platform_.watchdog().scan(platform_.clock().now().count());
  Json body = report.to_json();
  body["status"] = report.healthy ? "ok" : "stalled";
  // 503 flags the stalled pipeline to load balancers; the body names the
  // wedged source (e.g. "shard/2") for the operator.
  return json_response(report.healthy ? 200 : 503, body);
}

http::Response HttpGateway::handle_debug_vars() const {
  refresh_dispatch_gauges();
  Json body;
  body["metrics"] = obs::metrics().snapshot();
  body["watchdog"] =
      platform_.watchdog().scan(platform_.clock().now().count()).to_json();
  Json flight;
  flight["enabled"] = obs::flight().enabled();
  flight["incidents"] =
      static_cast<std::int64_t>(obs::flight().incident_count());
  const Json last = obs::flight().last_incident();
  if (!last.is_null()) flight["last_incident"] = last;
  body["flight"] = flight;
  return json_response(200, body);
}

http::Response HttpGateway::handle_metrics() const {
  refresh_dispatch_gauges();
  return http::Response::make(200, obs::metrics().prometheus_text(),
                              "text/plain; version=0.0.4");
}

http::Response HttpGateway::handle_trace(const TargetParts& parts) {
  const auto enable = parts.query.find("enable");
  if (enable != parts.query.end()) {
    obs::tracer().set_enabled(enable->second != "0");
  }
  return json_response(200, obs::tracer().chrome_json());
}

http::Response HttpGateway::handle_stats() const {
  Json body;
  body["containers_created"] = platform_.containers_created();
  body["client_creations"] = platform_.client_creations();
  body["store_objects"] = static_cast<std::int64_t>(platform_.store().object_count());
  body["policy"] =
      platform_.options().policy == LivePolicy::kFaasBatch ? "faasbatch" : "vanilla";
  const DispatchStats dispatch = refresh_dispatch_gauges();
  const std::int64_t now_ns = platform_.clock().now().count();
  Json dispatch_body;
  dispatch_body["shards"] = static_cast<std::int64_t>(dispatch.shards);
  Json shard_list{JsonArray{}};
  for (const auto& snap : dispatch.shard_stats) {
    Json entry;
    entry["shard"] = static_cast<std::int64_t>(snap.shard);
    entry["depth"] = static_cast<std::int64_t>(snap.depth);
    entry["enqueued"] = static_cast<std::int64_t>(snap.enqueued);
    entry["shed"] = static_cast<std::int64_t>(snap.shed);
    entry["overflow"] = static_cast<std::int64_t>(snap.overflow);
    entry["windows"] = static_cast<std::int64_t>(snap.windows);
    entry["oldest_age_ms"] = shard_oldest_age_ms(snap, now_ns);
    shard_list.push_back(entry);
  }
  dispatch_body["shard_stats"] = shard_list;
  body["dispatch"] = dispatch_body;
  return json_response(200, body);
}

}  // namespace faasbatch::live
