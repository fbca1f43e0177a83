#include "live_rig.hpp"

#include <functional>
#include <thread>

#include "common/hash.hpp"
#include "live/functions.hpp"
#include "storage/client.hpp"

namespace perfbench {
using namespace faasbatch;

const std::vector<LiveFunction>& live_functions() {
  static const std::vector<LiveFunction> functions = {
      {"fib-18", 18}, {"fib-20", 20}, {"fib-22", 22}, {"fib-23", 23},
      {"io-a", 0},    {"io-b", 0},    {"io-c", 0},    {"io-d", 0},
  };
  return functions;
}

namespace {

live::FunctionHandler checked_io_handler(const std::string& account, IoCheck& io) {
  const std::uint64_t hash = ArgsHasher()
                                 .add("service", "s3")
                                 .add("account", account)
                                 .add("region", "us-east-1")
                                 .digest();
  return [account, hash, &io](live::FunctionContext& context) {
    auto client = context.mux.get_or_create<storage::StorageClient>(
        "s3_client", hash, [&context, hash]() { return context.clients.create(hash); });
    // One key per container thread: no other invocation can overwrite it
    // between this handler's write and its read.
    const std::string key =
        account + "/" +
        std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    client->put(key, context.payload);
    const std::optional<std::string> back = client->get(key);
    io.calls.fetch_add(1, std::memory_order_relaxed);
    if (!back || *back != context.payload) {
      io.mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

}  // namespace

void register_live_functions(live::LivePlatform& platform, IoCheck& io) {
  for (const auto& f : live_functions()) {
    platform.register_function(f.name, f.fib_n > 0 ? live::make_fib_handler(f.fib_n)
                                                   : checked_io_handler(f.name, io));
  }
}

LiveRequest draw_request(Rng& rng) {
  LiveRequest request;
  const auto& functions = live_functions();
  request.function = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(functions.size()) - 1));
  if (functions[request.function].fib_n == 0) {
    request.payload.resize(static_cast<std::size_t>(rng.uniform_int(64, 512)));
    for (char& c : request.payload) c = static_cast<char>('a' + rng.uniform_int(0, 25));
  }
  return request;
}

PlatformCounters snapshot(const live::LivePlatform& platform, const IoCheck& io) {
  PlatformCounters c;
  c.containers = platform.containers_created();
  c.client_creations = platform.client_creations();
  for (const auto& shard : platform.dispatch_stats().shard_stats) {
    c.enqueued += shard.enqueued;
    c.windows += shard.windows;
    c.overflow += shard.overflow;
  }
  c.context_switches = context_switches();
  c.io_calls = io.calls.load(std::memory_order_relaxed);
  return c;
}

void fill_live_layers(Report& report, const PlatformCounters& before,
                      const PlatformCounters& after, std::uint64_t completed) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double windows = delta(before.windows, after.windows);
  const double io_calls = delta(before.io_calls, after.io_calls);
  const double creations = delta(before.client_creations, after.client_creations);
  auto& metrics = report.metrics;
  metrics["live.cold_starts"] = delta(before.containers, after.containers);
  metrics["dispatch.batch_mean"] =
      windows > 0 ? delta(before.enqueued, after.enqueued) / windows : 0.0;
  metrics["dispatch.overflow"] = delta(before.overflow, after.overflow);
  metrics["storage.client_creations"] = creations;
  metrics["core.mux_hit_share"] = io_calls > 0 ? 1.0 - creations / io_calls : 0.0;
  metrics["proc.csw_per_inv"] =
      completed > 0 ? delta(before.context_switches, after.context_switches) /
                          static_cast<double>(completed)
                    : 0.0;
  metrics["proc.threads"] = static_cast<double>(thread_count());
  metrics["proc.fds"] = static_cast<double>(fd_count());
}

void note_windows(const std::vector<double>& cpu_us, const std::vector<double>& ips) {
  std::string line = "windows (cpu_us_per_inv@throughput):";
  for (std::size_t w = 0; w < cpu_us.size() && w < ips.size(); ++w) {
    line += ' ';
    line += std::to_string(cpu_us[w]);
    line += "us@";
    line += std::to_string(ips[w]);
    line += "/s";
  }
  note(line);
}

}  // namespace perfbench
