#include "live/dispatch/metrics.hpp"

#include <string>

namespace faasbatch::live::dispatch {

namespace {
std::string series(const char* name, std::size_t shard) {
  return std::string(name) + "{shard=\"" + std::to_string(shard) + "\"}";
}
}  // namespace

ShardInstruments shard_instruments(std::size_t shard) {
  obs::MetricsRegistry& registry = obs::metrics();
  return ShardInstruments{
      registry.counter(series("fb_dispatch_shard_enqueued_total", shard)),
      registry.counter(series("fb_dispatch_shard_shed_total", shard)),
      registry.counter(series("fb_dispatch_shard_overflow_total", shard)),
      registry.counter(series("fb_dispatch_shard_windows_total", shard)),
      registry.gauge(series("fb_dispatch_shard_depth", shard)),
      registry.gauge(series("fb_dispatch_shard_oldest_age_ms", shard)),
  };
}

}  // namespace faasbatch::live::dispatch
