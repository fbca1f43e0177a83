#include "core/invoke_mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace faasbatch::core {
namespace {

obs::Counter& windows_flushed_total() {
  static obs::Counter& c = obs::metrics().counter("fb_windows_flushed_total");
  return c;
}

obs::QuantileHistogram& batch_size_histogram() {
  static obs::QuantileHistogram& h = obs::metrics().quantile("fb_batch_size");
  return h;
}

}  // namespace

InvokeMapper::InvokeMapper(SimDuration window) : window_(window) {
  if (window <= 0) throw std::invalid_argument("InvokeMapper: window must be > 0");
}

bool InvokeMapper::add(SimTime now, InvocationId id, FunctionId function) {
  const bool opened = !window_open_;
  if (opened) {
    window_open_ = true;
    window_opened_at_ = now;
  }
  auto it = std::find_if(buckets_.begin(), buckets_.end(),
                         [function](const FunctionGroup& g) {
                           return g.function == function;
                         });
  if (it == buckets_.end()) {
    buckets_.push_back(FunctionGroup{function, {}});
    it = std::prev(buckets_.end());
  }
  it->invocations.push_back(id);
  ++pending_count_;
  return opened;
}

std::vector<FunctionGroup> InvokeMapper::flush(SimTime now) {
  std::vector<FunctionGroup> groups = std::move(buckets_);
  buckets_.clear();
  std::sort(groups.begin(), groups.end(),
            [](const FunctionGroup& a, const FunctionGroup& b) {
              return a.function < b.function;
            });
  const std::size_t closed_count = pending_count_;
  const SimTime opened_at = window_opened_at_;
  window_open_ = false;
  pending_count_ = 0;
  if (!groups.empty()) {
    ++windows_flushed_;
    windows_flushed_total().inc();
    for (const FunctionGroup& group : groups) {
      batch_size_histogram().record(static_cast<double>(group.size()));
    }
    if (now != kNoCloseTime && obs::tracer().enabled()) {
      obs::tracer().complete(
          "dispatch", "dispatch_window", static_cast<double>(opened_at),
          static_cast<double>(now - opened_at), /*tid=*/0,
          {{"invocations", Json(static_cast<std::int64_t>(closed_count))},
           {"groups", Json(static_cast<std::int64_t>(groups.size()))}});
    }
  }
  return groups;
}

}  // namespace faasbatch::core
