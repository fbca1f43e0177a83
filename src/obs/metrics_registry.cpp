#include "obs/metrics_registry.hpp"

#include <cstdio>
#include <utility>

namespace faasbatch::obs {
namespace {

/// Shortest decimal that round-trips; avoids "1.000000" noise in the
/// exposition while keeping exact integers exact.
std::string format_double(double v) {
  // Exact integers (a batch-size sum, a gauge of 10 containers) print as
  // plain integers, never scientific notation — "10" rather than "1e+01".
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  double parsed = 0.0;
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, v);
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == v) return candidate;
  }
  return buffer;
}

/// Splits "name{a=\"b\"}" into ("name", "a=\"b\""); labels may be empty.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  std::string labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {name.substr(0, brace), labels};
}

/// "name{labels,extra}" from pre-split parts; either may be empty.
std::string join_labels(const std::string& base, const std::string& labels,
                        const std::string& extra = "") {
  std::string all = labels;
  if (!extra.empty()) {
    if (!all.empty()) all += ",";
    all += extra;
  }
  return all.empty() ? base : base + "{" + all + "}";
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked singleton: usable during static destruction of clients.
  static MetricsRegistry* instance = new MetricsRegistry();  // fb-lint-allow(naked-new)
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // Instrument constructors are registry-private; make_unique cannot
    // reach them.
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(
                                new Counter(&enabled_)))  // fb-lint-allow(naked-new)
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(name, std::unique_ptr<Gauge>(
                                new Gauge(&enabled_)))  // fb-lint-allow(naked-new)
             .first;
  }
  return *it->second;
}

QuantileHistogram& MetricsRegistry::quantile(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = quantiles_.find(name);
  if (it == quantiles_.end()) {
    it = quantiles_
             .emplace(name, std::unique_ptr<QuantileHistogram>(
                                new QuantileHistogram(  // fb-lint-allow(naked-new)
                                    &enabled_)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, q] : quantiles_) q->reset();
}

// GCC 12 reports a spurious -Wmaybe-uninitialized deep inside the
// std::variant move path when Json temporaries are inlined through
// std::map::operator[] at -O2 (gcc PR 105593 family); the values are
// fully constructed on every path.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Json MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  Json counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = static_cast<std::int64_t>(c->value());
  }
  Json gauges;
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  Json quantiles;
  for (const auto& [name, q] : quantiles_) {
    const QuantileSummary s = q->summary();
    Json entry;
    entry["count"] = static_cast<std::int64_t>(s.count);
    entry["sum"] = s.sum;
    entry["p50"] = s.p50;
    entry["p95"] = s.p95;
    entry["p99"] = s.p99;
    entry["p999"] = s.p999;
    quantiles[name] = std::move(entry);
  }
  Json out;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["quantiles"] = std::move(quantiles);
  return out;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::string MetricsRegistry::prometheus_text() const {
  MutexLock lock(mutex_);
  std::string out;
  std::string last_typed;  // one TYPE line per base name
  const auto type_line = [&](const std::string& base, const char* type) {
    if (base == last_typed) return;
    out += "# TYPE " + base + " " + type + "\n";
    last_typed = base;
  };
  for (const auto& [name, c] : counters_) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "counter");
    out += join_labels(base, labels) + " " + std::to_string(c->value()) + "\n";
  }
  last_typed.clear();
  for (const auto& [name, g] : gauges_) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "gauge");
    out += join_labels(base, labels) + " " + format_double(g->value()) + "\n";
  }
  last_typed.clear();
  for (const auto& [name, q] : quantiles_) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "summary");
    const QuantileSummary s = q->summary();
    const std::pair<const char*, double> cuts[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}, {"0.999", s.p999}};
    for (const auto& [label, value] : cuts) {
      out += join_labels(base, labels,
                         std::string("quantile=\"") + label + "\"") +
             " " + format_double(value) + "\n";
    }
    out += join_labels(base + "_sum", labels) + " " + format_double(s.sum) + "\n";
    out += join_labels(base + "_count", labels) + " " + std::to_string(s.count) +
           "\n";
  }
  return out;
}

}  // namespace faasbatch::obs
