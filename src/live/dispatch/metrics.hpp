// Per-shard dispatch instruments (fb_dispatch_shard_* series).
//
// Each shard of the sharded dispatch pipeline records its own admission
// and flush activity against labelled process-global instruments, so a
// /metrics scrape shows hot shards, queue depths, and shed pressure per
// shard rather than one blended number. Resolved once per shard at
// pipeline construction — the hot paths touch pre-resolved references,
// never the registry map.
#pragma once

#include <cstddef>

#include "obs/metrics_registry.hpp"

namespace faasbatch::live::dispatch {

/// Instruments for one shard. References point into the process-global
/// MetricsRegistry and stay valid for the process lifetime.
struct ShardInstruments {
  obs::Counter& enqueued;   ///< fb_dispatch_shard_enqueued_total{shard=...}
  obs::Counter& shed;       ///< fb_dispatch_shard_shed_total{shard=...}
  obs::Counter& overflow;   ///< fb_dispatch_shard_overflow_total{shard=...}
  obs::Counter& windows;    ///< fb_dispatch_shard_windows_total{shard=...}
  obs::Gauge& depth;        ///< fb_dispatch_shard_depth{shard=...}
  /// fb_dispatch_shard_oldest_age_ms{shard=...} — age of the oldest entry
  /// still awaiting flush (0 when empty). Refreshed at scrape time by the
  /// gateway from ShardSnapshot::oldest_ns, since an age only moves with
  /// the clock, not with events.
  obs::Gauge& oldest_age_ms;
};

/// Resolves (registering on first use) the instrument set of `shard`.
ShardInstruments shard_instruments(std::size_t shard);

}  // namespace faasbatch::live::dispatch
