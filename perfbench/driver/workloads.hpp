// The benchmark's workloads. Each runs in its own process and fills a
// Report with end-to-end metrics (untraced run) or per-layer metrics
// (traced run).
#pragma once

#include "probe.hpp"

namespace perfbench {

Report run_des_churn(const Options& options);
Report run_live_batch(const Options& options);
Report run_http_vanilla(const Options& options);

}  // namespace perfbench
