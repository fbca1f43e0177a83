// faasbatch_perfbench: the repository's end-to-end benchmark driver.
//
//   faasbatch_perfbench --workload des_churn|live_batch|http_vanilla
//                       --seed N --seconds S --trace 0|1 --spec BENCHMARK.json
//                       [--out DIR]
//
// Detail lines start with "# "; the last line of stdout is the result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The metrics are those the spec lists under "end_to_end" (untraced run)
// or "per_layer" (traced run), in its order and with its units; the run
// is incorrect if a workload misses an end-to-end metric or produces one
// the spec does not list. Exits 0 when the run completed (even if a check
// failed: "correct" says so), 2 on bad arguments or an unreadable spec.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "faasbatch_perfbench: " << why
            << "\nusage: faasbatch_perfbench --workload des_churn|live_batch|"
               "http_vanilla --seed N --seconds S --trace 0|1 --spec FILE [--out DIR]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  std::string spec_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (key == "--spec") {
        spec_path = value;
      } else if (key == "--out") {
        options.out_dir = value;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (options.workload.empty() || !have_trace || spec_path.empty()) {
    return usage("missing arguments");
  }
  faasbatch::Json listed;
  try {
    std::ifstream in(spec_path);
    std::stringstream text;
    text << in.rdbuf();
    listed = faasbatch::Json::parse(text.str()).at(options.trace ? "per_layer" : "end_to_end");
  } catch (const std::exception& e) {
    return usage(("cannot read the metric list of " + spec_path + ": " + e.what()).c_str());
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in [1, 600]");
  }

  perfbench::Report report;
  const perfbench::HostTicks ticks0 = perfbench::host_ticks();
  if (options.workload == "des_churn") {
    report = perfbench::run_des_churn(options);
  } else if (options.workload == "live_batch") {
    report = perfbench::run_live_batch(options);
  } else if (options.workload == "http_vanilla") {
    report = perfbench::run_http_vanilla(options);
  } else {
    return usage(("unknown workload " + options.workload).c_str());
  }

  const perfbench::HostTicks ticks1 = perfbench::host_ticks();
  if (ticks1.total > ticks0.total) {
    perfbench::note("host steal: " +
                    std::to_string(100.0 * (ticks1.steal - ticks0.steal) /
                                   (ticks1.total - ticks0.total)) +
                    " % of guest CPU time during the run");
  }

  std::string metrics;
  std::set<std::string> names;
  for (const faasbatch::Json& m : listed.as_array()) {
    const std::string& name = m.at("name").as_string();
    names.insert(name);
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end() && !options.trace) {
      report.fail("no value for end-to-end metric " + name);
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + name + "\": {\"value\": " +
               json_number(it == report.metrics.end() ? 0.0 : it->second) +
               ", \"unit\": \"" + m.at("unit").as_string() + "\"}";
  }
  for (const auto& [name, value] : report.metrics) {
    if (names.count(name) == 0) report.fail("metric " + name + " is not listed in " + spec_path);
  }

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {" + metrics + "}}";
  std::cout << out << std::endl;
  return 0;
}
