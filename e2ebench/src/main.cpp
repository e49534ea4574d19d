// End-to-end benchmark binary: runs one workload and prints its metrics.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR [--trace-out PATH]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "determinism", "metrics": {name:
// {"value", "unit"}}} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exits 1 when any correctness check failed,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using e2e::Options;
using e2e::Outcome;

int usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "open_sresume|open_auto_dag|sweep_fig3|fabric_cells --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out PATH]\n",
               message);
  return 2;
}

void print_metrics(const char* title, const std::vector<e2e::Metric>& metrics) {
  std::printf("  %s:\n", title);
  for (const e2e::Metric& metric : metrics) {
    std::printf("    %-30s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string result_json(const Outcome& outcome, bool trace) {
  std::string json = "{\"correct\": ";
  json += outcome.checks.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.checks.attempted());
  json += ", \"failed\": " + std::to_string(outcome.checks.failed());
  json += ", \"determinism\": \"" + outcome.determinism + "\"";
  json += ", \"metrics\": {";
  const auto& metrics = trace ? outcome.per_layer : outcome.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += i == 0 ? "" : ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            e2e::fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      options.work_dir.empty() ||
      (options.trace && options.trace_path.empty())) {
    return usage("--seed, --seconds > 0, --trace 0|1 and --work-dir are "
                 "required (and --trace-out with --trace 1)");
  }

  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "open_sresume") {
    run = e2e::run_open_sresume;
  } else if (options.workload == "open_auto_dag") {
    run = e2e::run_open_auto_dag;
  } else if (options.workload == "sweep_fig3") {
    run = e2e::run_sweep_fig3;
  } else if (options.workload == "fabric_cells") {
    run = e2e::run_fabric_cells;
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  std::filesystem::create_directories(options.work_dir);
  std::printf("e2ebench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  Outcome outcome;
  try {
    outcome = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }

  print_metrics("end-to-end", outcome.end_to_end);
  if (options.trace) {
    print_metrics("per-layer", outcome.per_layer);
  }
  std::printf("  checks: %llu attempted, %llu failed (error_rate %g)\n",
              static_cast<unsigned long long>(outcome.checks.attempted()),
              static_cast<unsigned long long>(outcome.checks.failed()),
              e2e::ratio(static_cast<double>(outcome.checks.failed()),
                         static_cast<double>(outcome.checks.attempted())));
  std::printf("%s\n", result_json(outcome, options.trace).c_str());
  return outcome.checks.failed() == 0 ? 0 : 1;
}
