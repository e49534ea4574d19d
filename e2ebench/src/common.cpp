#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Samples::quantile(double q) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::size_t Samples::beyond(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [cut](double v) { return v > cut; }));
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

Counters read_counters() {
  Counters out;
  for (const auto& metric : chronos::obs::snapshot()) {
    if (metric.kind == chronos::obs::MetricKind::kTimer) {
      out[metric.name] = static_cast<double>(metric.timer.total_ns) * 1e-9;
      out[metric.name + "#count"] = static_cast<double>(metric.timer.count);
    } else {
      out[metric.name] = static_cast<double>(metric.value);
    }
  }
  return out;
}

void accumulate(Counters& sum, const Counters& before, const Counters& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    sum[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

void write_counter_sidecar(const std::string& path, const Phase& phase) {
  std::string json = "{\"units\": " + std::to_string(phase.reps) +
                     ", \"wall_s\": " + fmt(phase.wall_s.sum()) +
                     ", \"deltas\": {";
  bool first = true;
  for (const auto& [name, value] : phase.deltas) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": " + fmt(value);
  }
  json += "}}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr ||
      std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
      std::fclose(file) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string describe(const Phase& phase) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "%d units, wall min %.4f / median %.4f / max %.4f s",
                phase.reps, phase.wall_s.quantile(0.0),
                phase.wall_s.median(), phase.wall_s.quantile(1.0));
  return buffer;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

void Checks::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", what.c_str());
    }
  }
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_jobs_per_s", "jobs/s"},
    {"events_per_s", "events/s"},
    {"peak_rss_mb", "MB"},
    {"pocd", "fraction"},
    {"cost_per_job", "cost"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.des_self_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.cancel_ratio", "fraction"},
    {"sim.slot_reuse_ratio", "fraction"},
    {"sim.rss_kb_per_arrival", "KiB"},
    {"sim.utilization", "fraction"},
    {"sim.mean_queue_depth", "requests"},
    {"admission.degrade_ratio", "fraction"},
    {"admission.reject_ratio", "fraction"},
    {"serve.busy_share", "fraction"},
    {"serve.hit_ratio", "fraction"},
    {"serve.drops", "count"},
    {"serve.plan_latency_us.p50", "us"},
    {"serve.plan_latency_us.p99", "us"},
    {"core.optimize_us.p50", "us"},
    {"core.evals_per_call", "count"},
    {"core.calls_per_arrival", "count"},
    {"mapreduce.attempts_per_job", "count"},
    {"mapreduce.kill_ratio", "fraction"},
    {"exp.replication_ms", "ms"},
    {"exp.pool_wait_share", "fraction"},
    {"exp.cell_setup_ms", "ms"},
    {"exp.journal_append_us", "us"},
    {"exp.report_ms", "ms"},
    {"exp.manifest_load_ms", "ms"},
    {"fabric.cells_per_s", "cells/s"},
    {"fabric.cell_rtt_ms.p50", "ms"},
    {"fabric.cell_rtt_ms.p95", "ms"},
    {"fabric.overhead_ms_per_cell", "ms"},
    {"fabric.bytes_per_cell", "bytes"},
    {"fabric.leases_per_cell", "count"},
    {"fabric.reassigned", "count"},
    {"fabric.duplicates", "count"},
    {"obs.trace_overhead", "fraction"},
};

template <std::size_t N>
std::vector<Metric> select(const MetricDef (&defs)[N],
                           const std::map<std::string, double>& values,
                           bool required) {
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end() && required) {
      throw std::logic_error(std::string("metric not measured: ") + def.name);
    }
    out.push_back({def.name, it == values.end() ? 0.0 : it->second, def.unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& def : defs) {
      known = known || name == def.name;
    }
    if (!known) {
      throw std::logic_error("metric not declared: " + name);
    }
  }
  return out;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(
    const std::map<std::string, double>& values) {
  return select(kEndToEnd, values, /*required=*/true);
}

std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values) {
  return select(kPerLayer, values, /*required=*/false);
}

std::string fmt(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string fnv_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace e2e
