// Shared plumbing of the end-to-end benchmark binary: clocks, sample sets
// with nearest-rank percentiles, obs::snapshot() deltas, process memory,
// the correctness-check ledger and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2e {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory for journals and sockets
  std::string trace_path;  ///< Chrome trace output (trace mode)
};

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Nanoseconds on the steady clock since an arbitrary epoch.
std::uint64_t now_ns();

/// A sample of one timing (or ratio) with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; requires a non-empty sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// How many samples lie strictly above the q-quantile.
  std::size_t beyond(double q) const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// obs::snapshot() reduced to name -> value (counter total, gauge
/// high-water, or timer total in seconds), with timer counts under
/// "<name>#count".
using Counters = std::map<std::string, double>;
Counters read_counters();

struct Phase;

/// Writes a phase's counter deltas and unit count as JSON.
void write_counter_sidecar(const std::string& path, const Phase& phase);

/// Peak resident set size of this process, in KiB (getrusage high-water).
double peak_rss_kb();

/// Ratio with an explicit base: 0 when the base is 0.
double ratio(double part, double whole);

/// Correctness-check ledger. Every check counts as one attempted
/// operation; a failed check counts as failed and is printed to stderr.
class Checks {
 public:
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// Missing names are an error (every workload defines every one).
std::vector<Metric> end_to_end_metrics(
    const std::map<std::string, double>& values);

/// The per-layer metrics of a traced run, in BENCHMARK.json order. Layers a
/// workload does not exercise read 0 (no work done there).
std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values);

/// Everything a workload hands back to main().
struct Outcome {
  std::vector<Metric> end_to_end;  ///< untraced metrics
  std::vector<Metric> per_layer;   ///< layer metrics (trace mode only)
  /// Fingerprint of the simulated outputs at this seed (pocd, cost, events,
  /// plan decisions); identical across processes for one seed.
  std::string determinism;
  Checks checks;
};

/// Runs `body` repeatedly until `budget_s` seconds have passed and at least
/// `min_reps` repetitions ran; returns the number of repetitions.
template <typename Body>
int repeat_for(double budget_s, int min_reps, Body&& body) {
  const double start = now_s();
  int reps = 0;
  while (reps < min_reps || now_s() - start < budget_s) {
    body(reps);
    ++reps;
  }
  return reps;
}

/// What one measured unit of work simulated.
struct UnitOutput {
  double jobs = 0.0;    ///< simulated jobs completed
  double events = 0.0;  ///< simulator events executed
};

/// The measured units of one phase, with the counter deltas summed over
/// the units alone (side work between units is not counted).
struct Phase {
  Samples wall_s;
  Samples jobs_per_s;
  Samples events_per_s;
  Counters deltas;
  int reps = 0;
  /// Process peak RSS right after the first unit: one unit's peak plus
  /// the process baseline, before later side work can fragment the heap.
  double first_unit_peak_rss_kb = 0.0;

  double d(const std::string& name) const {
    const auto it = deltas.find(name);
    return it == deltas.end() ? 0.0 : it->second;
  }
};

/// Adds after - before, name by name, into `sum`.
void accumulate(Counters& sum, const Counters& before, const Counters& after);

/// Runs `side(rep)` then `unit(rep)` (returning UnitOutput) until
/// `budget_s` seconds have passed and at least `min_reps` units ran. Only
/// the unit is timed, inside a "bench.unit" span. Side work is the
/// workload's other timed phases (set-up, plan replay), cut into slices and
/// interleaved with the units so that their timings sample the same
/// stretch of the run, and the same host conditions, as the units do.
template <typename Unit, typename Side>
Phase measure(double budget_s, int min_reps, Unit&& unit, Side&& side) {
  Phase phase;
  phase.reps = repeat_for(budget_s, min_reps, [&](int rep) {
    side(rep);
    const Counters before = read_counters();
    const double start = now_s();
    UnitOutput out;
    {
      chronos::obs::TraceSpan span("bench.unit", "bench");
      out = unit(rep);
    }
    const double wall = now_s() - start;
    accumulate(phase.deltas, before, read_counters());
    if (rep == 0) {
      phase.first_unit_peak_rss_kb = peak_rss_kb();
    }
    phase.wall_s.add(wall);
    phase.jobs_per_s.add(out.jobs / wall);
    phase.events_per_s.add(out.events / wall);
  });
  return phase;
}

/// "N units, wall min/median/max ..." for the report.
std::string describe(const Phase& phase);

/// The untraced measurement and, in trace mode, a second traced one.
struct Measured {
  Phase untraced;
  Phase traced;  ///< reps == 0 unless options.trace
  double trace_overhead = 0.0;  ///< traced / untraced median wall - 1
};

/// Trace mode splits the budget: half measures untraced (with the side
/// work), then at least two units (a quarter of the budget) record spans
/// and write the Chrome trace plus a "<trace>.counters.json" sidecar of
/// the traced units' counter deltas.
template <typename Unit, typename Side>
Measured measure_workload(const Options& options, int min_reps, Unit&& unit,
                          Side&& side) {
  Measured m;
  if (!options.trace) {
    m.untraced = measure(options.seconds, min_reps, unit, side);
    return m;
  }
  m.untraced = measure(options.seconds / 2, min_reps, unit, side);
  chronos::obs::start_tracing();
  m.traced = measure(options.seconds / 4, 2, unit, [](int) {});
  chronos::obs::write_trace_json(options.trace_path);
  write_counter_sidecar(options.trace_path + ".counters.json", m.traced);
  m.trace_overhead = m.traced.wall_s.median() / m.untraced.wall_s.median() - 1;
  return m;
}

/// Renders a double with all its significant digits (JSON-safe).
std::string fmt(double value);

/// FNV-1a over a byte string, as 16 hex digits.
std::string fnv_hex(const std::string& bytes);

}  // namespace e2e
