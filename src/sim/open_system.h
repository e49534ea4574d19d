// Open-system simulation layer (long-running cluster, ROADMAP "open
// system" item).
//
// The closed-system harness (trace/harness.h) replays a finite, pre-planned
// trace to completion. This layer instead drives the same
// Simulator/Cluster/Scheduler stack with a pluggable arrival process
// (Poisson, diurnal-modulated, or file/trace-driven), samples each job's
// shape on arrival from the Google-trace statistical template, plans it at
// admission time through a serve::PlannerService (fixed policy, or per-job
// strategy selection via core::optimize_all), and pushes it through a
// capacity-aware admission controller:
//
//   reject   when the projected task backlog exceeds a multiple of the
//            cluster's total containers (the job could not start for a
//            long time anyway);
//   degrade  when the job's speculative demand (r extra attempts per task)
//            exceeds the currently free headroom — the job runs under
//            Hadoop-NS with r = 0 instead of its planned strategy;
//   admit    otherwise, under the planned strategy.
//
// Metrics are warm-up aware: time-weighted utilization, jobs-in-system and
// container-queue depth are integrated over [warm_up, duration] only, and
// per-job statistics (sojourn, deadline-miss rate, cost) cover jobs that
// arrive inside that window. A completed job's scheduler slot is released
// and reused by a later arrival (Scheduler::release_job), and the engine's
// own per-job state is indexed by that slot, so memory is O(max in-flight
// jobs). Measured on the e2ebench open_sresume workload (100k arrivals):
// peak_rss_mb fell from 136.6 MB to 15.1 MB and sim.rss_kb_per_arrival
// from 1.24 KiB to 0 KiB when completed jobs stopped keeping their records.
#pragma once

#include <array>
#include <cstdint>

#include "mapreduce/scheduler.h"
#include "serve/plan_cache.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "strategies/policies.h"
#include "trace/arrivals.h"
#include "trace/google_trace.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace chronos::sim {

/// Capacity-aware admission control knobs.
struct AdmissionConfig {
  /// Off: every arrival is admitted under its planned strategy (the
  /// controller still rejects nothing and degrades nothing).
  bool enabled = true;

  /// A job is degraded to the no-speculation baseline when its speculative
  /// demand — each stage's r extra attempts per task, summed over every
  /// stage — exceeds degrade_headroom * max(0, idle - backlog) free
  /// containers.
  double degrade_headroom = 1.0;

  /// A job is rejected outright when the container backlog plus its own
  /// task count exceeds reject_queue_factor * total_containers.
  double reject_queue_factor = 4.0;

  void validate() const;
};

/// Outcome of admission control for one planned arrival.
enum class AdmissionDecision { kAdmit, kDegrade, kReject };

/// The pure admission rule the engine applies at each arrival, exposed so
/// tests can drive it against synthetic cluster states. `backlog` is the
/// pending container-request count, `idle_containers` / `total_containers`
/// the cluster occupancy at the arrival instant. Speculative demand counts
/// EVERY stage by construction: sum over stages of stage.r * stage.num_tasks
/// (a reduce- or tail-stage-heavy job must not slip past the headroom check
/// on the strength of a tiny root stage).
AdmissionDecision admission_decide(const AdmissionConfig& config,
                                   const mapreduce::JobSpec& spec,
                                   double backlog, double idle_containers,
                                   double total_containers);

/// Configuration of one open-system run.
struct OpenSystemConfig {
  /// Arrival process; for kTrace the times must be pre-loaded in the spec.
  trace::ArrivalSpec arrivals;

  /// Per-job shape template (task count, t_min, beta, deadline, JVM).
  /// num_jobs / duration_hours / seed are not consumed — jobs are sampled
  /// one at a time as they arrive.
  trace::TraceConfig workload;

  /// Per-job planning knobs. r_min_from_baseline applies per job exactly as
  /// in the closed-system planner.
  trace::PlannerConfig planner;

  /// Spot-price process used for spec.price at each arrival.
  trace::SpotPriceConfig prices;

  AdmissionConfig admission;

  /// Plan-cache mode of the per-run serve::PlannerService. kOff and kExact
  /// are byte-identical to uncached planning; kQuantized shares plans
  /// within grid buckets (see serve/plan_cache.h).
  serve::PlanCacheConfig plan_cache;

  sim::ClusterConfig cluster;
  mapreduce::SchedulerConfig scheduler;

  /// Strategy for every admitted job when auto_strategy is off.
  strategies::PolicyKind policy = strategies::PolicyKind::kSResume;
  strategies::PolicyOptions policy_options;

  /// When on, each arrival runs core::optimize_all and is scheduled under
  /// the analytically best of Clone / S-Restart / S-Resume.
  bool auto_strategy = false;

  double duration = 3600.0;  ///< arrival horizon (simulated seconds)
  double warm_up = 0.0;      ///< measurement starts here (< duration)

  /// On: run the event loop dry after the horizon so every admitted job
  /// completes. Off: hard-stop the clock at `duration` and report the
  /// in-flight jobs as such.
  bool drain = true;

  std::uint64_t seed = 1;

  void validate() const;
};

/// How admitted jobs were scheduled, indexed by strategies::PolicyKind.
struct StrategyMix {
  std::array<std::uint64_t, 6> planned{};

  std::uint64_t& operator[](strategies::PolicyKind kind) {
    return planned[static_cast<std::size_t>(kind)];
  }
  std::uint64_t operator[](strategies::PolicyKind kind) const {
    return planned[static_cast<std::size_t>(kind)];
  }
};

/// Steady-state view of one open-system run.
struct OpenSystemResult {
  // Conservation counters over the whole horizon. Invariants:
  //   arrivals == admitted + rejected
  //   admitted == completed + in_flight_at_end
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;  ///< admitted under forced Hadoop-NS
  std::uint64_t completed = 0;
  std::uint64_t in_flight_at_end = 0;

  /// Measurement window [warm_up, duration] in seconds.
  double window = 0.0;
  std::uint64_t window_arrivals = 0;  ///< arrivals inside the window
  std::uint64_t window_admitted = 0;

  double offered_rate = 0.0;   ///< window_arrivals / window
  double admitted_rate = 0.0;  ///< window_admitted / window

  /// Time-weighted means over the window.
  double utilization = 0.0;         ///< busy containers / total containers
  double mean_jobs_in_system = 0.0; ///< Little's L over admitted jobs
  double mean_queue_depth = 0.0;    ///< pending container requests

  /// Over measured jobs (arrived in-window) that completed.
  double mean_sojourn = 0.0;  ///< Little's W: completion - arrival
  double miss_rate = 0.0;     ///< 1 - PoCD
  double mean_cost = 0.0;

  /// Mean analytic no-speculation PoCD of the in-window offered jobs (the
  /// per-job R_min the planner uses in baseline mode).
  double mean_baseline_pocd = 0.0;

  StrategyMix mix;

  /// Aggregate metrics of the measured completed jobs (outcome rows are
  /// not retained; aggregate accessors only).
  sim::RunMetrics metrics;

  /// Plan-cache traffic of the run's PlannerService (0/0 with the cache
  /// off). Not part of the CSV/JSON reports — the serve.* obs metrics and
  /// these counters carry it instead, so cached runs stay byte-identical.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// Memory bound of the run, also kept out of the reports: the most jobs
  /// admitted but not yet completed at any instant, and the scheduler's job
  /// slots (its slot high-water), which completed jobs hand back for reuse.
  std::uint64_t peak_in_flight = 0;
  std::uint64_t job_slots = 0;

  std::uint64_t events_executed = 0;
  double end_time = 0.0;  ///< simulated clock when the run stopped
};

/// Runs one open-system simulation to completion (or to the hard stop when
/// drain is off). Deterministic given config.seed.
OpenSystemResult run_open_system(const OpenSystemConfig& config);

}  // namespace chronos::sim
