// open_sresume and open_auto_dag: the open-system engine driven through
// sim::run_open_system, plus a replay of each run's planning requests
// through serve::PlannerService::plan for per-request plan latency.
#include <cmath>
#include <memory>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "obs/trace.h"
#include "serve/planner.h"
#include "sim/open_system.h"
#include "trace/arrivals.h"
#include "trace/google_trace.h"
#include "trace/planner.h"
#include "trace/spot_price.h"
#include "workloads.h"

namespace e2e {
namespace {

using chronos::Rng;
namespace sim = chronos::sim;
namespace serve = chronos::serve;
namespace trace = chronos::trace;
namespace core = chronos::core;
using chronos::strategies::PolicyKind;

/// The load regime a workload is defined in. A run outside it is not the
/// workload (e.g. a saturated cluster where admission degrades most jobs
/// and speculation never runs) and fails the load-regime check.
struct Regime {
  double utilization_lo = 0.0;
  double utilization_hi = 1.0;
  double max_degrade_ratio = 0.0;
  double max_reject_ratio = 0.0;
};

struct OpenWorkload {
  sim::OpenSystemConfig config;
  Regime regime;
  int warm_up_arrivals = 0;  ///< length of each set-up warm-up run
};

/// The shared shape template of BM_OpenSystemEventsPerSec: 16 nodes x 16
/// containers, ~20-task jobs with t_min in [2, 8] s.
sim::OpenSystemConfig base_config(double rate, double arrivals,
                                  std::uint64_t seed) {
  sim::OpenSystemConfig config;
  config.arrivals.kind = trace::ArrivalKind::kPoisson;
  config.arrivals.rate = rate;
  config.workload.mean_tasks = 20.0;
  config.workload.max_tasks = 64;
  config.workload.t_min_lo = 2.0;
  config.workload.t_min_hi = 8.0;
  config.policy = PolicyKind::kSResume;
  config.planner.r_min_from_baseline = false;
  sim::NodeConfig node;
  node.containers = 16;
  config.cluster = sim::ClusterConfig::uniform(16, node);
  config.duration = arrivals / rate;
  // The measurement window is the whole arrival horizon, which makes
  // Little's law checkable exactly (see check_run).
  config.warm_up = 0.0;
  config.admission.enabled = true;
  config.drain = true;
  config.seed = seed;
  return config;
}

// Lengths are fixed: the plan-cache hit ratio of open_auto_dag depends on
// the number of arrivals, and peak RSS grows with it.
constexpr double kSResumeArrivals = 100000;
constexpr double kAutoDagArrivals = 40000;

OpenWorkload sresume_workload(std::uint64_t seed) {
  // Rate 0.8 puts the cluster at ~0.78 utilization with no rejects. The
  // template's original rate of 1.2 saturates it (utilization ~0.99, most
  // arrivals degraded to Hadoop-NS): the regime bounds rule that out.
  OpenWorkload w;
  w.config = base_config(0.8, kSResumeArrivals, seed);
  w.config.plan_cache.mode = serve::CacheMode::kOff;
  w.regime = {0.70, 0.86, 0.60, 0.0};
  w.warm_up_arrivals = 2000;
  return w;
}

OpenWorkload auto_dag_workload(std::uint64_t seed) {
  OpenWorkload w;
  w.config = base_config(0.39, kAutoDagArrivals, seed);
  w.config.workload.extra_stages = {
      chronos::mapreduce::StageSpec{8, 4.0, 1.6, 0.0, 0.0, 0, {}},
      chronos::mapreduce::StageSpec{4, 3.0, 1.5, 0.0, 0.0, 0, {0, 1}},
  };
  w.config.auto_strategy = true;
  w.config.plan_cache.mode = serve::CacheMode::kQuantized;
  w.config.plan_cache.grid = 0.05;
  w.regime = {0.50, 0.70, 0.60, 0.0};
  w.warm_up_arrivals = 1000;
  return w;
}

/// One run's simulated outputs, compared bit-for-bit across runs.
std::string outputs_fingerprint(const sim::OpenSystemResult& r) {
  return fmt(r.metrics.pocd()) + "/" + fmt(r.metrics.mean_cost()) + "/" +
         std::to_string(r.events_executed) + "/" +
         std::to_string(r.completed) + "/" + std::to_string(r.degraded);
}

void check_run(const OpenWorkload& w, const sim::OpenSystemResult& r,
               double max_in_flight, Checks& checks) {
  checks.check(r.arrivals == r.admitted + r.rejected,
               "arrivals == admitted + rejected");
  checks.check(r.admitted == r.completed + r.in_flight_at_end,
               "admitted == completed + in_flight_at_end");
  checks.check(r.in_flight_at_end == 0, "in_flight_at_end == 0 under drain");
  // Little's law with its edge term. The window is [0, D] and every job
  // arrives in it and completes (drain), so the summed sojourns n*W are the
  // integral of jobs-in-system N(t) over [0, end] while L*D integrates only
  // [0, D]: n*W - L*D = integral of N over [D, end], which lies in
  // [0, max N * (end - D)]. A tolerance on L = lambda*W alone does not
  // hold here: task times are Pareto with beta < 2 (infinite variance), and
  // one job draining long after D can move W by tens of percent.
  const double d = w.config.duration;
  const double n_w =
      static_cast<double>(r.metrics.jobs()) * r.mean_sojourn;
  const double l_d = r.mean_jobs_in_system * d;
  const double tail = max_in_flight * std::max(0.0, r.end_time - d);
  const double slack = 1e-9 * n_w;
  checks.check(r.window == d && r.metrics.jobs() == r.completed &&
                   n_w - l_d >= -slack && n_w - l_d <= tail + slack,
               "Little's law: 0 <= n*W - L*D = " + fmt(n_w - l_d) +
                   " <= max N * (end - D) = " + fmt(tail));
  const double arrivals = static_cast<double>(r.arrivals);
  const double degrade = static_cast<double>(r.degraded) / arrivals;
  const double reject = static_cast<double>(r.rejected) / arrivals;
  checks.check(r.utilization >= w.regime.utilization_lo &&
                   r.utilization <= w.regime.utilization_hi,
               "load regime: utilization " + fmt(r.utilization) + " in [" +
                   fmt(w.regime.utilization_lo) + ", " +
                   fmt(w.regime.utilization_hi) + "]");
  checks.check(degrade <= w.regime.max_degrade_ratio,
               "load regime: degrade ratio " + fmt(degrade) + " <= " +
                   fmt(w.regime.max_degrade_ratio));
  checks.check(reject <= w.regime.max_reject_ratio,
               "load regime: reject ratio " + fmt(reject) + " <= " +
                   fmt(w.regime.max_reject_ratio));
}

/// The run's planning requests, regenerated outside the engine and planned
/// one by one through a fresh PlannerService with the run's cache config.
/// Advanced in slices between measured units; every pass replays the whole
/// stream from the seed with a fresh service.
class OpenReplay {
 public:
  struct Pass {
    std::uint64_t arrivals = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::string decisions;  ///< fingerprint of every reply and planned spec
  };

  OpenReplay(const sim::OpenSystemConfig& config, std::size_t probe_size)
      : config_(config), probe_size_(probe_size), prices_(config.prices) {}

  /// Plans up to `requests` more requests, closing a pass at the end of the
  /// stream and starting the next.
  void advance(std::size_t requests) {
    for (std::size_t i = 0; i < requests; ++i) {
      step();
    }
  }

  /// Runs until `passes` full passes are complete.
  void finish(std::size_t passes) {
    while (passes_.size() < passes) {
      step();
    }
  }

  const Samples& latency_us() const { return latency_us_; }
  const std::vector<Pass>& passes() const { return passes_; }
  /// The first arrivals' shapes and prices, for the cold-optimizer probe.
  const std::vector<std::pair<chronos::mapreduce::JobSpec, double>>& probe()
      const {
    return probe_;
  }

 private:
  void step() {
    if (service_ == nullptr) {
      // The engine splits its master seed into the arrival stream, then
      // the shape stream (sim/open_system.cpp).
      Rng master(config_.seed);
      arrival_rng_ = master.split();
      shape_rng_ = master.split();
      arrivals_ = trace::make_arrival_process(config_.arrivals);
      service_ = std::make_unique<serve::PlannerService>(
          serve::PlannerServiceConfig{config_.planner, config_.plan_cache});
      t_ = arrivals_->next_after(0.0, arrival_rng_);
      current_ = Pass{};
      bytes_.clear();
    }
    if (!std::isfinite(t_) || t_ > config_.duration) {
      const serve::PlannerServiceStats stats = service_->stats();
      current_.hits = stats.hits;
      current_.misses = stats.misses;
      current_.decisions = fnv_hex(bytes_);
      passes_.push_back(current_);
      service_.reset();
      return;
    }
    chronos::mapreduce::JobSpec spec = trace::sample_job_spec(
        config_.workload, static_cast<int>(current_.arrivals), shape_rng_);
    serve::PlanRequest request;
    request.spec = &spec;
    request.price = prices_.price_at(t_);
    request.auto_strategy = config_.auto_strategy;
    request.policy = config_.policy;
    if (probe_.size() < probe_size_) {
      probe_.emplace_back(spec, request.price);
    }
    const std::uint64_t start = now_ns();
    const serve::PlanReply reply = service_->plan(request);
    latency_us_.add(static_cast<double>(now_ns() - start) * 1e-3);
    ++current_.arrivals;
    bytes_ += static_cast<char>('0' + static_cast<int>(reply.kind));
    bytes_ += reply.feasible ? 'f' : 'i';
    for (const auto& stage : spec.stages) {
      bytes_ += std::to_string(stage.r) + "," + fmt(stage.tau_est) + "," +
                fmt(stage.tau_kill) + ";";
    }
    if (bytes_.size() > 4096) {  // fold, to keep the input bounded
      bytes_ = fnv_hex(bytes_);
    }
    t_ = arrivals_->next_after(t_, arrival_rng_);
  }

  const sim::OpenSystemConfig& config_;
  std::size_t probe_size_;
  const trace::SpotPriceModel prices_;
  Samples latency_us_;
  std::vector<Pass> passes_;
  std::vector<std::pair<chronos::mapreduce::JobSpec, double>> probe_;
  // The pass in progress; service_ == nullptr between passes.
  std::unique_ptr<serve::PlannerService> service_;
  std::unique_ptr<trace::ArrivalProcess> arrivals_;
  Rng arrival_rng_;
  Rng shape_rng_;
  double t_ = 0.0;
  Pass current_;
  std::string bytes_;
};

/// Cold core::optimize_all latency on the replayed shapes (no cache).
Samples probe_optimizer(const OpenReplay& replay,
                        const trace::PlannerConfig& planner) {
  Samples us;
  for (const auto& [spec, price] : replay.probe()) {
    const core::JobParams params =
        trace::to_job_params(spec, planner, core::Strategy::kSpeculativeResume);
    const core::Economics econ = trace::to_economics(spec, planner, price);
    const std::uint64_t start = now_ns();
    (void)core::optimize_all(params, econ);
    us.add(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return us;
}

Outcome run_open(const Options& options, const OpenWorkload& w) {
  Outcome out;
  Checks& checks = out.checks;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  // Side work between units: one set-up and a third of a replay pass.
  // Set-up builds and validates a configuration and makes one short cold
  // run (allocator arenas, lazily sized engine state). The replay plans the
  // run's arrival stream through the planner service; both full passes
  // must make the same decisions, and the cache traffic must match what
  // the engine saw.
  Samples setup;
  auto set_up = [&] {
    const double start = now_s();
    sim::OpenSystemConfig warm = w.config;
    warm.duration = w.warm_up_arrivals / w.config.arrivals.rate;
    warm.seed = w.config.seed + 1000003ULL * (setup.size() + 1);
    warm.validate();
    const auto result = sim::run_open_system(warm);
    checks.check(result.in_flight_at_end == 0, "set-up run drained");
    setup.add(now_s() - start);
  };
  OpenReplay replay(w.config, 2000);
  const auto slice = static_cast<std::size_t>(
      w.config.arrivals.rate * w.config.duration / 3.0);
  auto side = [&](int) {
    set_up();
    replay.advance(slice);
  };

  // Measured runs: every run repeats the same seed, so each one's simulated
  // outputs must match the first run's bit for bit.
  std::string first_outputs;
  sim::OpenSystemResult first;
  double rss_growth_kb = 0.0;
  auto unit = [&](int) {
    const double rss_before = peak_rss_kb();
    sim::OpenSystemResult result;
    {
      chronos::obs::TraceSpan span("sim.run_open_system", "sim");
      result = sim::run_open_system(w.config);
    }
    check_run(w, result, read_counters()["open.in_flight"], checks);
    const std::string outputs = outputs_fingerprint(result);
    if (first_outputs.empty()) {
      first_outputs = outputs;
      first = result;
      rss_growth_kb = peak_rss_kb() - rss_before;
    }
    checks.check(outputs == first_outputs,
                 "same-seed run reproduces outputs " + first_outputs);
    return UnitOutput{static_cast<double>(result.completed),
                      static_cast<double>(result.events_executed)};
  };
  const Measured m = measure_workload(options, 3, unit, side);
  const Phase& p = m.untraced;
  while (setup.size() < 5) {
    set_up();
  }
  e2e["setup_s"] = setup.median();
  replay.finish(2);

  const auto& passes = replay.passes();
  checks.check(passes[0].decisions == passes[1].decisions,
               "replayed plan decisions repeat");
  checks.check(passes[0].arrivals == first.arrivals,
               "replay regenerates the run's " +
                   std::to_string(first.arrivals) + " arrivals");
  checks.check(passes[0].hits == first.plan_cache_hits &&
                   passes[0].misses == first.plan_cache_misses,
               "replay cache traffic matches the engine's");
  const Samples& latency = replay.latency_us();
  checks.check(latency.beyond(0.99) >= 10, "p99 has >= 10 samples beyond");

  e2e["wall_s"] = p.wall_s.median();
  e2e["sim_jobs_per_s"] = p.jobs_per_s.median();
  e2e["events_per_s"] = p.events_per_s.median();
  e2e["peak_rss_mb"] = p.first_unit_peak_rss_kb / 1024.0;
  e2e["pocd"] = first.metrics.pocd();
  e2e["cost_per_job"] = first.metrics.mean_cost();
  out.end_to_end = end_to_end_metrics(e2e);
  out.determinism = first_outputs + "/" + passes[0].decisions;

  std::printf("  untraced: %s\n", describe(p).c_str());
  std::printf("  run: %llu arrivals, %llu admitted, %llu degraded, %llu "
              "rejected, utilization %.4f, cache %llu hits / %llu misses\n",
              static_cast<unsigned long long>(first.arrivals),
              static_cast<unsigned long long>(first.admitted),
              static_cast<unsigned long long>(first.degraded),
              static_cast<unsigned long long>(first.rejected),
              first.utilization,
              static_cast<unsigned long long>(first.plan_cache_hits),
              static_cast<unsigned long long>(first.plan_cache_misses));
  std::printf("  set-up: %zu samples; plan latency: %zu samples in %zu "
              "passes, p50 %.3f us, p99 %.3f us (%zu beyond)\n",
              setup.size(), latency.size(), passes.size(), latency.median(),
              latency.quantile(0.99), latency.beyond(0.99));

  if (options.trace) {
    const double run_s = p.d("open.run");
    const double plan_s = p.d("open.plan");
    const double arrivals = p.d("open.arrivals");
    const double events = p.d("sim.events_fired");
    const double reps = static_cast<double>(p.reps);
    layer["sim.des_self_s"] = (run_s - plan_s) / reps;
    layer["sim.ns_per_event"] = ratio(run_s - plan_s, events) * 1e9;
    layer["sim.cancel_ratio"] =
        ratio(p.d("sim.events_cancelled"), p.d("sim.events_scheduled"));
    layer["sim.slot_reuse_ratio"] = ratio(
        p.d("sim.slots_reused"), p.d("sim.slots_reused") +
                                     p.d("sim.slots_allocated"));
    layer["sim.rss_kb_per_arrival"] =
        ratio(rss_growth_kb, static_cast<double>(first.arrivals));
    layer["sim.utilization"] = first.utilization;
    layer["sim.mean_queue_depth"] = first.mean_queue_depth;
    layer["admission.degrade_ratio"] =
        ratio(p.d("open.degraded"), arrivals);
    layer["admission.reject_ratio"] = ratio(p.d("open.rejected"), arrivals);
    layer["serve.busy_share"] = ratio(plan_s, run_s);
    layer["serve.hit_ratio"] = ratio(p.d("serve.hits"), p.d("serve.requests"));
    layer["serve.drops"] = p.d("serve.drops") / reps;
    layer["core.optimize_us.p50"] =
        probe_optimizer(replay, w.config.planner).median();
    layer["core.evals_per_call"] = ratio(p.d("core.optimizer.evaluations"),
                                         p.d("core.optimizer.calls"));
    layer["core.calls_per_arrival"] =
        ratio(p.d("core.optimizer.calls"), arrivals);
    layer["mapreduce.attempts_per_job"] =
        ratio(static_cast<double>(first.metrics.attempts_launched()),
              static_cast<double>(first.metrics.jobs()));
    layer["mapreduce.kill_ratio"] =
        ratio(static_cast<double>(first.metrics.attempts_killed()),
              static_cast<double>(first.metrics.attempts_launched()));
    layer["serve.plan_latency_us.p50"] = latency.median();
    layer["serve.plan_latency_us.p99"] = latency.quantile(0.99);
    layer["obs.trace_overhead"] = m.trace_overhead;
    out.per_layer = per_layer_metrics(layer);
  }
  return out;
}

}  // namespace

Outcome run_open_sresume(const Options& options) {
  return run_open(options, sresume_workload(options.seed));
}

Outcome run_open_auto_dag(const Options& options) {
  return run_open(options, auto_dag_workload(options.seed));
}

}  // namespace e2e
