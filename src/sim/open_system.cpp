#include "sim/open_system.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "core/chronos.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/planner.h"
#include "sim/simulator.h"

namespace chronos::sim {

namespace {

const obs::Counter c_runs = obs::counter("open.runs");
const obs::Counter c_arrivals = obs::counter("open.arrivals");
const obs::Counter c_admitted = obs::counter("open.admitted");
const obs::Counter c_degraded = obs::counter("open.degraded");
const obs::Counter c_rejected = obs::counter("open.rejected");
const obs::Counter c_completed = obs::counter("open.completed");
const obs::Counter c_misses = obs::counter("open.deadline_misses");
const obs::Gauge g_in_flight = obs::gauge("open.in_flight");
const obs::Timer t_run = obs::timer("open.run");
const obs::Timer t_plan = obs::timer("open.plan");

// Indexed by strategies::PolicyKind.
const std::array<obs::Counter, 6> kPlanCounters = {
    obs::counter("open.plan.hadoop_ns"), obs::counter("open.plan.hadoop_s"),
    obs::counter("open.plan.mantri"),    obs::counter("open.plan.clone"),
    obs::counter("open.plan.s_restart"), obs::counter("open.plan.s_resume")};

/// Clamped time-weighted integral of a piecewise-constant signal over
/// [start, end]: update(t, v) closes the previous level at t and opens v;
/// mean() closes the signal at `end` and returns area / (end - start).
/// Updates outside the window contribute nothing.
class WindowedArea {
 public:
  WindowedArea(double start, double end)
      : start_(start), end_(end), last_(start) {}

  void update(double now, double value) {
    integrate_to(now);
    value_ = value;
  }

  double mean() {
    integrate_to(end_);
    return area_ / (end_ - start_);
  }

 private:
  void integrate_to(double now) {
    const double t = std::clamp(now, start_, end_);
    if (t > last_) {
      area_ += value_ * (t - last_);
      last_ = t;
    }
  }

  double start_;
  double end_;
  double last_;
  double value_ = 0.0;
  double area_ = 0.0;
};

/// Told of each job completion the multiplexer routes.
class CompletionSink {
 public:
  virtual void on_job_done(int job) = 0;

 protected:
  ~CompletionSink() = default;
};

/// Per-job policy multiplexer: the open system schedules different jobs
/// under different strategies within ONE scheduler, so this policy owns one
/// lazily-created backend per PolicyKind and routes every hook to the
/// backend staged for that job at submission. Scheduler::submit runs
/// synchronously, so stage() immediately before submit() is race-free; the
/// stage-0 hooks of a submission therefore see `staged_` still pointing at
/// its backend. Later stages start asynchronously (when their barrier
/// clears, arbitrarily interleaved with other arrivals), so the backend is
/// pinned per job slot at stage-0 start and unpinned at completion; a slot
/// with no pin is a submission in progress, served by `staged_`.
class MuxPolicy final : public mapreduce::SpeculationPolicy {
 public:
  /// `on_complete` must outlive the policy.
  MuxPolicy(strategies::PolicyOptions options, CompletionSink& on_complete)
      : options_(options), on_complete_(on_complete) {}

  void stage(strategies::PolicyKind kind) { staged_ = &backend(kind); }

  std::string name() const override { return "Open-Mux"; }

  int initial_attempts(int job, const mapreduce::JobSpec& spec,
                       int stage) const override {
    // Stage 0 is launched from inside submit(), before any hook could have
    // pinned the job: the staged backend is the submission's backend.
    const auto slot = static_cast<std::size_t>(job);
    const mapreduce::SpeculationPolicy* backend =
        slot < per_job_.size() && per_job_[slot] != nullptr ? per_job_[slot]
                                                             : staged_;
    return backend->initial_attempts(job, spec, stage);
  }

  void on_job_start(int job, mapreduce::SchedulerApi& api) override {
    per_job_[static_cast<std::size_t>(job)]->on_job_start(job, api);
  }

  void on_task_completed(int job, int task,
                         mapreduce::SchedulerApi& api) override {
    per_job_[static_cast<std::size_t>(job)]->on_task_completed(job, task, api);
  }

  void on_stage_start(int job, int stage,
                      mapreduce::SchedulerApi& api) override {
    if (stage == 0) {
      if (static_cast<std::size_t>(job) >= per_job_.size()) {
        per_job_.resize(static_cast<std::size_t>(job) + 1, nullptr);
      }
      per_job_[static_cast<std::size_t>(job)] = staged_;
    }
    per_job_[static_cast<std::size_t>(job)]->on_stage_start(job, stage, api);
  }

  void on_job_completed(int job, mapreduce::SchedulerApi& api) override {
    auto& backend = per_job_[static_cast<std::size_t>(job)];
    backend->on_job_completed(job, api);
    backend = nullptr;
    on_complete_.on_job_done(job);
  }

  void on_timer(int job, int stage, int tag,
                mapreduce::SchedulerApi& api) override {
    per_job_[static_cast<std::size_t>(job)]->on_timer(job, stage, tag, api);
  }

 private:
  mapreduce::SpeculationPolicy& backend(strategies::PolicyKind kind) {
    auto& slot = backends_[static_cast<std::size_t>(kind)];
    if (!slot) {
      slot = strategies::make_policy(kind, options_);
    }
    return *slot;
  }

  strategies::PolicyOptions options_;
  std::array<std::unique_ptr<mapreduce::SpeculationPolicy>, 6> backends_;
  mapreduce::SpeculationPolicy* staged_ = nullptr;
  /// Backend per job slot, null while the slot is free or being submitted;
  /// grows with the scheduler's slot high-water.
  std::vector<mapreduce::SpeculationPolicy*> per_job_;
  CompletionSink& on_complete_;
};

mapreduce::SchedulerConfig open_scheduler_config(
    const OpenSystemConfig& config) {
  // The engine keeps its own warm-up-aware aggregates; the scheduler's
  // metrics only need the running counters.
  auto scheduler = config.scheduler;
  scheduler.retain_outcomes = false;
  return scheduler;
}

/// Receives its own arrival events, the cluster's occupancy changes and the
/// multiplexer's job completions.
class OpenEngine final : private EventHandler,
                         private Cluster::OccupancyObserver,
                         private CompletionSink {
 public:
  explicit OpenEngine(const OpenSystemConfig& config)
      : config_(config),
        master_(config.seed),
        arrival_rng_(master_.split()),
        shape_rng_(master_.split()),
        cluster_(config.cluster),
        mux_(config.policy_options, *this),
        scheduler_(simulator_, cluster_, mux_, open_scheduler_config(config),
                   Rng(master_.split_seed())),
        prices_(config.prices),
        planner_(serve::PlannerServiceConfig{config.planner,
                                             config.plan_cache}),
        arrivals_(trace::make_arrival_process(config.arrivals)),
        busy_area_(config.warm_up, config.duration),
        queue_area_(config.warm_up, config.duration),
        jobs_area_(config.warm_up, config.duration) {
    measured_.set_retain_outcomes(false);
    cluster_.set_occupancy_observer(this);
  }

  OpenEngine(const OpenEngine&) = delete;
  OpenEngine& operator=(const OpenEngine&) = delete;

  OpenSystemResult run() {
    obs::TraceSpan span("open.run", "sim");
    const obs::ScopedTimer run_timer(t_run);
    c_runs.add();
    const double first = arrivals_->next_after(0.0, arrival_rng_);
    if (std::isfinite(first) && first <= config_.duration) {
      simulator_.at(first, *this, TypedEvent{});
    }
    if (config_.drain) {
      simulator_.run();
    } else {
      simulator_.run_until(config_.duration);
    }
    return finalize(span);
  }

 private:
  void on_occupancy(int busy, std::size_t waiting) override {
    const double now = simulator_.now();
    busy_area_.update(now, static_cast<double>(busy));
    queue_area_.update(now, static_cast<double>(waiting));
  }

  /// The engine's only events are arrivals, each scheduled at its arrival
  /// instant, so the clock is the arrival time.
  void on_event(const TypedEvent& /*arrival*/) override {
    const double t = simulator_.now();
    ++result_.arrivals;
    c_arrivals.add();
    // Arrivals are only ever scheduled up to the horizon, so in-window
    // means "past warm-up".
    const bool measured = t >= config_.warm_up;
    if (measured) {
      ++result_.window_arrivals;
    }

    mapreduce::JobSpec spec =
        trace::sample_job_spec(config_.workload, next_job_id_++, shape_rng_);
    strategies::PolicyKind kind = config_.policy;
    {
      const obs::ScopedTimer plan_timer(t_plan);
      serve::PlanRequest request;
      request.spec = &spec;
      request.price = prices_.price_at(t);
      request.auto_strategy = config_.auto_strategy;
      request.policy = kind;
      kind = planner_.plan(request).kind;
    }
    // The pricing clock is the arrival time — never the trace-generation
    // time a sampled spec may carry, and never a later admission instant.
    CHRONOS_ENSURES(spec.price == prices_.price_at(t),
                    "arrival priced off its arrival-time spot price");
    if (measured) {
      baseline_pocd_.add(analytic_baseline_pocd(spec));
    }

    switch (admission_decide(
        config_.admission, spec,
        static_cast<double>(cluster_.pending_requests()),
        static_cast<double>(cluster_.idle_containers()),
        static_cast<double>(cluster_.total_containers()))) {
      case AdmissionDecision::kReject:
        ++result_.rejected;
        c_rejected.add();
        break;
      case AdmissionDecision::kDegrade:
        kind = strategies::PolicyKind::kHadoopNS;
        for (auto& st : spec.stages) {
          st.r = 0;
        }
        ++result_.degraded;
        c_degraded.add();
        [[fallthrough]];
      case AdmissionDecision::kAdmit:
        admit(spec, kind, measured);
        break;
    }

    const double next = arrivals_->next_after(t, arrival_rng_);
    if (std::isfinite(next) && next <= config_.duration) {
      simulator_.at(next, *this, TypedEvent{});
    }
  }

  void admit(const mapreduce::JobSpec& spec, strategies::PolicyKind kind,
             bool measured) {
    ++result_.admitted;
    c_admitted.add();
    if (measured) {
      ++result_.window_admitted;
    }
    result_.mix[kind] += 1;
    kPlanCounters[static_cast<std::size_t>(kind)].add();

    mux_.stage(kind);
    const auto slot = static_cast<std::size_t>(scheduler_.submit(spec));
    // Per-job engine state is indexed by job slot and reused with it.
    if (slot >= slot_measured_.size()) {
      slot_measured_.resize(slot + 1);
    }
    slot_measured_[slot] = measured ? 1 : 0;
    ++in_flight_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    jobs_area_.update(simulator_.now(), static_cast<double>(in_flight_));
    g_in_flight.update(static_cast<std::uint64_t>(in_flight_));
  }

  void on_job_done(int job) override {
    ++result_.completed;
    c_completed.add();
    --in_flight_;
    jobs_area_.update(simulator_.now(), static_cast<double>(in_flight_));

    const auto& record = scheduler_.job(job);
    if (slot_measured_[static_cast<std::size_t>(job)] != 0) {
      JobOutcome outcome;
      outcome.job_id = record.spec.job_id;
      outcome.met_deadline = record.completion_time <= record.spec.deadline;
      outcome.completion_time = record.completion_time;
      outcome.deadline = record.spec.deadline;
      outcome.machine_time = record.machine_time;
      outcome.cost = record.machine_time * record.spec.price;
      outcome.r_used = record.spec.stage(0).r;
      outcome.attempts_launched = record.attempts_launched;
      outcome.attempts_killed = record.attempts_killed;
      outcome.attempts_failed = record.attempts_failed;
      measured_.record(outcome);
      sojourn_.add(record.completion_time);
      if (!outcome.met_deadline) {
        c_misses.add();
      }
    }
    scheduler_.release_job(job);
  }

  double analytic_baseline_pocd(const mapreduce::JobSpec& spec) const {
    // Root-stage view under the whole job deadline — the same baseline the
    // planner's r_min_from_baseline mode computes for single-stage jobs.
    core::JobParams params;
    params.num_tasks = spec.stage(0).num_tasks;
    params.deadline = spec.deadline;
    params.t_min = spec.stage(0).t_min;
    params.beta = spec.stage(0).beta;
    params.tau_est = 0.0;
    params.tau_kill = 0.0;
    params.phi_est = 0.0;
    return core::pocd_no_speculation(params);
  }

  OpenSystemResult finalize(obs::TraceSpan& span) {
    result_.window = config_.duration - config_.warm_up;
    result_.in_flight_at_end = static_cast<std::uint64_t>(in_flight_);
    result_.offered_rate =
        static_cast<double>(result_.window_arrivals) / result_.window;
    result_.admitted_rate =
        static_cast<double>(result_.window_admitted) / result_.window;
    result_.utilization =
        busy_area_.mean() / static_cast<double>(cluster_.total_containers());
    result_.mean_jobs_in_system = jobs_area_.mean();
    result_.mean_queue_depth = queue_area_.mean();
    if (sojourn_.count() > 0) {
      result_.mean_sojourn = sojourn_.mean();
    }
    if (measured_.jobs() > 0) {
      result_.miss_rate = 1.0 - measured_.pocd();
      result_.mean_cost = measured_.mean_cost();
    }
    if (baseline_pocd_.count() > 0) {
      result_.mean_baseline_pocd = baseline_pocd_.mean();
    }
    result_.metrics = measured_;
    const serve::PlannerServiceStats planner_stats = planner_.stats();
    result_.plan_cache_hits = planner_stats.hits;
    result_.plan_cache_misses = planner_stats.misses;
    result_.events_executed = simulator_.events_executed();
    result_.peak_in_flight = static_cast<std::uint64_t>(peak_in_flight_);
    result_.job_slots = static_cast<std::uint64_t>(scheduler_.num_slots());
    // Without drain the clock hard-stops at the horizon even when the last
    // executed event lies before it; with drain the queue runs dry and the
    // last completion may lie past the horizon.
    result_.end_time = std::max(simulator_.now(), config_.duration);

    CHRONOS_ENSURES(result_.arrivals == result_.admitted + result_.rejected,
                    "arrival conservation violated");
    CHRONOS_ENSURES(
        result_.admitted == result_.completed + result_.in_flight_at_end,
        "admitted-job conservation violated");

    span.note("arrivals", static_cast<double>(result_.arrivals));
    span.note("events", static_cast<double>(result_.events_executed));
    CHRONOS_LOG(kDebug) << "open system: " << result_.arrivals
                        << " arrivals, " << result_.completed
                        << " completed, " << result_.events_executed
                        << " events";
    return result_;
  }

  const OpenSystemConfig& config_;
  Rng master_;
  Rng arrival_rng_;
  Rng shape_rng_;
  Simulator simulator_;
  Cluster cluster_;
  MuxPolicy mux_;
  mapreduce::Scheduler scheduler_;
  trace::SpotPriceModel prices_;
  serve::PlannerService planner_;
  std::unique_ptr<trace::ArrivalProcess> arrivals_;
  WindowedArea busy_area_;
  WindowedArea queue_area_;
  WindowedArea jobs_area_;

  OpenSystemResult result_;
  RunMetrics measured_;
  stats::RunningStats sojourn_;
  stats::RunningStats baseline_pocd_;
  std::vector<std::uint8_t> slot_measured_;  ///< arrived in-window, by slot
  std::int64_t in_flight_ = 0;
  std::int64_t peak_in_flight_ = 0;
  int next_job_id_ = 0;
};

}  // namespace

AdmissionDecision admission_decide(const AdmissionConfig& config,
                                   const mapreduce::JobSpec& spec,
                                   double backlog, double idle_containers,
                                   double total_containers) {
  if (!config.enabled) {
    return AdmissionDecision::kAdmit;
  }
  if (backlog + static_cast<double>(spec.total_tasks()) >
      config.reject_queue_factor * total_containers) {
    return AdmissionDecision::kReject;
  }
  const double headroom = std::max(0.0, idle_containers - backlog);
  // Speculative demand over EVERY stage by construction: a job dominated by
  // a late stage speculates that stage's r extra attempts per task and must
  // not slip past the headroom check on the strength of a tiny root stage.
  double demand = 0.0;
  for (const auto& st : spec.stages) {
    demand += static_cast<double>(st.r) * static_cast<double>(st.num_tasks);
  }
  if (demand > config.degrade_headroom * headroom) {
    return AdmissionDecision::kDegrade;
  }
  return AdmissionDecision::kAdmit;
}

void AdmissionConfig::validate() const {
  CHRONOS_EXPECTS(std::isfinite(degrade_headroom) && degrade_headroom > 0.0,
                  "degrade_headroom must be positive and finite");
  CHRONOS_EXPECTS(
      std::isfinite(reject_queue_factor) && reject_queue_factor > 0.0,
      "reject_queue_factor must be positive and finite");
}

void OpenSystemConfig::validate() const {
  arrivals.validate();
  workload.validate();
  admission.validate();
  plan_cache.validate();
  CHRONOS_EXPECTS(std::isfinite(duration) && duration > 0.0,
                  "open-system duration must be positive and finite");
  CHRONOS_EXPECTS(std::isfinite(warm_up) && warm_up >= 0.0 &&
                      warm_up < duration,
                  "warm_up must lie in [0, duration)");
}

OpenSystemResult run_open_system(const OpenSystemConfig& config) {
  config.validate();
  OpenEngine engine(config);
  return engine.run();
}

}  // namespace chronos::sim
