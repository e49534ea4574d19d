#include "mapreduce/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace chronos::mapreduce {

namespace {

// Strictly observational, like the event queue's counters.
const obs::Counter c_slots_reused = obs::counter("sched.slots_reused");
const obs::Counter c_stale_dropped = obs::counter("sched.stale_events_dropped");

}  // namespace

Scheduler::Scheduler(sim::Simulator& simulator, sim::Cluster& cluster,
                     SpeculationPolicy& policy, SchedulerConfig config,
                     Rng rng)
    : simulator_(simulator),
      cluster_(cluster),
      policy_(policy),
      config_(config),
      rng_(rng),
      api_(std::make_unique<SchedulerApi>(*this)) {
  if (config_.failures.rate > 0.0) {
    crash_sampler_.emplace(config_.failures.rate);
  }
  metrics_.set_retain_outcomes(config_.retain_outcomes);
  cluster_.set_grant_sink(this);
}

Scheduler::~Scheduler() { cluster_.set_grant_sink(nullptr); }

const JobRecord& Scheduler::job(int job) const {
  CHRONOS_EXPECTS(job >= 0 && job < num_slots(), "job index out of range");
  return slots_[static_cast<std::size_t>(job)].record;
}

JobRecord& Scheduler::job_mut(int job) {
  CHRONOS_EXPECTS(job >= 0 && job < num_slots(), "job index out of range");
  return slots_[static_cast<std::size_t>(job)].record;
}

sim::TypedEvent Scheduler::make_event(int job, EventKind kind, int arg,
                                      int tag) const {
  sim::TypedEvent event;
  event.generation = slots_[static_cast<std::size_t>(job)].generation;
  event.slot = static_cast<std::uint32_t>(job);
  event.arg = arg;
  event.kind = kind;
  event.tag = static_cast<std::uint16_t>(tag);
  return event;
}

void Scheduler::dispatch(const sim::TypedEvent& event, int node) {
  const int job = static_cast<int>(event.slot);
  if (slots_[event.slot].generation != event.generation) {
    // The job completed after this event was stamped: it must reach
    // neither the policy nor the slot's next occupant. A granted container
    // goes straight back to the cluster.
    c_stale_dropped.add();
    if (event.kind == kGrant) {
      cluster_.release_container(node);
    }
    return;
  }
  switch (event.kind) {
    case kGrant:
      on_container_granted(job, event.arg, node);
      return;
    case kAttemptFinish:
      on_attempt_finished(job, event.arg);
      return;
    case kAttemptCrash:
      on_attempt_failed(job, event.arg);
      return;
    case kPolicyTimer:
      policy_.on_timer(job, event.arg, event.tag, *api_);
      return;
  }
  CHRONOS_ENSURES(false, "unknown scheduler event kind");
}

int Scheduler::submit(const JobSpec& spec) {
  spec.validate();
  int job_index;
  if (!free_slots_.empty()) {
    job_index = free_slots_.back();
    free_slots_.pop_back();
    c_slots_reused.add();
  } else {
    job_index = num_slots();
    slots_.emplace_back();
  }
  JobSlot& slot = slots_[static_cast<std::size_t>(job_index)];
  slot.released = false;
  slot.record.reset(spec, simulator_.now());
  slot.samplers.clear();
  for (const StageSpec& st : spec.stages) {
    slot.samplers.emplace_back(st.t_min, st.beta);
  }
  // Capacity hint: every task gets its stage's initial attempts (one
  // finish/crash event each) plus up to its stage's r speculative ones.
  // Crash retries can still exceed this; the queue grows geometrically.
  std::size_t event_hint = 0;
  for (int s = 0; s < spec.num_stages(); ++s) {
    const int copies =
        std::max(1, policy_.initial_attempts(job_index, spec, s));
    event_hint += static_cast<std::size_t>(spec.stage(s).num_tasks) *
                  static_cast<std::size_t>(copies + spec.stage(s).r);
  }
  simulator_.reserve_events(event_hint);
  start_stage(job_index, 0);
  policy_.on_job_start(job_index, *api_);
  return job_index;
}

void Scheduler::release_job(int job) {
  CHRONOS_EXPECTS(job >= 0 && job < num_slots(), "job index out of range");
  JobSlot& slot = slots_[static_cast<std::size_t>(job)];
  CHRONOS_EXPECTS(slot.record.done, "release_job requires a completed job");
  CHRONOS_EXPECTS(!slot.released, "job slot already released");
  slot.released = true;
  free_slots_.push_back(job);
}

void Scheduler::start_stage(int job, int stage) {
  auto& record = job_mut(job);
  record.stage_started[static_cast<std::size_t>(stage)] = 1;
  record.stage_start_time[static_cast<std::size_t>(stage)] = simulator_.now();
  const int copies =
      std::max(1, policy_.initial_attempts(job, record.spec, stage));
  const int first = record.spec.first_task(stage);
  const int last = first + record.spec.stage(stage).num_tasks;
  for (int task = first; task < last; ++task) {
    for (int copy = 0; copy < copies; ++copy) {
      launch_attempt(job, task, 0.0);
    }
    if (copies > 1) {
      // Only the first copy is the "original"; the rest are speculative.
      job_mut(job).tasks[static_cast<std::size_t>(task)]
          .extra_attempts_launched += copies - 1;
    }
  }
  policy_.on_stage_start(job, stage, *api_);
}

void Scheduler::maybe_start_stages(int job) {
  auto& record = job_mut(job);
  for (int s = 1; s < record.spec.num_stages(); ++s) {
    if (record.stage_started[static_cast<std::size_t>(s)]) {
      continue;
    }
    bool ready = true;
    for (const int dep : record.spec.resolved_deps(s)) {
      if (!record.stage_done(dep)) {
        ready = false;
        break;
      }
    }
    if (ready) {
      start_stage(job, s);
    }
  }
}

int Scheduler::launch_attempt(int job, int task, double offset) {
  auto& record = job_mut(job);
  CHRONOS_EXPECTS(!record.done, "cannot launch an attempt of a completed job");
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  CHRONOS_EXPECTS(offset >= 0.0 && offset < 1.0,
                  "resume offset must lie in [0, 1)");
  const int attempt_id = static_cast<int>(record.attempts.size());
  AttemptRecord attempt;
  attempt.attempt_id = attempt_id;
  attempt.task_index = task;
  attempt.state = AttemptState::kWaiting;
  attempt.request_time = simulator_.now();
  attempt.start_offset = offset;
  record.attempts.push_back(attempt);
  record.tasks[static_cast<std::size_t>(task)].attempt_ids.push_back(
      attempt_id);
  ++record.attempts_launched;

  cluster_.request_container(make_event(job, kGrant, attempt_id));
  return attempt_id;
}

void Scheduler::on_container_granted(int job, int attempt_id, int node) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  if (attempt.state != AttemptState::kWaiting) {
    // Killed while queued (or the task finished): return the container.
    cluster_.release_container(node);
    return;
  }
  attempt.state = AttemptState::kRunning;
  attempt.node = node;
  attempt.launch_time = simulator_.now();

  const auto& spec = record.spec;
  // Total execution time of a full-split attempt follows the stage's Pareto
  // law, scaled by the node's contention slowdown (§VII-A observed the
  // combined distribution is Pareto with beta < 2).
  const auto& samplers = slots_[static_cast<std::size_t>(job)].samplers;
  const ParetoSampler& stage = samplers[static_cast<std::size_t>(
      record.stage_of_task(attempt.task_index))];
  const double slowdown = cluster_.sample_slowdown(node, rng_);
  const double total = stage(rng_) * slowdown;
  double jvm = 0.0;
  if (spec.jvm_mean > 0.0) {
    jvm = std::max(0.0, rng_.uniform(spec.jvm_mean - spec.jvm_jitter,
                                     spec.jvm_mean + spec.jvm_jitter));
    // The JVM startup is part of the attempt's execution time; never let it
    // consume the entire sampled duration.
    jvm = std::min(jvm, 0.9 * total);
  }
  const double full_work = total - jvm;
  attempt.jvm_time = jvm;
  attempt.work_duration = (1.0 - attempt.start_offset) * full_work;

  // Failure injection: the attempt crashes before finishing when an
  // exponential crash clock fires first.
  if (crash_sampler_) {
    const double crash_after = (*crash_sampler_)(rng_);
    if (attempt.launch_time + crash_after < attempt.planned_finish()) {
      attempt.finish_event =
          simulator_.at(attempt.launch_time + crash_after, *this,
                        make_event(job, kAttemptCrash, attempt_id));
      return;
    }
  }
  attempt.finish_event =
      simulator_.at(attempt.planned_finish(), *this,
                    make_event(job, kAttemptFinish, attempt_id));
}

void Scheduler::on_attempt_failed(int job, int attempt_id) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "crash event fired for a non-running attempt");
  const int task = attempt.task_index;
  const double offset =
      config_.failures.lose_partial_output ? 0.0 : attempt.start_offset;
  end_attempt(job, attempt_id, AttemptState::kFailed);
  ++record.attempts_failed;
  // Hadoop retries failed attempts; keep the task alive with a fresh copy
  // (only when no sibling attempt is still working on it).
  const auto& task_record = record.tasks[static_cast<std::size_t>(task)];
  if (task_record.completed) {
    return;
  }
  bool sibling_active = false;
  for (const int id : task_record.attempt_ids) {
    if (!record.attempts[static_cast<std::size_t>(id)].ended()) {
      sibling_active = true;
      break;
    }
  }
  if (!sibling_active) {
    launch_attempt(job, task, offset);
  }
}

void Scheduler::on_attempt_finished(int job, int attempt_id) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "finish event fired for a non-running attempt");
  end_attempt(job, attempt_id, AttemptState::kFinished);
  complete_task(job, attempt.task_index, attempt_id);
}

void Scheduler::kill_attempt(int job, int attempt_id) {
  auto& record = job_mut(job);
  CHRONOS_EXPECTS(
      attempt_id >= 0 &&
          attempt_id < static_cast<int>(record.attempts.size()),
      "attempt id out of range");
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  if (attempt.ended()) {
    return;
  }
  if (attempt.state == AttemptState::kRunning) {
    simulator_.cancel(attempt.finish_event);
    end_attempt(job, attempt_id, AttemptState::kKilled);
  } else {
    // Still waiting: mark killed; the pending grant callback will return the
    // container immediately.
    attempt.state = AttemptState::kKilled;
    attempt.end_time = simulator_.now();
  }
  ++record.attempts_killed;
}

void Scheduler::end_attempt(int job, int attempt_id,
                            AttemptState final_state) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "end_attempt on a non-running attempt");
  attempt.state = final_state;
  attempt.end_time = simulator_.now();
  record.machine_time += attempt.end_time - attempt.launch_time;
  cluster_.release_container(attempt.node);
}

void Scheduler::complete_task(int job, int task, int winner_attempt) {
  auto& record = job_mut(job);
  auto& task_record = record.tasks[static_cast<std::size_t>(task)];
  if (task_record.completed) {
    return;  // a sibling attempt already finished
  }
  task_record.completed = true;
  task_record.winner_attempt = winner_attempt;
  task_record.completion_time = simulator_.now() - record.submit_time;
  ++record.tasks_completed;
  ++record.stage_tasks_completed[static_cast<std::size_t>(
      record.stage_of_task(task))];
  // Hadoop kills the remaining attempts of a completed task.
  for (const int sibling : task_record.attempt_ids) {
    if (sibling != winner_attempt) {
      kill_attempt(job, sibling);
    }
  }
  policy_.on_task_completed(job, task, *api_);
  maybe_start_stages(job);
  maybe_complete_job(job);
}

void Scheduler::maybe_complete_job(int job) {
  auto& record = job_mut(job);
  if (record.done || !record.all_tasks_done()) {
    return;
  }
  record.done = true;
  // Every event still pending for this job is stale from here on.
  ++slots_[static_cast<std::size_t>(job)].generation;
  record.completion_time = simulator_.now() - record.submit_time;

  sim::JobOutcome outcome;
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
  metrics_.record(outcome);

  policy_.on_job_completed(job, *api_);
}

// ---------------------------------------------------------------------------
// SchedulerApi

double SchedulerApi::now() const { return scheduler_.simulator_.now(); }

Rng& SchedulerApi::rng() { return scheduler_.rng_; }

const JobSpec& SchedulerApi::spec(int job) const {
  return scheduler_.job(job).spec;
}

const JobRecord& SchedulerApi::job(int job) const {
  return scheduler_.job(job);
}

double SchedulerApi::job_time(int job) const {
  return now() - scheduler_.job(job).submit_time;
}

std::vector<int> SchedulerApi::incomplete_tasks(int job) const {
  const auto& record = scheduler_.job(job);
  std::vector<int> tasks;
  for (int t = 0; t < record.spec.total_tasks(); ++t) {
    if (!record.tasks[static_cast<std::size_t>(t)].completed) {
      tasks.push_back(t);
    }
  }
  return tasks;
}

std::vector<int> SchedulerApi::incomplete_stage_tasks(int job,
                                                      int stage) const {
  const auto& record = scheduler_.job(job);
  std::vector<int> tasks;
  const int first = record.spec.first_task(stage);
  const int last = first + record.spec.stage(stage).num_tasks;
  for (int t = first; t < last; ++t) {
    if (!record.tasks[static_cast<std::size_t>(t)].completed) {
      tasks.push_back(t);
    }
  }
  return tasks;
}

std::vector<int> SchedulerApi::active_attempts(int job, int task) const {
  const auto& record = scheduler_.job(job);
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  std::vector<int> active;
  for (const int id :
       record.tasks[static_cast<std::size_t>(task)].attempt_ids) {
    if (!record.attempts[static_cast<std::size_t>(id)].ended()) {
      active.push_back(id);
    }
  }
  return active;
}

const AttemptRecord& SchedulerApi::attempt(int job, int attempt_id) const {
  const auto& record = scheduler_.job(job);
  CHRONOS_EXPECTS(
      attempt_id >= 0 &&
          attempt_id < static_cast<int>(record.attempts.size()),
      "attempt id out of range");
  return record.attempts[static_cast<std::size_t>(attempt_id)];
}

ProgressReport SchedulerApi::observe(int job, int attempt_id) {
  auto& record = scheduler_.job_mut(job);
  auto& att = record.attempts[static_cast<std::size_t>(attempt_id)];
  const auto report = observe_progress(att, now(), scheduler_.config_.noise,
                                       scheduler_.rng_);
  if (report.available && !att.reported) {
    // The first heartbeat carrying progress arrives as soon as the JVM is
    // up; the Chronos estimator anchors its startup correction there
    // (Eq. 30: t_FP). Progress at that instant is the resume offset.
    att.reported = true;
    att.first_report_time = att.launch_time + att.jvm_time;
    att.first_report_progress = att.start_offset;
  }
  return report;
}

double SchedulerApi::estimate_completion(int job, int attempt_id) {
  return estimate_completion(job, attempt_id,
                             scheduler_.config_.estimator);
}

double SchedulerApi::estimate_completion(int job, int attempt_id,
                                         EstimatorKind kind) {
  const auto report = observe(job, attempt_id);
  return estimate_completion_time(attempt(job, attempt_id), report, kind);
}

int SchedulerApi::launch_extra_attempt(int job, int task, double offset) {
  auto& record = scheduler_.job_mut(job);
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  ++record.tasks[static_cast<std::size_t>(task)].extra_attempts_launched;
  return scheduler_.launch_attempt(job, task, offset);
}

void SchedulerApi::kill_attempt(int job, int attempt_id) {
  scheduler_.kill_attempt(job, attempt_id);
}

void SchedulerApi::keep_best_progress(int job, int task) {
  const auto active = active_attempts(job, task);
  if (active.size() < 2) {
    return;
  }
  int best = active.front();
  double best_progress = -1.0;
  for (const int id : active) {
    const auto report = observe(job, id);
    const double progress = report.available ? report.progress : 0.0;
    if (progress > best_progress) {
      best_progress = progress;
      best = id;
    }
  }
  for (const int id : active) {
    if (id != best) {
      kill_attempt(job, id);
    }
  }
}

void SchedulerApi::keep_best_estimate(int job, int task) {
  const auto active = active_attempts(job, task);
  if (active.size() < 2) {
    return;
  }
  int best = active.front();
  double best_estimate = std::numeric_limits<double>::infinity();
  for (const int id : active) {
    const double estimate = estimate_completion(job, id);
    if (estimate < best_estimate) {
      best_estimate = estimate;
      best = id;
    }
  }
  for (const int id : active) {
    if (id != best) {
      kill_attempt(job, id);
    }
  }
}

double SchedulerApi::resume_offset_for(int job, int attempt_id) {
  const auto report = observe(job, attempt_id);
  const double progress = report.available ? report.progress : 0.0;
  if (!scheduler_.config_.anticipate_resume_offset) {
    // Ablation: resume exactly at the observed offset; the original's
    // progress during the new attempts' JVM startup is reprocessed.
    return std::clamp(progress, 0.0, 1.0);
  }
  return resume_offset(attempt(job, attempt_id), progress, now());
}

void SchedulerApi::arm_timer(int job, int stage, int tag, double delay) {
  CHRONOS_EXPECTS(!scheduler_.job(job).done,
                  "cannot arm a timer for a completed job");
  CHRONOS_EXPECTS(tag >= 0 && tag <= std::numeric_limits<std::uint16_t>::max(),
                  "timer tag out of range");
  scheduler_.simulator_.after(
      delay, scheduler_,
      scheduler_.make_event(job, Scheduler::kPolicyTimer, stage, tag));
}

bool SchedulerApi::cluster_has_idle_container() const {
  return scheduler_.cluster_.has_idle_container();
}

std::size_t SchedulerApi::cluster_pending_requests() const {
  return scheduler_.cluster_.pending_requests();
}

double SchedulerApi::mean_completed_task_time(int job) const {
  const auto& record = scheduler_.job(job);
  double sum = 0.0;
  int count = 0;
  for (const auto& task : record.tasks) {
    if (task.completed) {
      sum += task.completion_time;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

int SchedulerApi::completed_task_count(int job) const {
  return scheduler_.job(job).tasks_completed;
}

}  // namespace chronos::mapreduce
