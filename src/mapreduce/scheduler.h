// The application-master / cluster driver.
//
// Owns all job state, talks to the Cluster for containers, executes attempt
// lifecycles on the discrete-event Simulator, and delegates every
// speculation decision to a pluggable SpeculationPolicy (one per run). The
// six strategies of §VII (Hadoop-NS/S, Mantri, Clone, S-Restart, S-Resume)
// are implemented as policies in src/strategies.
//
// Job state lives in a generation-tagged slot arena. A job index is a slot
// index; a driver that is done with a completed job calls release_job and
// the next submit reuses the slot's record, task, stage and sampler storage
// in place, so peak per-job state is O(max in-flight jobs), not O(jobs
// submitted). On the e2ebench open_sresume workload (100k arrivals),
// peak_rss_mb fell from 136.6 MB to 15.1 MB and sim.rss_kb_per_arrival from
// 1.24 KiB to 0 KiB against the earlier append-only job table.
//
// The scheduler's own events (container grants, attempt finish and crash,
// policy timers) are typed PODs carrying (slot, generation). A slot's
// generation advances when its job completes, so one check at dispatch
// drops every event of a finished job before it can reach the job, the
// policy, or the slot's next occupant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/progress.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace chronos::mapreduce {

class SchedulerApi;

/// Strategy hook interface. Policies keep per-job state keyed by the job
/// index passed to each hook and drive themselves with api.arm_timer. A
/// job index is a reusable slot: per-job state must be dropped in
/// on_job_completed, since the index names a different job after release.
class SpeculationPolicy {
 public:
  virtual ~SpeculationPolicy() = default;

  virtual std::string name() const = 0;

  /// How many attempts to launch per task when `stage` of `job` starts
  /// (Clone: the stage's r + 1). Also queried for every stage from inside
  /// submit, before on_stage_start(job, 0).
  virtual int initial_attempts(int job, const JobSpec& spec, int stage) const {
    (void)job;
    (void)spec;
    (void)stage;
    return 1;
  }

  /// Invoked right after a job's stage-0 attempts have been requested (and
  /// after on_stage_start(job, 0)).
  virtual void on_job_start(int job, SchedulerApi& api) {
    (void)job;
    (void)api;
  }

  /// Invoked whenever a task of `job` completes.
  virtual void on_task_completed(int job, int task, SchedulerApi& api) {
    (void)job;
    (void)task;
    (void)api;
  }

  /// Invoked when a stage's barrier clears and the stage starts, right
  /// after its tasks' initial attempts have been requested. Fires for
  /// every stage, including stage 0 at submission; stage-relative timers
  /// (tau_est / tau_kill) are armed here.
  virtual void on_stage_start(int job, int stage, SchedulerApi& api) {
    (void)job;
    (void)stage;
    (void)api;
  }

  /// Invoked when the job's last task completes.
  virtual void on_job_completed(int job, SchedulerApi& api) {
    (void)job;
    (void)api;
  }

  /// Invoked when a timer armed by api.arm_timer(job, stage, tag, delay)
  /// fires. Timers of a completed job are dropped by the scheduler and
  /// never arrive here.
  virtual void on_timer(int job, int stage, int tag, SchedulerApi& api) {
    (void)job;
    (void)stage;
    (void)tag;
    (void)api;
  }
};

/// Crash-failure injection (§VII remarks on system breakdown / VM crash).
struct FailureConfig {
  /// Exponential crash rate per attempt-second of execution. 0 = disabled.
  double rate = 0.0;
  /// When true, a crashed attempt's partial output is lost and the
  /// scheduler's automatic retry restarts from byte 0 even for resumed
  /// attempts; when false the retry keeps the attempt's start offset (the
  /// work-preserving assumption of §VI-B2).
  bool lose_partial_output = true;
};

struct SchedulerConfig {
  ProgressNoiseConfig noise = ProgressNoiseConfig::none();
  /// Estimator used by api.estimate_completion unless overridden per call.
  EstimatorKind estimator = EstimatorKind::kChronos;
  /// When false, resume offsets skip the Eq. 31 anticipation of bytes the
  /// original processes during the new attempts' JVM startup (ablation).
  bool anticipate_resume_offset = true;
  /// When false, RunMetrics drops per-job outcome rows and keeps only the
  /// running aggregates (open-system million-job runs).
  bool retain_outcomes = true;
  FailureConfig failures;
};

class Scheduler final : private sim::EventHandler,
                        private sim::Cluster::GrantSink {
 public:
  /// The simulator, cluster and policy must outlive the scheduler. The
  /// scheduler installs itself as the cluster's grant sink.
  Scheduler(sim::Simulator& simulator, sim::Cluster& cluster,
            SpeculationPolicy& policy, SchedulerConfig config, Rng rng);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits `spec` at the current simulated time; returns the job index
  /// (its slot). Reuses the most recently released slot when there is one;
  /// without releases, indices are 0, 1, 2, ... in submission order.
  int submit(const JobSpec& spec);

  /// Metrics of all completed jobs.
  const sim::RunMetrics& metrics() const { return metrics_; }

  /// Read access for tests and policies. A released slot still holds its
  /// last job's record until the slot is reused.
  const JobRecord& job(int job) const;

  /// Slots ever allocated: the high-water of jobs held at once (with no
  /// releases, the number of jobs submitted).
  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Returns a completed job's slot to the free list; the next submit
  /// reuses it. Long-running drivers call this once they have read the
  /// job's record (e.g. from on_job_completed). Events still pending for
  /// the job are popped and dropped by the generation check, and container
  /// grants still queued for its killed attempts are returned to the
  /// cluster. Requires the job to be done and not yet released.
  void release_job(int job);

 private:
  friend class SchedulerApi;

  /// Scheduler event kinds (TypedEvent::kind).
  enum EventKind : std::uint16_t {
    kGrant,          ///< container granted (delivered by the cluster)
    kAttemptFinish,  ///< arg = attempt id
    kAttemptCrash,   ///< arg = attempt id
    kPolicyTimer,    ///< arg = stage, tag = policy tag
  };

  /// One arena slot: the current (or last) occupant's state, whose vectors
  /// keep their capacity across occupants.
  struct JobSlot {
    JobRecord record;
    /// Pre-validated per-stage duration samplers, built at submission so
    /// the per-attempt hot path skips parameter validation and exponent
    /// derivation (draws stay bit-identical to Rng::pareto).
    std::vector<ParetoSampler> samplers;
    /// Advanced when the job completes: events stamped with an older value
    /// are stale.
    std::uint64_t generation = 0;
    bool released = false;
  };

  JobRecord& job_mut(int job);

  sim::TypedEvent make_event(int job, EventKind kind, int arg,
                             int tag = 0) const;

  /// The single dispatch of every scheduler event, timers and grants
  /// alike: drops it when its generation is stale (returning a granted
  /// container to the cluster), else routes it by kind. `node` is the
  /// granting node of a kGrant.
  void dispatch(const sim::TypedEvent& event, int node);
  void on_event(const sim::TypedEvent& event) override {
    dispatch(event, -1);
  }
  void on_grant(const sim::GrantTicket& ticket, int node) override {
    dispatch(ticket, node);
  }

  /// Creates an attempt record for `task` starting at `offset` and requests
  /// a container. Returns the attempt id.
  int launch_attempt(int job, int task, double offset);

  /// Called when the cluster grants a container to a live job.
  void on_container_granted(int job, int attempt, int node);

  /// Called by the finish event of a running attempt.
  void on_attempt_finished(int job, int attempt);

  /// Called by the crash event of a running attempt (failure injection):
  /// marks it failed and retries the task with a fresh attempt.
  void on_attempt_failed(int job, int attempt);

  /// Kills a waiting or running attempt (no-op when already ended).
  void kill_attempt(int job, int attempt);

  /// Accrues machine time and frees the container of an ended attempt.
  void end_attempt(int job, int attempt, AttemptState final_state);

  void complete_task(int job, int task, int winner_attempt);

  /// Marks `stage` started, requests its tasks' initial attempts, and fires
  /// the policy's on_stage_start hook.
  void start_stage(int job, int stage);

  /// Starts every not-yet-started stage whose predecessor stages (the
  /// spec's resolved deps) have all completed — the generalized shuffle
  /// barrier. Stages are scanned in index (= topological) order.
  void maybe_start_stages(int job);

  void maybe_complete_job(int job);

  sim::Simulator& simulator_;
  sim::Cluster& cluster_;
  SpeculationPolicy& policy_;
  SchedulerConfig config_;
  Rng rng_;
  std::vector<JobSlot> slots_;
  std::vector<int> free_slots_;  ///< released slots, reused LIFO
  std::optional<ExponentialSampler> crash_sampler_;  ///< when failures on
  sim::RunMetrics metrics_;
  std::unique_ptr<SchedulerApi> api_;
};

/// Facade through which policies inspect and act on jobs.
class SchedulerApi {
 public:
  explicit SchedulerApi(Scheduler& scheduler) : scheduler_(scheduler) {}

  double now() const;
  Rng& rng();

  const JobSpec& spec(int job) const;
  const JobRecord& job(int job) const;

  /// Time relative to the job's submission (strategy timers are job-local).
  double job_time(int job) const;

  /// Indices of tasks not yet completed (all stages).
  std::vector<int> incomplete_tasks(int job) const;

  /// Incomplete tasks restricted to one stage.
  std::vector<int> incomplete_stage_tasks(int job, int stage) const;

  /// Attempt ids of `task` that are waiting or running.
  std::vector<int> active_attempts(int job, int task) const;

  const AttemptRecord& attempt(int job, int attempt_id) const;

  /// Observes the attempt's progress score now (noise model applied).
  ProgressReport observe(int job, int attempt_id);

  /// Estimated absolute completion time using the configured estimator, or
  /// `kind` when given. Infinite when no estimate is possible.
  double estimate_completion(int job, int attempt_id);
  double estimate_completion(int job, int attempt_id, EstimatorKind kind);

  /// Launches an extra attempt of `task` processing [offset, 1]; returns the
  /// attempt id. Counts toward extra_attempts_launched.
  int launch_extra_attempt(int job, int task, double offset = 0.0);

  /// Kills one attempt (idempotent on ended attempts).
  void kill_attempt(int job, int attempt_id);

  /// Kills all active attempts of `task` except the one with the best
  /// observed progress (ties: lowest attempt id). No-op with < 2 active.
  void keep_best_progress(int job, int task);

  /// Kills all active attempts of `task` except the one with the smallest
  /// estimated completion time. Attempts with unknown estimates are treated
  /// as worst. No-op with < 2 active attempts.
  void keep_best_estimate(int job, int task);

  /// Eq. 31 resume offset for a detected straggler attempt.
  double resume_offset_for(int job, int attempt_id);

  /// Arms a policy timer: after `delay` seconds of simulated time the
  /// policy's on_timer(job, stage, tag) fires, unless the job has completed
  /// by then. Requires a live job and 0 <= tag <= 65535.
  void arm_timer(int job, int stage, int tag, double delay);

  /// Cluster occupancy, used by Mantri's launch condition.
  bool cluster_has_idle_container() const;
  std::size_t cluster_pending_requests() const;

  /// Mean completion time (relative to submission) of completed tasks.
  /// Returns 0 when none have completed.
  double mean_completed_task_time(int job) const;

  int completed_task_count(int job) const;

 private:
  Scheduler& scheduler_;
};

}  // namespace chronos::mapreduce
