// Job / task / attempt data model for the simulated MapReduce engine.
//
// Mirrors the Hadoop YARN entities of §VI: an application master creates
// tasks for a submitted job, asks the cluster (RM) for containers, launches
// attempts in them (paying a JVM startup delay), monitors progress scores,
// and kills or speculates attempts per the active strategy.
//
// Jobs are staged DAGs: a JobSpec carries one StageSpec per stage (the
// paper's §III analysis is explicitly per-stage — "PoCD for map and reduce
// stages can be optimized separately"), and a stage launches only when all
// of its predecessor stages have completed. The default dependency shape is
// the barrier chain (stage s waits on stage s-1), which reproduces the
// classic map -> shuffle -> reduce semantics; explicit dependency lists
// enable fan-in / fan-out pipelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace chronos::mapreduce {

/// One stage of a job: a bag of identical tasks under one Pareto duration
/// law, with its own speculation plan. Timer fields are relative to the
/// stage's start (for stage 0 that is the job submission).
struct StageSpec {
  int num_tasks = 1;
  double t_min = 1.0;       ///< Pareto scale of attempt execution time
  double beta = 1.5;        ///< Pareto tail index of attempt execution time
  double tau_est = 0.0;     ///< straggler-detection time (Chronos strategies)
  double tau_kill = 0.0;    ///< kill time (Chronos strategies)
  long long r = 0;          ///< extra attempts chosen by the optimizer

  /// Predecessor stage indices. Empty = the default barrier chain: stage 0
  /// is a root, stage s depends on stage s-1 (today's shuffle barrier).
  /// Explicit lists enable fan-in / fan-out DAGs; every entry must name an
  /// earlier stage, so stage order is a topological order by construction.
  std::vector<int> deps;

  friend bool operator==(const StageSpec&, const StageSpec&) = default;
};

/// Static description of one job, produced by the workload/trace generators.
struct JobSpec {
  int job_id = 0;
  double deadline = 0.0;    ///< whole-DAG deadline, relative to submission
  double price = 1.0;       ///< VM price per machine-second at submission
  double jvm_mean = 0.0;    ///< mean JVM startup delay (0 = instant)
  double jvm_jitter = 0.0;  ///< +- uniform jitter around jvm_mean

  /// The stage vector — the single source of truth for the job's shape.
  /// Defaults to one map stage; every consumer resolves stages through the
  /// accessors below (there is no parallel scalar view to fall out of sync).
  std::vector<StageSpec> stages = {StageSpec{}};

  int num_stages() const { return static_cast<int>(stages.size()); }

  StageSpec& stage(int s) { return stages[static_cast<std::size_t>(s)]; }
  const StageSpec& stage(int s) const {
    return stages[static_cast<std::size_t>(s)];
  }

  int total_tasks() const {
    int total = 0;
    for (const StageSpec& st : stages) {
      total += st.num_tasks;
    }
    return total;
  }

  /// Task-index offset of stage `s`: tasks are laid out stage-major, so
  /// stage s owns [first_task(s), first_task(s) + stage(s).num_tasks).
  int first_task(int s) const {
    int offset = 0;
    for (int i = 0; i < s; ++i) {
      offset += stage(i).num_tasks;
    }
    return offset;
  }

  /// Stage that owns task index `task`.
  int stage_of_task(int task) const {
    int s = 0;
    while (task >= stage(s).num_tasks) {
      task -= stage(s).num_tasks;
      ++s;
    }
    return s;
  }

  /// The stage's predecessors with the barrier-chain default applied:
  /// explicit deps when given, otherwise {s - 1} (and {} for stage 0).
  std::vector<int> resolved_deps(int s) const {
    if (!stage(s).deps.empty()) {
      return stage(s).deps;
    }
    if (s == 0) {
      return {};
    }
    return {s - 1};
  }

  /// Legacy map+optional-reduce constructor: appends a reduce stage behind
  /// the shuffle barrier, resolving the historical inheritance sentinels
  /// (0 = inherit t_min/beta from the map stage, -1 = inherit r/taus) at
  /// construction time. Thin shim onto the staged form — after this call
  /// the job is an ordinary two-stage chain.
  void add_reduce_stage(int reduce_tasks, double reduce_t_min = 0.0,
                        double reduce_beta = 0.0, long long reduce_r = -1,
                        double reduce_tau_est = -1.0,
                        double reduce_tau_kill = -1.0);

  void validate() const;
};

enum class AttemptState {
  kWaiting,   ///< queued for a container
  kRunning,   ///< granted; executing (JVM startup included)
  kFinished,  ///< processed its assigned byte range
  kKilled,    ///< killed by the strategy or by task completion
  kFailed,    ///< crashed (node/VM failure); the scheduler retries the task
};

/// One execution attempt of a task.
struct AttemptRecord {
  int attempt_id = 0;       ///< index within the job's attempt table
  int task_index = 0;
  AttemptState state = AttemptState::kWaiting;
  int node = -1;

  double request_time = 0.0;   ///< when the container was requested
  double launch_time = 0.0;    ///< when the container was granted
  double jvm_time = 0.0;       ///< startup delay before any progress
  double work_duration = 0.0;  ///< time to process the assigned range
  double start_offset = 0.0;   ///< fraction of the split already processed
  double end_time = 0.0;       ///< finish or kill time (valid once ended)

  // First progress report (drives the Chronos estimator, Eq. 30).
  bool reported = false;
  double first_report_time = 0.0;
  double first_report_progress = 0.0;

  sim::EventId finish_event;

  /// True fraction of the task's split processed at time `now`
  /// (start_offset until the JVM is up, then linear to 1).
  double true_progress(double now) const;

  /// Absolute finish time (launch + jvm + work); valid once running.
  double planned_finish() const {
    return launch_time + jvm_time + work_duration;
  }

  bool running() const { return state == AttemptState::kRunning; }
  bool ended() const {
    return state == AttemptState::kFinished ||
           state == AttemptState::kKilled || state == AttemptState::kFailed;
  }
};

/// One task (one input split).
struct TaskRecord {
  std::vector<int> attempt_ids;
  bool completed = false;
  double completion_time = 0.0;  ///< relative to job submission
  int winner_attempt = -1;
  int extra_attempts_launched = 0;  ///< speculative copies beyond the first
};

/// Runtime state of a submitted job.
struct JobRecord {
  JobSpec spec;
  double submit_time = 0.0;
  std::vector<TaskRecord> tasks;  ///< stage-major: stage 0's tasks first
  std::vector<AttemptRecord> attempts;
  int tasks_completed = 0;
  bool done = false;

  // Per-stage runtime state, parallel to spec.stages.
  std::vector<std::uint8_t> stage_started;
  std::vector<double> stage_start_time;  ///< absolute; valid once started
  std::vector<int> stage_tasks_completed;

  double completion_time = 0.0;  ///< relative to submission
  double machine_time = 0.0;     ///< accrued VM seconds
  int attempts_launched = 0;
  int attempts_killed = 0;
  int attempts_failed = 0;  ///< crashes injected by the failure model

  /// Re-initializes the record for a newly submitted job, as a fresh
  /// record would be, but in place: every vector keeps its capacity (the
  /// scheduler reuses released job slots through this).
  void reset(const JobSpec& new_spec, double now);

  bool all_tasks_done() const {
    return tasks_completed == static_cast<int>(tasks.size());
  }

  /// Stage that owns `task` (delegates to the spec's stage-major layout).
  int stage_of_task(int task) const { return spec.stage_of_task(task); }

  bool stage_done(int s) const {
    return stage_tasks_completed[static_cast<std::size_t>(s)] ==
           spec.stage(s).num_tasks;
  }
};

}  // namespace chronos::mapreduce
