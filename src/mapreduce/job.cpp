#include "mapreduce/job.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"

namespace chronos::mapreduce {

void JobSpec::add_reduce_stage(int reduce_tasks, double reduce_t_min,
                               double reduce_beta, long long reduce_r,
                               double reduce_tau_est, double reduce_tau_kill) {
  CHRONOS_EXPECTS(!stages.empty(),
                  "JobSpec: add_reduce_stage needs an existing map stage");
  const StageSpec& map = stages.front();
  StageSpec reduce;
  reduce.num_tasks = reduce_tasks;
  reduce.t_min = reduce_t_min > 0.0 ? reduce_t_min : map.t_min;
  reduce.beta = reduce_beta > 0.0 ? reduce_beta : map.beta;
  reduce.r = reduce_r >= 0 ? reduce_r : map.r;
  reduce.tau_est = reduce_tau_est >= 0.0 ? reduce_tau_est : map.tau_est;
  reduce.tau_kill = reduce_tau_kill >= 0.0 ? reduce_tau_kill : map.tau_kill;
  // deps left empty: the barrier-chain default makes the new stage wait on
  // the previous one, which is exactly the historical shuffle barrier.
  stages.push_back(std::move(reduce));
}

void JobRecord::reset(const JobSpec& new_spec, double now) {
  spec = new_spec;
  submit_time = now;
  // Tasks are laid out stage-major: stage s owns
  // [first_task(s), first_task(s) + stage(s).num_tasks).
  tasks.resize(static_cast<std::size_t>(spec.total_tasks()));
  for (TaskRecord& task : tasks) {
    std::vector<int> ids = std::move(task.attempt_ids);
    ids.clear();
    task = TaskRecord{};
    task.attempt_ids = std::move(ids);
  }
  attempts.clear();
  tasks_completed = 0;
  done = false;
  const auto num_stages = static_cast<std::size_t>(spec.num_stages());
  stage_started.assign(num_stages, 0);
  stage_start_time.assign(num_stages, 0.0);
  stage_tasks_completed.assign(num_stages, 0);
  completion_time = 0.0;
  machine_time = 0.0;
  attempts_launched = 0;
  attempts_killed = 0;
  attempts_failed = 0;
}

void JobSpec::validate() const {
  CHRONOS_EXPECTS(deadline > 0.0, "JobSpec: deadline must be positive");
  CHRONOS_EXPECTS(price >= 0.0, "JobSpec: price must be non-negative");
  CHRONOS_EXPECTS(jvm_mean >= 0.0, "JobSpec: jvm_mean must be non-negative");
  CHRONOS_EXPECTS(jvm_jitter >= 0.0 && jvm_jitter <= jvm_mean + 1e-12,
                  "JobSpec: jvm_jitter must lie in [0, jvm_mean]");
  CHRONOS_EXPECTS(!stages.empty(), "JobSpec: job needs at least one stage");
  for (int s = 0; s < num_stages(); ++s) {
    const StageSpec& st = stage(s);
    CHRONOS_EXPECTS(st.num_tasks >= 1, "StageSpec: num_tasks must be >= 1");
    CHRONOS_EXPECTS(st.t_min > 0.0, "StageSpec: t_min must be positive");
    CHRONOS_EXPECTS(st.beta > 0.0, "StageSpec: beta must be positive");
    CHRONOS_EXPECTS(st.tau_est >= 0.0,
                    "StageSpec: tau_est must be non-negative");
    CHRONOS_EXPECTS(st.tau_kill >= st.tau_est,
                    "StageSpec: tau_kill must be >= tau_est");
    CHRONOS_EXPECTS(st.r >= 0, "StageSpec: r must be non-negative");
    // Deps must reference strictly earlier stages (so the stage index order
    // is a topological order by construction) and must not repeat.
    for (std::size_t i = 0; i < st.deps.size(); ++i) {
      CHRONOS_EXPECTS(st.deps[i] >= 0 && st.deps[i] < s,
                      "StageSpec: deps must reference earlier stages");
      for (std::size_t j = 0; j < i; ++j) {
        CHRONOS_EXPECTS(st.deps[j] != st.deps[i],
                        "StageSpec: deps must not repeat");
      }
    }
  }
}

double AttemptRecord::true_progress(double now) const {
  if (state == AttemptState::kWaiting || now <= launch_time + jvm_time) {
    return start_offset;
  }
  const double elapsed_work = now - launch_time - jvm_time;
  if (work_duration <= 0.0) {
    return 1.0;
  }
  const double fraction = std::min(1.0, elapsed_work / work_duration);
  return start_offset + (1.0 - start_offset) * fraction;
}

}  // namespace chronos::mapreduce
