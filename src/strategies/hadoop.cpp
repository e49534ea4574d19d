#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "strategies/policies.h"

namespace chronos::strategies {

using mapreduce::EstimatorKind;
using mapreduce::SchedulerApi;

void HadoopSpeculation::on_task_completed(int job, int /*task*/,
                                          SchedulerApi& api) {
  // Hadoop only speculates after at least one task of the job has finished;
  // the first completion arms the periodic checker.
  if (!monitoring_.insert(job).second) {
    return;
  }
  api.arm_timer(job, 0, 0, options_.check_period);
}

void HadoopSpeculation::on_job_completed(int job, SchedulerApi& /*api*/) {
  monitoring_.erase(job);
}

void HadoopSpeculation::on_timer(int job, int /*stage*/, int /*tag*/,
                                 SchedulerApi& api) {
  check(job, api);
}

void HadoopSpeculation::check(int job, SchedulerApi& api) {
  const double submit = api.job(job).submit_time;

  // Hadoop speculates each stage separately: a stage becomes eligible once
  // at least one of its own tasks has finished, and estimates are compared
  // against that stage's average completion time.
  const auto& job_record = api.job(job);
  const auto stages = static_cast<std::size_t>(job_record.spec.num_stages());
  std::vector<double> stage_sum(stages, 0.0);
  std::vector<int> stage_count(stages, 0);
  for (int t = 0; t < job_record.spec.total_tasks(); ++t) {
    const auto& task_record = job_record.tasks[static_cast<std::size_t>(t)];
    if (task_record.completed) {
      const auto stage =
          static_cast<std::size_t>(job_record.stage_of_task(t));
      stage_sum[stage] += task_record.completion_time;
      ++stage_count[stage];
    }
  }

  // Find the running task whose estimated completion exceeds the average
  // completion time of finished tasks by the largest amount; speculate it
  // (one extra attempt per task, like default Hadoop).
  int worst_task = -1;
  double worst_gap = 0.0;
  for (const int task : api.incomplete_tasks(job)) {
    const auto& record = api.job(job);
    if (record.tasks[static_cast<std::size_t>(task)]
            .extra_attempts_launched > 0) {
      continue;  // already speculated
    }
    const auto stage = static_cast<std::size_t>(record.stage_of_task(task));
    if (stage_count[stage] == 0) {
      continue;  // no finished task in this stage yet
    }
    const double average =
        stage_sum[stage] / static_cast<double>(stage_count[stage]);
    const auto active = api.active_attempts(job, task);
    if (active.empty()) {
      continue;
    }
    const double estimate = api.estimate_completion(
        job, active.front(), EstimatorKind::kHadoopNaive);
    if (!std::isfinite(estimate)) {
      continue;  // no progress yet; Hadoop has nothing to extrapolate
    }
    const double gap = (estimate - submit) - average;
    if (gap > worst_gap) {
      worst_gap = gap;
      worst_task = task;
    }
  }
  if (worst_task >= 0) {
    api.launch_extra_attempt(job, worst_task, 0.0);
  }
  api.arm_timer(job, 0, 0, options_.check_period);
}

void Mantri::on_job_start(int job, SchedulerApi& api) {
  api.arm_timer(job, 0, kCheck, options_.check_period);
  api.arm_timer(job, 0, kPrune, options_.mantri_prune_period);
}

void Mantri::on_timer(int job, int /*stage*/, int tag, SchedulerApi& api) {
  if (tag == kCheck) {
    check(job, api);
  } else {
    prune(job, api);
  }
}

void Mantri::prune(int job, SchedulerApi& api) {
  // "Leaves one attempt with the best progress running": keep the attempt
  // with the highest reported progress score; unreported (still-starting)
  // attempts are spared so fresh copies get a chance. Runs on a slower
  // cadence than the launch check: duplicates accrue machine time until the
  // next prune — Mantri's aggressive launch-and-kill cycle is what makes it
  // expensive in §VII-B.
  for (const int task : api.incomplete_tasks(job)) {
    const auto active = api.active_attempts(job, task);
    if (active.size() < 2) {
      continue;
    }
    int best = -1;
    double best_progress = -1.0;
    std::vector<int> reported;
    for (const int id : active) {
      // Spare duplicates younger than half a prune period: they have not
      // had a fair chance to overtake yet.
      if (api.now() - api.attempt(job, id).launch_time <
          0.5 * options_.mantri_prune_period) {
        continue;
      }
      const auto report = api.observe(job, id);
      if (!report.available) {
        continue;
      }
      reported.push_back(id);
      if (report.progress > best_progress) {
        best_progress = report.progress;
        best = id;
      }
    }
    if (reported.size() < 2) {
      continue;
    }
    for (const int id : reported) {
      if (id != best) {
        api.kill_attempt(job, id);
      }
    }
  }
  api.arm_timer(job, 0, kPrune, options_.mantri_prune_period);
}

void Mantri::check(int job, SchedulerApi& api) {
  const double submit = api.job(job).submit_time;
  const double now = api.now();
  const double average = api.mean_completed_task_time(job);

  // Launch: Mantri restarts outliers only when the cluster has spare
  // capacity and nothing queues for it, duplicating tasks whose remaining
  // time exceeds the average task time by `mantri_threshold`, up to
  // `mantri_max_extra` extra attempts per task.
  if (average > 0.0) {
    for (const int task : api.incomplete_tasks(job)) {
      if (!api.cluster_has_idle_container() ||
          api.cluster_pending_requests() > 0) {
        break;
      }
      const auto& record = api.job(job);
      if (record.tasks[static_cast<std::size_t>(task)]
              .extra_attempts_launched >= options_.mantri_max_extra) {
        continue;
      }
      const auto active = api.active_attempts(job, task);
      if (active.empty()) {
        continue;
      }
      double best_remaining = std::numeric_limits<double>::infinity();
      for (const int id : active) {
        const double estimate = api.estimate_completion(job, id);
        if (std::isfinite(estimate)) {
          best_remaining = std::min(best_remaining, estimate - now);
        }
      }
      if (!std::isfinite(best_remaining)) {
        // Nothing has reported yet; fall back to elapsed-time heuristic:
        // the task has been running since submit with no progress.
        best_remaining = (now - submit);
      }
      if (best_remaining > average + options_.mantri_threshold) {
        api.launch_extra_attempt(job, task, 0.0);
      }
    }
  }
  api.arm_timer(job, 0, kCheck, options_.check_period);
}

}  // namespace chronos::strategies
