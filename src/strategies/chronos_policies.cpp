#include <cmath>
#include <vector>

#include "common/error.h"
#include "strategies/policies.h"

namespace chronos::strategies {

using mapreduce::SchedulerApi;

int original_active_attempt(SchedulerApi& api, int job, int task) {
  const auto active = api.active_attempts(job, task);
  if (active.empty()) {
    return -1;
  }
  int original = active.front();
  double earliest = api.attempt(job, original).request_time;
  for (const int id : active) {
    const double requested = api.attempt(job, id).request_time;
    if (requested < earliest) {
      earliest = requested;
      original = id;
    }
  }
  return original;
}

namespace {

/// True when the attempt's estimated completion (job-relative) misses the
/// job deadline; unknown estimates count as stragglers (no progress at
/// detection time is the worst signal available).
bool is_straggler(SchedulerApi& api, int job, int attempt_id) {
  const double estimate = api.estimate_completion(job, attempt_id);
  if (!std::isfinite(estimate)) {
    return true;
  }
  const auto& record = api.job(job);
  return estimate - record.submit_time > record.spec.deadline;
}

}  // namespace

void Clone::on_stage_start(int job, int stage, SchedulerApi& api) {
  // All r+1 copies were launched by the scheduler (initial_attempts); at
  // tau_kill keep the copy with the best progress score (§III, Fig. 1a).
  // The kill timer (Clone's only timer) runs relative to the stage's start.
  api.arm_timer(job, stage, 0, api.spec(job).stage(stage).tau_kill);
}

void Clone::on_timer(int job, int stage, int /*tag*/, SchedulerApi& api) {
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    api.keep_best_progress(job, task);
  }
}

void SpeculativeRestart::on_stage_start(int job, int stage,
                                        SchedulerApi& api) {
  const auto& st = api.spec(job).stage(stage);
  api.arm_timer(job, stage, kDetectTimer, st.tau_est);
  api.arm_timer(job, stage, kReapTimer, st.tau_kill);
}

void SpeculativeRestart::on_timer(int job, int stage, int tag,
                                  SchedulerApi& api) {
  if (tag == kDetectTimer) {
    detect(job, stage, api);
  } else {
    reap(job, stage, api);
  }
}

void SpeculativeRestart::detect(int job, int stage, SchedulerApi& api) {
  const long long extras = api.spec(job).stage(stage).r;
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    const int original = original_active_attempt(api, job, task);
    if (original < 0 || !is_straggler(api, job, original)) {
      continue;
    }
    // Launch r fresh copies that restart from byte 0; the original keeps
    // running (Fig. 1b).
    for (long long k = 0; k < extras; ++k) {
      api.launch_extra_attempt(job, task, 0.0);
    }
  }
}

void SpeculativeRestart::reap(int job, int stage, SchedulerApi& api) {
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    api.keep_best_estimate(job, task);
  }
}

void SpeculativeResume::on_stage_start(int job, int stage,
                                       SchedulerApi& api) {
  const auto& st = api.spec(job).stage(stage);
  api.arm_timer(job, stage, kDetectTimer, st.tau_est);
  api.arm_timer(job, stage, kReapTimer, st.tau_kill);
}

void SpeculativeResume::on_timer(int job, int stage, int tag,
                                 SchedulerApi& api) {
  if (tag == kDetectTimer) {
    detect(job, stage, api);
  } else {
    reap(job, stage, api);
  }
}

void SpeculativeResume::detect(int job, int stage, SchedulerApi& api) {
  const long long extras = api.spec(job).stage(stage).r;
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    const int original = original_active_attempt(api, job, task);
    if (original < 0 || !is_straggler(api, job, original)) {
      continue;
    }
    // Work-preserving speculation (Fig. 1c): kill the straggler and launch
    // r+1 copies that resume from the anticipated byte offset (Eq. 31),
    // skipping the bytes the original would process during JVM startup.
    const double offset = api.resume_offset_for(job, original);
    api.kill_attempt(job, original);
    if (offset >= 1.0) {
      // The original would finish during the handover; nothing to resume.
      // Launch one full copy to guarantee task completion.
      api.launch_extra_attempt(job, task, 0.0);
      continue;
    }
    for (long long k = 0; k < extras + 1; ++k) {
      api.launch_extra_attempt(job, task, offset);
    }
  }
}

void SpeculativeResume::reap(int job, int stage, SchedulerApi& api) {
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    api.keep_best_estimate(job, task);
  }
}

}  // namespace chronos::strategies
