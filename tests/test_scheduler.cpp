// Scheduler lifecycle tests: attempt execution, kills, container accounting,
// machine-time accrual, and metrics.
#include "mapreduce/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "closure_handler.h"
#include "common/error.h"
#include "common/rng.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "strategies/policies.h"

namespace chronos::mapreduce {
namespace {

JobSpec small_job(int tasks = 4) {
  JobSpec spec;
  spec.job_id = 0;
  spec.stage(0).num_tasks = tasks;
  spec.deadline = 120.0;
  spec.stage(0).t_min = 30.0;
  spec.stage(0).beta = 1.5;
  spec.stage(0).tau_est = 40.0;
  spec.stage(0).tau_kill = 80.0;
  spec.price = 2.0;
  return spec;
}

struct Rig {
  sim::Simulator simulator;
  sim::Cluster cluster;
  strategies::HadoopNoSpeculation policy;
  Scheduler scheduler;

  explicit Rig(int nodes = 4, int containers = 8, std::uint64_t seed = 1)
      : cluster(sim::ClusterConfig::uniform(
            nodes, [&] {
              sim::NodeConfig node;
              node.containers = containers;
              return node;
            }())),
        scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(seed)) {}
};

TEST(Scheduler, SingleJobRunsToCompletion) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  EXPECT_TRUE(job.done);
  EXPECT_EQ(job.tasks_completed, 4);
  EXPECT_EQ(rig.scheduler.metrics().jobs(), 1u);
}

TEST(Scheduler, CompletionTimeIsMaxTaskTime) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  double max_task = 0.0;
  for (const auto& task : job.tasks) {
    EXPECT_TRUE(task.completed);
    max_task = std::max(max_task, task.completion_time);
  }
  EXPECT_NEAR(job.completion_time, max_task, 1e-9);
  EXPECT_GE(job.completion_time, 30.0);  // every attempt takes >= t_min
}

TEST(Scheduler, MachineTimeEqualsSumOfAttemptDurations) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  double sum = 0.0;
  for (const auto& attempt : job.attempts) {
    EXPECT_TRUE(attempt.ended());
    sum += attempt.end_time - attempt.launch_time;
  }
  EXPECT_NEAR(job.machine_time, sum, 1e-9);
  EXPECT_GE(job.machine_time, 4 * 30.0);
}

TEST(Scheduler, OutcomeCostUsesPrice) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& outcome = rig.scheduler.metrics().outcomes().front();
  const auto& job = rig.scheduler.job(0);
  EXPECT_NEAR(outcome.cost, 2.0 * job.machine_time, 1e-9);
  EXPECT_EQ(outcome.met_deadline,
            job.completion_time <= job.spec.deadline);
}

TEST(Scheduler, AllContainersReleasedAtEnd) {
  Rig rig;
  rig.scheduler.submit(small_job(16));
  rig.simulator.run();
  EXPECT_EQ(rig.cluster.busy_containers(), 0);
  EXPECT_EQ(rig.cluster.pending_requests(), 0u);
}

TEST(Scheduler, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Rig rig(4, 8, seed);
    rig.scheduler.submit(small_job(8));
    rig.simulator.run();
    return rig.scheduler.job(0).completion_time;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Scheduler, QueuesWhenClusterSaturated) {
  Rig rig(1, 2);  // 2 containers, 6 tasks
  rig.scheduler.submit(small_job(6));
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  EXPECT_TRUE(job.done);
  // With only 2 containers, later attempts must have waited: their launch
  // time exceeds their request time.
  bool queued = false;
  for (const auto& attempt : job.attempts) {
    queued = queued || attempt.launch_time > attempt.request_time;
  }
  EXPECT_TRUE(queued);
}

TEST(Scheduler, JvmStartupDelaysProgress) {
  Rig rig;
  auto spec = small_job(1);
  spec.jvm_mean = 5.0;
  spec.jvm_jitter = 0.0;
  rig.scheduler.submit(spec);
  rig.simulator.run();
  const auto& attempt = rig.scheduler.job(0).attempts.front();
  EXPECT_GT(attempt.jvm_time, 0.0);
  EXPECT_NEAR(attempt.end_time,
              attempt.launch_time + attempt.jvm_time + attempt.work_duration,
              1e-9);
}

/// Policy used to exercise kills and sibling completion from tests.
class KillAtTime final : public SpeculationPolicy {
 public:
  std::string name() const override { return "test-kill"; }
  int initial_attempts(int, const JobSpec&, int) const override { return 2; }
  void on_job_start(int job, SchedulerApi& api) override {
    api.arm_timer(job, 0, 0, 1.0);
  }
  void on_timer(int job, int, int, SchedulerApi& api) override {
    // Kill the second attempt of task 0 early.
    const auto active = api.active_attempts(job, 0);
    if (active.size() > 1) {
      api.kill_attempt(job, active.back());
    }
  }
};

TEST(Scheduler, PolicyKillsAreAccounted) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 16;
  sim::Cluster cluster(sim::ClusterConfig::uniform(2, node));
  KillAtTime policy;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(3));
  scheduler.submit(small_job(2));
  simulator.run();
  const auto& job = scheduler.job(0);
  EXPECT_TRUE(job.done);
  // 2 tasks x 2 attempts launched; at least the killed one plus the loser
  // of task 1 are killed.
  EXPECT_EQ(job.attempts_launched, 4);
  EXPECT_GE(job.attempts_killed, 2);
  // Task 0 still completed via its surviving attempt.
  EXPECT_TRUE(job.tasks[0].completed);
}

TEST(Scheduler, SiblingAttemptsKilledOnTaskCompletion) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 16;
  sim::Cluster cluster(sim::ClusterConfig::uniform(2, node));
  strategies::Clone policy;
  auto spec = small_job(3);
  spec.stage(0).r = 2;  // 3 attempts per task
  spec.stage(0).tau_kill = 1e9;  // never reap: completion does the killing
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(5));
  scheduler.submit(spec);
  simulator.run();
  const auto& job = scheduler.job(0);
  EXPECT_EQ(job.attempts_launched, 9);
  EXPECT_EQ(job.attempts_killed, 6);  // 2 losers per task
  for (const auto& task : job.tasks) {
    int finished = 0;
    for (const int id : task.attempt_ids) {
      finished +=
          job.attempts[static_cast<std::size_t>(id)].state ==
                  AttemptState::kFinished
              ? 1
              : 0;
    }
    EXPECT_EQ(finished, 1);
  }
}

// --- job-slot reuse and stale events -----------------------------------------

JobSpec one_stage_job(int id, int tasks, double t_min) {
  JobSpec spec;
  spec.job_id = id;
  spec.deadline = 1e6;
  spec.stage(0).num_tasks = tasks;
  spec.stage(0).t_min = t_min;
  spec.stage(0).beta = 50.0;  // durations within ~2% of t_min
  return spec;
}

/// Releases every completed job's slot, as a long-running driver does.
class Releasing : public SpeculationPolicy {
 public:
  Scheduler* scheduler = nullptr;
  void on_job_completed(int job, SchedulerApi&) override {
    scheduler->release_job(job);
  }
};

/// Arms a short timer and one that outlives the job; records deliveries.
class LongTimer final : public Releasing {
 public:
  enum Tag { kShort, kLong };
  std::string name() const override { return "test-long-timer"; }
  void on_job_start(int job, SchedulerApi& api) override {
    api.arm_timer(job, 0, kShort, 1.0);
    api.arm_timer(job, 0, kLong, 1000.0);
  }
  void on_timer(int job, int, int tag, SchedulerApi& api) override {
    fired.emplace_back(api.spec(job).job_id, tag);
  }
  std::vector<std::pair<int, int>> fired;  ///< (job_id, tag)
};

TEST(SchedulerSlots, TimerOfAReleasedJobNeverReachesTheSlotsNextOccupant) {
  // Job 0 (~5 s) arms a timer for t = 1000 and completes; its slot is
  // released and reused at t = 500 by job 1, which is still running
  // (~800 s of work) when job 0's timer fires. The timer must be popped and
  // dropped: on_timer never sees it, for either job.
  sim::Simulator simulator;
  sim::Cluster cluster(sim::ClusterConfig::uniform(4, sim::NodeConfig{}));
  LongTimer policy;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(1));
  policy.scheduler = &scheduler;
  EXPECT_EQ(scheduler.submit(one_stage_job(0, 4, 5.0)), 0);
  int second = -1;
  testing::ClosureHandler at_500;
  at_500.at(simulator, 500.0, [&] {
    second = scheduler.submit(one_stage_job(1, 4, 800.0));
  });
  simulator.run();
  EXPECT_EQ(second, 0);  // the released slot was reused
  EXPECT_EQ(scheduler.num_slots(), 1);
  const auto& job = scheduler.job(0);
  EXPECT_EQ(job.spec.job_id, 1);
  EXPECT_TRUE(job.done);
  EXPECT_LT(job.completion_time, 1000.0);  // done before its own long timer
  EXPECT_EQ(job.attempts_launched, 4);
  EXPECT_EQ(job.attempts_killed, 0);
  using Fired = std::vector<std::pair<int, int>>;
  EXPECT_EQ(policy.fired,
            (Fired{{0, LongTimer::kShort}, {1, LongTimer::kShort}}));
  // Both long timers were popped (not cancelled at release): 8 attempt
  // finishes + 4 timers + job 1's submission event.
  EXPECT_EQ(simulator.events_executed(), 13u);
  EXPECT_EQ(scheduler.metrics().jobs(), 2u);
}

/// Job 0 queues one extra attempt at t = 1 and kills it while it waits.
class QueueThenKill final : public Releasing {
 public:
  std::string name() const override { return "test-queue-then-kill"; }
  void on_job_start(int job, SchedulerApi& api) override {
    if (api.spec(job).job_id == 0) {
      api.arm_timer(job, 0, 0, 1.0);
    }
  }
  void on_timer(int job, int, int, SchedulerApi& api) override {
    killed = api.launch_extra_attempt(job, 0);
    api.kill_attempt(job, killed);
  }
  int killed = -1;
};

TEST(SchedulerSlots, QueuedGrantOfAReleasedJobIsReturnedNotHandedOn) {
  // One container. Job 0 runs attempt 0; job 1 queues behind it; at t = 1
  // job 0 queues attempt 1 and kills it, leaving its grant ticket queued
  // behind job 1's. Job 0 completes (~10 s) and its slot is reused at
  // t = 500 by job 2, whose attempts 0 and 1 queue behind the stale ticket.
  // When job 1 frees the container (~1000 s) the stale ticket for "slot 0,
  // attempt 1" is granted first: it must go back to the cluster, so job 2's
  // attempt 0 runs first and attempt 1 only after it — not job 2's
  // attempt 1 out of FIFO order.
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 1;
  sim::Cluster cluster(sim::ClusterConfig::uniform(1, node));
  QueueThenKill policy;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(2));
  policy.scheduler = &scheduler;
  EXPECT_EQ(scheduler.submit(one_stage_job(0, 1, 10.0)), 0);
  EXPECT_EQ(scheduler.submit(one_stage_job(1, 1, 1000.0)), 1);
  int third = -1;
  testing::ClosureHandler at_500;
  at_500.at(simulator, 500.0, [&] {
    EXPECT_EQ(cluster.pending_requests(), 1u);  // the killed attempt's ticket
    third = scheduler.submit(one_stage_job(2, 2, 10.0));
  });
  simulator.run();
  EXPECT_EQ(policy.killed, 1);
  EXPECT_EQ(third, 0);
  const auto& blocker = scheduler.job(1);
  const auto& job = scheduler.job(0);
  ASSERT_EQ(job.spec.job_id, 2);
  ASSERT_EQ(job.attempts.size(), 2u);
  EXPECT_TRUE(job.done);
  EXPECT_EQ(job.attempts_launched, 2);
  EXPECT_EQ(job.attempts_killed, 0);
  // Attempt 0 got the container job 1 freed; attempt 1 the one attempt 0
  // freed.
  EXPECT_EQ(job.attempts[0].launch_time, blocker.submit_time +
                                             blocker.completion_time);
  EXPECT_EQ(job.attempts[1].launch_time, job.attempts[0].end_time);
  EXPECT_EQ(cluster.busy_containers(), 0);
  EXPECT_EQ(cluster.pending_requests(), 0u);
  EXPECT_EQ(scheduler.metrics().jobs(), 3u);
}

TEST(SchedulerSlots, ReleaseRequiresACompletedUnreleasedJob) {
  Rig rig;
  rig.scheduler.submit(small_job());
  EXPECT_THROW(rig.scheduler.release_job(0), PreconditionError);  // running
  rig.simulator.run();
  rig.scheduler.release_job(0);
  EXPECT_THROW(rig.scheduler.release_job(0), PreconditionError);  // twice
  EXPECT_THROW(rig.scheduler.release_job(1), PreconditionError);  // no slot
}

TEST(SchedulerSlots, ReusedSlotStartsFromAFreshRecord) {
  // A reused slot keeps its vectors' capacity but none of its contents:
  // the second job's record equals the one a fresh scheduler builds.
  auto run = [](bool reuse) {
    Rig rig(4, 8, 9);
    if (reuse) {
      rig.scheduler.submit(small_job(16));
      rig.simulator.run();
      rig.scheduler.release_job(0);
    }
    auto spec = small_job(3);
    spec.job_id = 7;
    const int job = rig.scheduler.submit(spec);
    rig.simulator.run();
    return rig.scheduler.job(job);
  };
  const JobRecord fresh = run(false);
  const JobRecord reused = run(true);
  EXPECT_EQ(reused.spec.job_id, 7);
  EXPECT_EQ(reused.spec.stages, fresh.spec.stages);
  EXPECT_EQ(reused.tasks.size(), 3u);
  EXPECT_EQ(reused.attempts.size(), fresh.attempts.size());
  EXPECT_EQ(reused.attempts_launched, fresh.attempts_launched);
  EXPECT_EQ(reused.tasks_completed, 3);
  EXPECT_EQ(reused.stage_tasks_completed, fresh.stage_tasks_completed);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(reused.tasks[t].attempt_ids, fresh.tasks[t].attempt_ids);
    EXPECT_EQ(reused.tasks[t].extra_attempts_launched, 0);
  }
}

TEST(Scheduler, RejectsInvalidSpec) {
  Rig rig;
  auto spec = small_job();
  spec.stage(0).num_tasks = 0;
  EXPECT_THROW(rig.scheduler.submit(spec), PreconditionError);
}

TEST(Scheduler, MultipleJobsInterleave) {
  Rig rig(8, 8);
  rig.scheduler.submit(small_job(4));
  auto second = small_job(4);
  second.job_id = 1;
  second.price = 1.0;
  rig.scheduler.submit(second);
  rig.simulator.run();
  EXPECT_EQ(rig.scheduler.metrics().jobs(), 2u);
  // Outcomes are recorded in completion order; both jobs must be present.
  std::vector<int> ids;
  for (const auto& outcome : rig.scheduler.metrics().outcomes()) {
    ids.push_back(outcome.job_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace chronos::mapreduce
