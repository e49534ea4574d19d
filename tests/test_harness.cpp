// Experiment harness: configuration factories and run_experiment edge
// cases not covered by the integration suite.
#include "trace/harness.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "trace/planner.h"

namespace chronos::trace {
namespace {

using strategies::PolicyKind;

TEST(Harness, LargeScaleConfigHasNoContention) {
  const auto config = ExperimentConfig::large_scale(PolicyKind::kSResume);
  EXPECT_EQ(config.policy, PolicyKind::kSResume);
  int total = 0;
  for (const auto& node : config.cluster.nodes) {
    total += node.containers;
  }
  EXPECT_GE(total, 1000);  // generous capacity: trace jobs never queue
  EXPECT_EQ(config.scheduler.estimator, mapreduce::EstimatorKind::kChronos);
}

TEST(Harness, TestbedConfigMatchesSection7A) {
  const auto config = ExperimentConfig::testbed(PolicyKind::kClone, 5);
  EXPECT_EQ(config.cluster.nodes.size(), 40u);
  for (const auto& node : config.cluster.nodes) {
    EXPECT_EQ(node.containers, 8);
  }
  EXPECT_EQ(config.seed, 5u);
}

TEST(Harness, RejectsEmptyTrace) {
  const auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  EXPECT_THROW(run_experiment({}, config), PreconditionError);
}

TEST(Harness, SingleJobTrace) {
  TracedJob job;
  job.submit_time = 10.0;
  job.spec.job_id = 99;
  job.spec.stage(0).num_tasks = 5;
  job.spec.deadline = 200.0;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  const auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  const auto result = run_experiment({job}, config);
  EXPECT_EQ(result.metrics.jobs(), 1u);
  EXPECT_EQ(result.metrics.outcomes().front().job_id, 99);
  EXPECT_EQ(result.policy_name, "Hadoop-NS");
}

TEST(Harness, SubmitsInTimeThenIndexOrder) {
  // One container runs one single-task job at a time and grants waiting
  // requests FIFO, so completion order is submission order. Submission
  // times are out of order and tied: jobs fire by (submit_time, index).
  const std::vector<double> submit_times = {5.0, 0.0, 5.0, 0.0, 2.0};
  std::vector<TracedJob> jobs;
  for (std::size_t i = 0; i < submit_times.size(); ++i) {
    TracedJob job;
    job.submit_time = submit_times[i];
    job.spec.job_id = static_cast<int>(i);
    job.spec.stage(0).num_tasks = 1;
    job.spec.deadline = 1000.0;
    job.spec.stage(0).t_min = 30.0;
    job.spec.stage(0).beta = 1.5;
    jobs.push_back(job);
  }
  auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  sim::NodeConfig node;
  node.containers = 1;
  config.cluster = sim::ClusterConfig::uniform(1, node);
  const auto result = run_experiment(jobs, config);
  std::vector<int> completed;
  for (const auto& outcome : result.metrics.outcomes()) {
    completed.push_back(outcome.job_id);
  }
  EXPECT_EQ(completed, (std::vector<int>{1, 3, 4, 0, 2}));
}

TEST(Harness, ResultAccessorsMatchMetrics) {
  TraceConfig trace_config;
  trace_config.num_jobs = 20;
  trace_config.mean_tasks = 10.0;
  trace_config.max_tasks = 50;
  auto jobs = generate_trace(trace_config);
  PlannerConfig planner;
  const SpotPriceModel prices;
  plan_trace(jobs, PolicyKind::kClone, planner, prices);
  const auto result = run_experiment(
      jobs, ExperimentConfig::large_scale(PolicyKind::kClone, 3));
  EXPECT_EQ(result.pocd(), result.metrics.pocd());
  EXPECT_EQ(result.mean_cost(), result.metrics.mean_cost());
  EXPECT_EQ(result.utility(1e-4, 0.1),
            result.metrics.utility(1e-4, 0.1));
  EXPECT_GT(result.events_executed, 0u);
}

TEST(Harness, DifferentSeedsProduceDifferentRuns) {
  TracedJob job;
  job.submit_time = 0.0;
  job.spec.stage(0).num_tasks = 20;
  job.spec.deadline = 200.0;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  const auto a = run_experiment(
      {job}, ExperimentConfig::large_scale(PolicyKind::kHadoopNS, 1));
  const auto b = run_experiment(
      {job}, ExperimentConfig::large_scale(PolicyKind::kHadoopNS, 2));
  EXPECT_NE(a.metrics.outcomes().front().machine_time,
            b.metrics.outcomes().front().machine_time);
}

}  // namespace
}  // namespace chronos::trace
