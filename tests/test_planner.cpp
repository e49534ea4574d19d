// Planner: analytic-model mapping and per-job optimization at submission.
#include "trace/planner.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace chronos::trace {
namespace {

TracedJob sample_job() {
  TracedJob job;
  job.submit_time = 1000.0;
  job.spec.job_id = 3;
  job.spec.stage(0).num_tasks = 100;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  job.spec.deadline = 180.0;  // 2 x mean (mean = 90)
  return job;
}

TEST(Planner, ToJobParamsMapsFields) {
  PlannerConfig config;
  const auto params =
      to_job_params(sample_job().spec, config,
                    core::Strategy::kSpeculativeRestart);
  EXPECT_EQ(params.num_tasks, 100);
  EXPECT_EQ(params.deadline, 180.0);
  EXPECT_NEAR(params.tau_est, 0.3 * 30.0, 1e-12);
  EXPECT_NEAR(params.tau_kill, 0.8 * 30.0, 1e-12);
  EXPECT_GT(params.phi_est, 0.0);
  EXPECT_LT(params.phi_est, 1.0);
  EXPECT_NO_THROW(params.validate());
}

TEST(Planner, CloneUsesZeroTauEst) {
  PlannerConfig config;
  const auto params =
      to_job_params(sample_job().spec, config, core::Strategy::kClone);
  EXPECT_EQ(params.tau_est, 0.0);
  EXPECT_NEAR(params.tau_kill, 0.8 * 30.0, 1e-12);
}

TEST(Planner, EconomicsUsesBaselinePocdAsRmin) {
  PlannerConfig config;
  const auto spec = sample_job().spec;
  const auto econ = to_economics(spec, config, 0.4);
  core::JobParams baseline;
  baseline.num_tasks = spec.stage(0).num_tasks;
  baseline.deadline = spec.deadline;
  baseline.t_min = spec.stage(0).t_min;
  baseline.beta = spec.stage(0).beta;
  EXPECT_NEAR(econ.r_min, core::pocd_no_speculation(baseline), 1e-12);
  EXPECT_EQ(econ.price, 0.4);
}

TEST(Planner, EconomicsFixedRmin) {
  PlannerConfig config;
  config.r_min_from_baseline = false;
  config.r_min = 0.42;
  const auto econ = to_economics(sample_job().spec, config, 0.4);
  EXPECT_EQ(econ.r_min, 0.42);
}

TEST(Planner, AnalyticStrategyMapping) {
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kClone));
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kSRestart));
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kSResume));
  EXPECT_FALSE(has_analytic_strategy(strategies::PolicyKind::kHadoopNS));
  EXPECT_FALSE(has_analytic_strategy(strategies::PolicyKind::kMantri));
  EXPECT_EQ(analytic_strategy(strategies::PolicyKind::kClone),
            core::Strategy::kClone);
  EXPECT_THROW(analytic_strategy(strategies::PolicyKind::kHadoopS),
               PreconditionError);
}

TEST(Planner, PlanJobFillsChronosFields) {
  auto job = sample_job();
  PlannerConfig config;
  const SpotPriceModel prices;
  const Plan result =
      plan_job(job, strategies::PolicyKind::kSResume, config, prices);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.kind, strategies::PolicyKind::kSResume);
  EXPECT_GT(job.spec.price, 0.0);
  EXPECT_EQ(job.spec.price, prices.price_at(1000.0));
  ASSERT_EQ(result.r.size(), 1u);
  EXPECT_EQ(job.spec.stage(0).r, result.r[0]);
  EXPECT_GT(job.spec.stage(0).r, 0);  // deadline-sensitive job wants speculation
  EXPECT_NEAR(job.spec.stage(0).tau_est, 9.0, 1e-12);
  EXPECT_NEAR(job.spec.stage(0).tau_kill, 24.0, 1e-12);
}

TEST(Planner, BaselinePoliciesGetPriceOnly) {
  auto job = sample_job();
  PlannerConfig config;
  const SpotPriceModel prices;
  const Plan result =
      plan_job(job, strategies::PolicyKind::kMantri, config, prices);
  EXPECT_EQ(job.spec.stage(0).r, 0);
  EXPECT_GT(job.spec.price, 0.0);
  EXPECT_EQ(result.r, std::vector<long long>{0});
  EXPECT_FALSE(result.feasible);
  EXPECT_NEAR(job.spec.stage(0).tau_est, 9.0, 1e-12);  // factor * t_min
}

TEST(Planner, PlanIsPureAndApplyWritesIt) {
  // plan() only reads the spec; apply() writes price, timers and r.
  const auto spec = sample_job().spec;
  PlannerConfig config;
  auto planned = spec;
  const Plan decision =
      plan(planned, config, 0.4, strategies::PolicyKind::kClone);
  EXPECT_EQ(planned.price, spec.price);
  EXPECT_EQ(planned.stage(0).r, spec.stage(0).r);
  EXPECT_EQ(planned.stage(0).tau_kill, spec.stage(0).tau_kill);
  apply(decision, config, 0.4, planned);
  EXPECT_EQ(planned.price, 0.4);
  EXPECT_EQ(planned.stage(0).r, decision.r[0]);
  EXPECT_EQ(planned.stage(0).tau_est, 0.0);  // Clone launches at once
  EXPECT_NEAR(planned.stage(0).tau_kill, 24.0, 1e-12);
}

TEST(Planner, HigherThetaNeverIncreasesR) {
  const SpotPriceModel prices;
  for (const auto policy :
       {strategies::PolicyKind::kClone, strategies::PolicyKind::kSResume}) {
    long long prev_r = 1 << 20;
    for (const double theta : {1e-6, 1e-5, 1e-4, 1e-3}) {
      auto job = sample_job();
      PlannerConfig config;
      config.theta = theta;
      plan_job(job, policy, config, prices);
      EXPECT_LE(job.spec.stage(0).r, prev_r) << "theta=" << theta;
      prev_r = job.spec.stage(0).r;
    }
  }
}

TEST(Planner, PlanTracePlansEveryJob) {
  TraceConfig trace_config;
  trace_config.num_jobs = 30;
  trace_config.mean_tasks = 50.0;
  auto jobs = generate_trace(trace_config);
  PlannerConfig config;
  const SpotPriceModel prices;
  plan_trace(jobs, strategies::PolicyKind::kSRestart, config, prices);
  for (const auto& job : jobs) {
    EXPECT_GT(job.spec.price, 0.0);
    EXPECT_GT(job.spec.stage(0).tau_kill, job.spec.stage(0).tau_est);
    EXPECT_NO_THROW(job.spec.validate());
  }
}

}  // namespace
}  // namespace chronos::trace
