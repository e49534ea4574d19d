#include "trace/planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"

namespace chronos::trace {

core::JobParams stage_job_params(const mapreduce::StageSpec& stage,
                                 double deadline, const PlannerConfig& config,
                                 core::Strategy strategy) {
  core::JobParams params;
  params.num_tasks = stage.num_tasks;
  params.deadline = deadline;
  params.t_min = stage.t_min;
  params.beta = stage.beta;
  params.tau_est = strategy == core::Strategy::kClone
                       ? 0.0
                       : config.tau_est_factor * stage.t_min;
  params.tau_kill = config.tau_kill_factor * stage.t_min;
  params.phi_est = core::default_phi_est(params);
  return params;
}

core::Economics stage_economics(const mapreduce::StageSpec& stage,
                                double deadline, const PlannerConfig& config,
                                double price) {
  core::Economics econ;
  econ.price = price;
  econ.theta = config.theta;
  if (config.r_min_from_baseline) {
    core::JobParams baseline;
    baseline.num_tasks = stage.num_tasks;
    baseline.deadline = deadline;
    baseline.t_min = stage.t_min;
    baseline.beta = stage.beta;
    baseline.tau_est = 0.0;
    baseline.tau_kill = 0.0;
    baseline.phi_est = 0.0;
    econ.r_min = core::pocd_no_speculation(baseline);
  } else {
    econ.r_min = config.r_min;
  }
  return econ;
}

core::JobParams to_job_params(const mapreduce::JobSpec& spec,
                              const PlannerConfig& config,
                              core::Strategy strategy) {
  return stage_job_params(spec.stage(0), spec.deadline, config, strategy);
}

core::Economics to_economics(const mapreduce::JobSpec& spec,
                             const PlannerConfig& config, double price) {
  return stage_economics(spec.stage(0), spec.deadline, config, price);
}

bool has_analytic_strategy(strategies::PolicyKind kind) {
  switch (kind) {
    case strategies::PolicyKind::kClone:
    case strategies::PolicyKind::kSRestart:
    case strategies::PolicyKind::kSResume:
      return true;
    default:
      return false;
  }
}

core::Strategy analytic_strategy(strategies::PolicyKind kind) {
  switch (kind) {
    case strategies::PolicyKind::kClone:
      return core::Strategy::kClone;
    case strategies::PolicyKind::kSRestart:
      return core::Strategy::kSpeculativeRestart;
    case strategies::PolicyKind::kSResume:
      return core::Strategy::kSpeculativeResume;
    default:
      break;
  }
  CHRONOS_EXPECTS(false, "policy has no analytic strategy");
}

strategies::PolicyKind policy_of(core::Strategy strategy) {
  switch (strategy) {
    case core::Strategy::kClone:
      return strategies::PolicyKind::kClone;
    case core::Strategy::kSpeculativeRestart:
      return strategies::PolicyKind::kSRestart;
    case core::Strategy::kSpeculativeResume:
      return strategies::PolicyKind::kSResume;
  }
  CHRONOS_EXPECTS(false, "unknown analytic strategy");
}

double expected_stage_makespan(int num_tasks, double t_min, double beta) {
  CHRONOS_EXPECTS(num_tasks >= 1, "num_tasks must be >= 1");
  CHRONOS_EXPECTS(t_min > 0.0 && beta > 1.0,
                  "makespan requires t_min > 0 and beta > 1");
  // E[max of N] for Pareto via the Beta-function identity
  // E[max] = t_min N B(N, 1 - 1/beta).
  const double n = static_cast<double>(num_tasks);
  const double a = 1.0 - 1.0 / beta;
  return t_min * std::exp(std::lgamma(n + 1.0) + std::lgamma(a) -
                          std::lgamma(n + a));
}

std::vector<double> critical_path_split(const mapreduce::JobSpec& spec) {
  const int stages = spec.num_stages();
  std::vector<double> span(static_cast<std::size_t>(stages));
  std::vector<double> finish(static_cast<std::size_t>(stages));
  double longest = 0.0;
  for (int s = 0; s < stages; ++s) {
    const auto& st = spec.stage(s);
    span[static_cast<std::size_t>(s)] =
        expected_stage_makespan(st.num_tasks, st.t_min, st.beta);
    // Stage indices are a topological order (deps reference earlier
    // stages), so one forward pass chains expected finish times.
    double start = 0.0;
    for (const int dep : spec.resolved_deps(s)) {
      start = std::max(start, finish[static_cast<std::size_t>(dep)]);
    }
    finish[static_cast<std::size_t>(s)] =
        start + span[static_cast<std::size_t>(s)];
    longest = std::max(longest, finish[static_cast<std::size_t>(s)]);
  }
  std::vector<double> deadlines(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    deadlines[static_cast<std::size_t>(s)] =
        spec.deadline * (span[static_cast<std::size_t>(s)] / longest);
  }
  return deadlines;
}

std::vector<double> stage_deadlines(const mapreduce::JobSpec& spec,
                                    const PlannerConfig& config) {
  if (spec.num_stages() == 1) {
    return {spec.deadline};
  }
  std::vector<double> deadlines = critical_path_split(spec);
  for (int s = 0; s < spec.num_stages(); ++s) {
    const double floor = spec.stage(s).t_min *
                         (1.0 + config.tau_est_factor) * (1.0 + 1e-9);
    auto& deadline = deadlines[static_cast<std::size_t>(s)];
    deadline = std::max(deadline, floor);
  }
  return deadlines;
}

Plan plan(const mapreduce::JobSpec& spec, const PlannerConfig& config,
          double price, std::optional<strategies::PolicyKind> policy) {
  const auto stages = static_cast<std::size_t>(spec.num_stages());
  Plan decision;
  decision.r.assign(stages, 0);
  if (policy.has_value()) {
    decision.kind = *policy;
    if (!has_analytic_strategy(*policy)) {
      return decision;  // baseline: r = 0, infeasible by definition
    }
  }
  decision.feasible = true;
  const auto record = [&decision](std::size_t s,
                                  const core::OptimizationResult& result) {
    decision.feasible = decision.feasible && result.feasible;
    decision.r[s] = result.feasible ? result.r_opt : 1;  // one copy fallback
  };
  if (!policy.has_value()) {
    // One policy runs the whole job: pick it on the root stage with
    // S-Resume-style params, under the root's unclamped share.
    const double root = stages == 1 ? spec.deadline
                                    : critical_path_split(spec).front();
    const auto best = core::optimize_all(
        stage_job_params(spec.stage(0), root, config,
                         core::Strategy::kSpeculativeResume),
        stage_economics(spec.stage(0), root, config, price),
        config.optimizer);
    decision.kind = policy_of(best.strategy);
    if (stages == 1) {
      record(0, best.result);
      return decision;
    }
  }
  const core::Strategy strategy = analytic_strategy(decision.kind);
  const std::vector<double> deadlines = stage_deadlines(spec, config);
  for (std::size_t s = 0; s < stages; ++s) {
    const auto& stage = spec.stages[s];
    record(s, core::optimize(
                  strategy,
                  stage_job_params(stage, deadlines[s], config, strategy),
                  stage_economics(stage, deadlines[s], config, price),
                  config.optimizer));
  }
  return decision;
}

void apply(const Plan& plan, const PlannerConfig& config, double price,
           mapreduce::JobSpec& spec) {
  CHRONOS_EXPECTS(plan.r.size() == spec.stages.size(),
                  "a plan carries one r per stage");
  spec.price = price;
  for (std::size_t s = 0; s < plan.r.size(); ++s) {
    auto& stage = spec.stages[s];
    stage.tau_est = plan.kind == strategies::PolicyKind::kClone
                        ? 0.0
                        : config.tau_est_factor * stage.t_min;
    stage.tau_kill = config.tau_kill_factor * stage.t_min;
    stage.r = plan.r[s];
  }
}

Plan plan_job(TracedJob& job, strategies::PolicyKind policy,
              const PlannerConfig& config, const SpotPriceModel& prices) {
  const double price = prices.price_at(job.submit_time);
  Plan decision = plan(job.spec, config, price, policy);
  apply(decision, config, price, job.spec);
  return decision;
}

void plan_trace(std::vector<TracedJob>& jobs, strategies::PolicyKind policy,
                const PlannerConfig& config, const SpotPriceModel& prices) {
  for (auto& job : jobs) {
    plan_job(job, policy, config, prices);
  }
}

}  // namespace chronos::trace
