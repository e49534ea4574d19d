// Per-job planning — what the Application Master does at job submission in
// §VI: map a JobSpec onto the analytic model, run one Algorithm-1 pass per
// stage (§III optimizes stage PoCDs separately) and fill the strategy
// fields.
//
// Planning is split into a pure decision and its write-back:
//
//   plan()   JobSpec + config + spot price + policy-or-auto -> Plan, the
//            decision {kind, feasible, r per stage}. Touches nothing.
//   apply()  Plan + config + spot price -> the spec's price and, per stage,
//            tau_est / tau_kill / r. The only code that writes them.
//
// Every caller — plan_job / plan_trace here, serve::PlannerService with its
// plan cache — is apply(plan(...)). Because apply() derives price and the
// timers from its own inputs, a Plan can be cached and replayed for another
// job without leaking that job's price clock.
#pragma once

#include <optional>
#include <vector>

#include "core/chronos.h"
#include "strategies/policies.h"
#include "trace/google_trace.h"
#include "trace/spot_price.h"

namespace chronos::trace {

/// Planning knobs shared by an experiment run.
struct PlannerConfig {
  /// Strategy timers as multiples of the job's t_min (Tables I/II sweep
  /// these). Clone uses tau_est = 0 regardless.
  double tau_est_factor = 0.3;
  double tau_kill_factor = 0.8;
  double theta = 1e-4;
  /// R_min policy: PoCD of the no-speculation baseline (the paper uses
  /// Hadoop-NS's PoCD as R_min in §VII-A).
  bool r_min_from_baseline = true;
  double r_min = 0.0;  ///< used when r_min_from_baseline is false
  core::OptimizerOptions optimizer;
};

/// Analytic-model view of one stage under its deadline share.
core::JobParams stage_job_params(const mapreduce::StageSpec& stage,
                                 double deadline, const PlannerConfig& config,
                                 core::Strategy strategy);

/// Economics for one stage: spot price at submission plus the run's theta
/// and R_min policy (baseline PoCD evaluated against the stage's own shape
/// and deadline share).
core::Economics stage_economics(const mapreduce::StageSpec& stage,
                                double deadline, const PlannerConfig& config,
                                double price);

/// Analytic-model view of a single-stage job (stage 0 under the full job
/// deadline).
core::JobParams to_job_params(const mapreduce::JobSpec& spec,
                              const PlannerConfig& config,
                              core::Strategy strategy);

/// Economics for a single-stage job.
core::Economics to_economics(const mapreduce::JobSpec& spec,
                             const PlannerConfig& config, double price);

/// Maps a simulator policy to its analytic strategy; only the three Chronos
/// policies have one.
bool has_analytic_strategy(strategies::PolicyKind kind);
core::Strategy analytic_strategy(strategies::PolicyKind kind);

/// Inverse of analytic_strategy: the simulator policy that executes an
/// analytic strategy (total on core::Strategy).
strategies::PolicyKind policy_of(core::Strategy strategy);

/// Expected makespan of N i.i.d. Pareto(t_min, beta) tasks:
/// E[max] = t_min * Gamma(N+1) Gamma(1 - 1/beta) / Gamma(N+1 - 1/beta).
/// Requires N >= 1, beta > 1.
double expected_stage_makespan(int num_tasks, double t_min, double beta);

/// Critical-path proportional deadline split. Each stage's expected
/// makespan is chained through the dependency DAG; the stage deadline is
/// deadline * span_s / L where L is the longest (critical) path's total
/// expected makespan. Stages on the critical path get shares that sum to
/// the whole deadline; off-path stages get proportionally generous slack.
/// For a two-stage barrier chain this reduces to the classic proportional
/// map/reduce split. Requires every stage beta > 1.
std::vector<double> critical_path_split(const mapreduce::JobSpec& spec);

/// The deadline each stage is planned against. A single-stage job gets
/// spec.deadline, unsplit and unclamped. A staged job gets its
/// critical_path_split share, raised to the feasibility floor
/// t_min * (1 + tau_est_factor) (plus a hair) when a tight DAG pushes it
/// below anything valid JobParams can express — the optimizer then reports
/// the stage infeasible instead of rejecting its parameters.
std::vector<double> stage_deadlines(const mapreduce::JobSpec& spec,
                                    const PlannerConfig& config);

/// The planning decision for one job: the policy that runs it and each
/// stage's extra-attempt count, with the infeasible fallback (r = 1)
/// already folded in. Baseline policies get r = 0 everywhere.
struct Plan {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  bool feasible = false;     ///< analytic policy and every stage feasible
  std::vector<long long> r;  ///< one entry per stage

  friend bool operator==(const Plan&, const Plan&) = default;
};

/// Plans `spec` under `policy`, or under the best of Clone / S-Restart /
/// S-Resume when `policy` is std::nullopt (auto). Auto picks the strategy
/// with core::optimize_all on stage 0 — under the full deadline for a
/// single-stage job (whose plan is then that search's result), under the
/// root's unclamped critical-path share with S-Resume-style params for a
/// staged one — and plans every stage under it. Pure: the spec is only
/// read.
Plan plan(const mapreduce::JobSpec& spec, const PlannerConfig& config,
          double price, std::optional<strategies::PolicyKind> policy);

/// Writes `plan` into `spec`: spec.price = price and, per stage, r from the
/// plan plus the timers tau_kill = tau_kill_factor * t_min and tau_est =
/// tau_est_factor * t_min (0 under Clone). Requires one plan entry per
/// stage.
void apply(const Plan& plan, const PlannerConfig& config, double price,
           mapreduce::JobSpec& spec);

/// Plans a traced job at its submission time: apply(plan(...)) with the
/// spot price sampled at job.submit_time (the §VI Application Master clock
/// — never trace-generation or retry time).
Plan plan_job(TracedJob& job, strategies::PolicyKind policy,
              const PlannerConfig& config, const SpotPriceModel& prices);

/// Plans a whole trace in place.
void plan_trace(std::vector<TracedJob>& jobs, strategies::PolicyKind policy,
                const PlannerConfig& config, const SpotPriceModel& prices);

}  // namespace chronos::trace
