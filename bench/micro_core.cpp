// Microbenchmarks of the analytic core: closed-form evaluation (including
// the closed-form vs. reference-quadrature S-Restart winner time),
// Algorithm 1, and the Monte-Carlo validator. These quantify the per-job
// planning overhead an Application Master would pay at submission (§VI).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/chronos.h"

namespace {

using namespace chronos::core;  // NOLINT

JobParams bench_job() {
  JobParams params;
  params.num_tasks = 100;
  params.deadline = 180.0;
  params.t_min = 30.0;
  params.beta = 1.5;
  params.tau_est = 9.0;
  params.tau_kill = 24.0;
  params.phi_est = default_phi_est(params);
  return params;
}

Economics bench_econ() {
  Economics econ;
  econ.price = 0.4;
  econ.theta = 1e-4;
  econ.r_min = 0.3;
  return econ;
}

void BM_PocdClone(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pocd_clone(params, 2.0));
  }
}
BENCHMARK(BM_PocdClone);

void BM_PocdSResume(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pocd_s_resume(params, 2.0));
  }
}
BENCHMARK(BM_PocdSResume);

void BM_CostClone(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine_time_clone(params, 2.0));
  }
}
BENCHMARK(BM_CostClone);

// The adaptive-quadrature winner time kept as the validation reference; it
// used to be the body of machine_time_s_restart (and what this benchmark
// measured before the closed form landed), so the before/after join for
// this name tracks the reference's own cost, ~unchanged.
void BM_CostSRestartQuadrature(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s_restart_winner_time_reference(params, 2.0));
  }
}
BENCHMARK(BM_CostSRestartQuadrature);

// The production path: closed-form winner time (log1p/expm1 + geometric
// 2F1 series), no quadrature.
void BM_CostSRestartClosedForm(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine_time_s_restart(params, 2.0));
  }
}
BENCHMARK(BM_CostSRestartClosedForm);

void BM_CostSResume(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine_time_s_resume(params, 2.0));
  }
}
BENCHMARK(BM_CostSResume);

/// Unique U(r) evaluations per optimize() call. The search is deterministic,
/// so one untimed call gives the count for every iteration.
std::int64_t evals_per_call(Strategy strategy) {
  return optimize(strategy, bench_job(), bench_econ()).evaluations;
}

void BM_OptimizeClone(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize(Strategy::kClone, params, econ));
  }
  state.counters["evals_per_call"] =
      static_cast<double>(evals_per_call(Strategy::kClone));
}
BENCHMARK(BM_OptimizeClone);

void BM_OptimizeSRestart(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize(Strategy::kSpeculativeRestart, params, econ));
  }
  state.counters["evals_per_call"] =
      static_cast<double>(evals_per_call(Strategy::kSpeculativeRestart));
}
BENCHMARK(BM_OptimizeSRestart);

void BM_OptimizeSResume(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize(Strategy::kSpeculativeResume, params, econ));
  }
  state.counters["evals_per_call"] =
      static_cast<double>(evals_per_call(Strategy::kSpeculativeResume));
}
BENCHMARK(BM_OptimizeSResume);

void BM_OptimizeAll(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_all(params, econ));
  }
  // optimize_all runs one optimize() per strategy on bit-identical contexts.
  state.counters["evals_per_call"] = static_cast<double>(
      evals_per_call(Strategy::kClone) +
      evals_per_call(Strategy::kSpeculativeRestart) +
      evals_per_call(Strategy::kSpeculativeResume));
}
BENCHMARK(BM_OptimizeAll);

void BM_BruteForceOptimize(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  OptimizerOptions options;
  options.max_r = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brute_force_optimize(Strategy::kClone, params, econ, options));
  }
}
BENCHMARK(BM_BruteForceOptimize)->Arg(64)->Arg(512)->Arg(4096);

// Monte-Carlo kernels, parameterized by (jobs, r). The r = 16 points track
// the win from the order-statistic fast path (min of r+1 Pareto draws is one
// Pareto((r+1) beta) draw), which collapses the O(r) winner loops.
void BM_MonteCarloClone(benchmark::State& state) {
  const auto params = bench_job();
  chronos::Rng rng(1);
  const auto jobs = static_cast<std::uint64_t>(state.range(0));
  const auto r = static_cast<long long>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monte_carlo(Strategy::kClone, params, r, jobs, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloClone)->Args({1000, 2})->Args({1000, 16});

void BM_MonteCarloSRestart(benchmark::State& state) {
  const auto params = bench_job();
  chronos::Rng rng(2);
  const auto jobs = static_cast<std::uint64_t>(state.range(0));
  const auto r = static_cast<long long>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monte_carlo(Strategy::kSpeculativeRestart, params, r, jobs, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloSRestart)->Args({1000, 2})->Args({1000, 16});

void BM_MonteCarloSResume(benchmark::State& state) {
  const auto params = bench_job();
  chronos::Rng rng(3);
  const auto jobs = static_cast<std::uint64_t>(state.range(0));
  const auto r = static_cast<long long>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monte_carlo(Strategy::kSpeculativeResume, params, r, jobs, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloSResume)->Args({1000, 2})->Args({1000, 16});

}  // namespace

BENCHMARK_MAIN();
