// Open-system simulation layer (sim/open_system.h, trace/arrivals.h).
//
// The interesting properties here are statistical laws rather than exact
// values: an under-loaded Poisson-fed cluster must satisfy utilization =
// lambda * E[S] / c and Little's law L = lambda * W, the deadline-miss rate
// must be monotone in the offered rate, and the conservation counters must
// balance exactly. On top of the laws: arrival-process unit tests,
// determinism (same seed => identical results; sweeprun outputs identical
// across thread counts and across a kill/resume of the journal, pinned to
// committed goldens), and the PR's validation-hardening regressions.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "serve/plan_cache.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/open_system.h"
#include "trace/arrivals.h"
#include "trace/spot_price.h"
#include "trace/workload.h"

namespace chronos {
namespace {

using sim::OpenSystemConfig;
using sim::OpenSystemResult;
using trace::ArrivalKind;
using trace::ArrivalSpec;

// --- shared configuration ---------------------------------------------------

// Deterministic job shape: every job has exactly `tasks` tasks with
// Pareto(t_min = 4, beta = 2.5) durations (finite variance, mean
// t_min * beta / (beta - 1) = 20/3 s) and no JVM startup, so the expected
// service demand per job is exact and the queueing laws can be checked
// against closed forms.
constexpr double kTaskMean = 4.0 * 2.5 / 1.5;

OpenSystemConfig base_config(double rate, int nodes, int containers) {
  OpenSystemConfig config;
  config.arrivals.kind = ArrivalKind::kPoisson;
  config.arrivals.rate = rate;
  config.workload.mean_tasks = 8.0;
  config.workload.min_tasks = 8;
  config.workload.max_tasks = 8;
  config.workload.t_min_lo = 4.0;
  config.workload.t_min_hi = 4.0;
  config.workload.beta_lo = 2.5;
  config.workload.beta_hi = 2.5;
  config.workload.jvm_mean = 0.0;
  config.workload.jvm_jitter = 0.0;
  config.policy = strategies::PolicyKind::kHadoopNS;
  config.planner.r_min_from_baseline = false;
  config.admission.enabled = false;
  config.cluster = sim::ClusterConfig::uniform(
      nodes, sim::NodeConfig{.speed = 1.0, .containers = containers});
  config.duration = 4000.0;
  config.warm_up = 400.0;
  config.seed = 7;
  return config;
}

// --- statistical invariants -------------------------------------------------

TEST(OpenSystemLaws, UtilizationMatchesOfferedLoad) {
  // lambda = 0.5 jobs/s, E[S] = 8 tasks * 20/3 s = 53.33 container-seconds
  // per job, c = 256 containers => rho = lambda * E[S] / c ~ 0.104. Far from
  // saturation, so no offered work is lost and the time-weighted busy
  // fraction must match the offered load.
  const auto result = sim::run_open_system(base_config(0.5, 32, 8));
  const double expected = 0.5 * 8.0 * kTaskMean / 256.0;
  EXPECT_GT(result.metrics.jobs(), 1000u);
  EXPECT_NEAR(result.utilization, expected, 0.08 * expected);
}

TEST(OpenSystemLaws, HeterogeneousFleetUtilizationLaw) {
  // Speed-class law: on a fleet of half full-speed and half half-speed
  // nodes, the grant path balances per-node busy counts (pick_node takes
  // the most-free node), so in the under-loaded regime every node carries
  // the same busy count B and work conservation fixes it:
  //   sum_n s_n * B = lambda * E[S]  =>  u = lambda * E[S] / sum_c C_c s_c.
  // Here E[S] = 8 tasks * 20/3 s of speed-1 work per job and the
  // speed-weighted capacity is 8 * (16 * 1.0 + 16 * 0.5) = 192.
  auto config = base_config(0.5, 32, 8);
  for (int n = 16; n < 32; ++n) {
    config.cluster.nodes[static_cast<std::size_t>(n)].speed = 0.5;
  }
  const auto result = sim::run_open_system(config);
  const double expected = 0.5 * 8.0 * kTaskMean / 192.0;
  EXPECT_GT(result.metrics.jobs(), 1000u);
  EXPECT_NEAR(result.utilization, expected, 0.10 * expected);
  // Sanity: the mixed fleet is busier than the all-fast fleet under the
  // same offered load (it has less speed-weighted capacity).
  EXPECT_GT(result.utilization, 0.5 * 8.0 * kTaskMean / 256.0);
}

TEST(OpenSystemLaws, LittlesLaw) {
  // L = lambda_admitted * W over the same measurement window. Moderate load
  // keeps sojourns short relative to the window so edge effects stay small.
  const auto result = sim::run_open_system(base_config(0.5, 32, 8));
  const double l = result.mean_jobs_in_system;
  const double lambda_w = result.admitted_rate * result.mean_sojourn;
  EXPECT_GT(l, 0.0);
  EXPECT_NEAR(l, lambda_w, 0.15 * lambda_w);
}

TEST(OpenSystemLaws, MissRateMonotoneInArrivalRate) {
  // Same seed, same 16-container cluster, increasing offered rate: queueing
  // delay grows with rho, so the deadline-miss rate must not decrease
  // (small slack for sampling noise between independent runs).
  double previous = -1.0;
  for (const double rate : {0.02, 0.1, 0.4}) {
    auto config = base_config(rate, 4, 4);
    const auto result = sim::run_open_system(config);
    EXPECT_GT(result.metrics.jobs(), 10u) << "rate " << rate;
    EXPECT_GE(result.miss_rate, previous - 0.02) << "rate " << rate;
    previous = result.miss_rate;
  }
}

TEST(OpenSystemLaws, ConservationWithDrain) {
  auto config = base_config(0.4, 4, 4);
  config.admission.enabled = true;
  const auto result = sim::run_open_system(config);
  EXPECT_EQ(result.arrivals, result.admitted + result.rejected);
  EXPECT_EQ(result.admitted, result.completed + result.in_flight_at_end);
  // drain = true runs the event loop dry: nothing may remain in flight.
  EXPECT_EQ(result.in_flight_at_end, 0u);
  EXPECT_GE(result.end_time, config.duration);
}

TEST(OpenSystemLaws, ConservationWithHardStop) {
  // Overloaded and hard-stopped: jobs must be cut off mid-flight and still
  // balance exactly.
  auto config = base_config(1.0, 2, 4);
  config.drain = false;
  const auto result = sim::run_open_system(config);
  EXPECT_EQ(result.arrivals, result.admitted + result.rejected);
  EXPECT_EQ(result.admitted, result.completed + result.in_flight_at_end);
  EXPECT_GT(result.in_flight_at_end, 0u);
  EXPECT_DOUBLE_EQ(result.end_time, config.duration);
}

// --- admission control ------------------------------------------------------

TEST(OpenSystemAdmission, OverloadTriggersRejectAndDegrade) {
  // 8 containers fed at ~10x capacity under a speculative policy: the
  // backlog cap must reject and the headroom rule must degrade.
  auto config = base_config(0.8, 2, 4);
  config.policy = strategies::PolicyKind::kSResume;
  config.admission.enabled = true;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.rejected, 0u);
  EXPECT_GT(result.degraded, 0u);
  // Degraded jobs run under forced Hadoop-NS; the mix must account for them.
  EXPECT_EQ(result.mix[strategies::PolicyKind::kHadoopNS], result.degraded);
  EXPECT_EQ(result.mix[strategies::PolicyKind::kSResume] + result.degraded,
            result.admitted);
}

TEST(OpenSystemAdmission, DisabledAdmitsEverything) {
  auto config = base_config(0.8, 2, 4);
  config.policy = strategies::PolicyKind::kSResume;
  config.admission.enabled = false;
  const auto result = sim::run_open_system(config);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.degraded, 0u);
  EXPECT_EQ(result.admitted, result.arrivals);
}

TEST(OpenSystemAdmission, ControllerDoesNotPerturbArrivalStream) {
  // The admission decision must not consume randomness: the same seed sees
  // the same arrival count whether or not the controller is on.
  auto on = base_config(0.8, 2, 4);
  on.admission.enabled = true;
  auto off = on;
  off.admission.enabled = false;
  EXPECT_EQ(sim::run_open_system(on).arrivals,
            sim::run_open_system(off).arrivals);
}

TEST(OpenSystemAdmission, DegradeCountsEveryStagesSpeculation) {
  // Regression: the headroom rule used to size speculative demand from the
  // root stage alone (r * num_tasks), so a job dominated by a later stage
  // with heavy speculation sailed through undegraded. One map task with
  // r = 0 but 100 reduce tasks at r = 5 demands 500 speculative
  // containers — far beyond any headroom — and must degrade.
  sim::AdmissionConfig admission;
  admission.enabled = true;
  mapreduce::JobSpec spec;
  spec.stage(0).num_tasks = 1;
  spec.stage(0).r = 0;
  spec.add_reduce_stage(/*reduce_tasks=*/100, /*reduce_t_min=*/0.0,
                        /*reduce_beta=*/0.0, /*reduce_r=*/5);
  EXPECT_EQ(sim::admission_decide(admission, spec, /*backlog=*/0.0,
                                  /*idle_containers=*/8.0,
                                  /*total_containers=*/1000.0),
            sim::AdmissionDecision::kDegrade);
  // The same job with the reduce stage's speculation turned off fits.
  spec.stage(1).r = 0;
  EXPECT_EQ(sim::admission_decide(admission, spec, 0.0, 8.0, 1000.0),
            sim::AdmissionDecision::kAdmit);
  // The legacy reduce_r = -1 sentinel inherits the map-stage r at
  // construction: 3 * (1 + 100) = 303 demanded.
  mapreduce::JobSpec inherited;
  inherited.stage(0).num_tasks = 1;
  inherited.stage(0).r = 3;
  inherited.add_reduce_stage(/*reduce_tasks=*/100);
  EXPECT_EQ(sim::admission_decide(admission, inherited, 0.0, 8.0, 1000.0),
            sim::AdmissionDecision::kDegrade);
  EXPECT_EQ(sim::admission_decide(admission, inherited, 0.0, 400.0, 1000.0),
            sim::AdmissionDecision::kAdmit);
  // Map-only jobs behave exactly as before the fix.
  mapreduce::JobSpec map_only;
  map_only.stage(0).num_tasks = 1;
  map_only.stage(0).r = 3;
  EXPECT_EQ(sim::admission_decide(admission, map_only, 0.0, 8.0, 1000.0),
            sim::AdmissionDecision::kAdmit);
}

// --- determinism ------------------------------------------------------------

TEST(OpenSystemDeterminism, SameSeedSameResult) {
  auto config = base_config(0.3, 4, 4);
  config.policy = strategies::PolicyKind::kSResume;
  config.admission.enabled = true;
  const auto a = sim::run_open_system(config);
  const auto b = sim::run_open_system(config);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.metrics.jobs(), b.metrics.jobs());
  EXPECT_EQ(a.metrics.total_r_used(), b.metrics.total_r_used());
  // Bit-identical floating-point aggregates, not just statistically close.
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_jobs_in_system, b.mean_jobs_in_system);
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(OpenSystemDeterminism, DifferentSeedDifferentStream) {
  auto config = base_config(0.3, 4, 4);
  const auto a = sim::run_open_system(config);
  config.seed = 8;
  const auto b = sim::run_open_system(config);
  EXPECT_NE(a.end_time, b.end_time);
}

// --- bounded memory: job-slot reuse -----------------------------------------

// A lightly loaded 64-container cluster with heavy-tailed (beta = 1.5) task
// times, so every policy actually speculates and admission degrades only
// some Chronos arrivals.
OpenSystemConfig slot_reuse_config(strategies::PolicyKind kind) {
  auto config = base_config(0.3, 8, 8);
  config.workload.beta_lo = 1.5;
  config.workload.beta_hi = 1.5;
  config.duration = 1500.0;
  config.warm_up = 150.0;
  config.admission.enabled = true;
  config.policy = kind;
  return config;
}

TEST(OpenSystemSlots, EveryPolicyKeepsItsPinnedFingerprint) {
  // Completed jobs hand their scheduler slot to later arrivals. The values
  // below were computed before slots were reused (every job kept its own
  // record), so they pin reuse as behaviour-neutral for all six policies,
  // including Hadoop-S and Mantri, whose timers re-arm until the job ends.
  using strategies::PolicyKind;
  struct Pin {
    PolicyKind kind;
    double pocd;
    double mean_cost;
    std::uint64_t events;
    std::uint64_t completed;
    std::uint64_t degraded;
  };
  const Pin pins[] = {
      {PolicyKind::kHadoopNS, 0.5552995391705069, 37.73310156126125, 4320,
       480, 0},
      {PolicyKind::kHadoopS, 0.95852534562211977, 30.494649464623127, 9141,
       480, 0},
      {PolicyKind::kMantri, 0.99769585253456217, 27.357539897669859, 10964,
       480, 0},
      {PolicyKind::kClone, 0.78801843317972353, 42.507840462430693, 4577,
       480, 223},
      {PolicyKind::kSRestart, 0.92165898617511521, 27.331618983519181, 5090,
       480, 95},
      {PolicyKind::kSResume, 0.97004608294930872, 26.184318292016346, 5224,
       480, 28},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(strategies::to_string(pin.kind));
    const auto result = sim::run_open_system(slot_reuse_config(pin.kind));
    EXPECT_EQ(result.metrics.pocd(), pin.pocd);
    EXPECT_EQ(result.metrics.mean_cost(), pin.mean_cost);
    EXPECT_EQ(result.events_executed, pin.events);
    EXPECT_EQ(result.completed, pin.completed);
    EXPECT_EQ(result.degraded, pin.degraded);
    // The run did reuse slots: far fewer than one per arrival.
    EXPECT_LE(result.job_slots, result.peak_in_flight);
    EXPECT_LT(10 * result.job_slots, result.arrivals);
  }
}

TEST(OpenSystemSlots, SlotHighWaterTracksPeakInFlightNotHorizon) {
  // The same cell at 1x and 10x the horizon: ten times the arrivals, but
  // the scheduler's slot high-water stays at the run's peak number of jobs
  // in flight, which does not grow with the horizon.
  auto config = base_config(0.5, 32, 8);
  config.duration = 2000.0;
  config.warm_up = 200.0;
  const auto short_run = sim::run_open_system(config);
  config.duration = 20000.0;
  const auto long_run = sim::run_open_system(config);
  EXPECT_GE(long_run.arrivals, 9 * short_run.arrivals);
  for (const OpenSystemResult* run : {&short_run, &long_run}) {
    EXPECT_GT(run->peak_in_flight, 0u);
    EXPECT_LE(run->job_slots, run->peak_in_flight + 2);
  }
  EXPECT_LE(long_run.job_slots, 2 * short_run.job_slots);
}

// --- auto strategy selection ------------------------------------------------

TEST(OpenSystemAuto, PlansOnlyChronosStrategies) {
  auto config = base_config(0.2, 4, 4);
  config.auto_strategy = true;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.admitted, 0u);
  // optimize_all picks among Clone / S-Restart / S-Resume; baselines can
  // only appear through admission degradation.
  using strategies::PolicyKind;
  EXPECT_EQ(result.mix[PolicyKind::kHadoopS], 0u);
  EXPECT_EQ(result.mix[PolicyKind::kMantri], 0u);
  EXPECT_EQ(result.mix[PolicyKind::kHadoopNS], result.degraded);
  const std::uint64_t chronos = result.mix[PolicyKind::kClone] +
                                result.mix[PolicyKind::kSRestart] +
                                result.mix[PolicyKind::kSResume];
  EXPECT_EQ(chronos + result.degraded, result.admitted);
}

// --- plan cache through the engine ------------------------------------------

void expect_same_run(const OpenSystemResult& a, const OpenSystemResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.metrics.jobs(), b.metrics.jobs());
  EXPECT_EQ(a.metrics.total_r_used(), b.metrics.total_r_used());
  for (const auto kind :
       {strategies::PolicyKind::kHadoopNS, strategies::PolicyKind::kClone,
        strategies::PolicyKind::kSRestart, strategies::PolicyKind::kSResume}) {
    EXPECT_EQ(a.mix[kind], b.mix[kind]);
  }
  // Bit-identical floating-point aggregates, not just statistically close.
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_jobs_in_system, b.mean_jobs_in_system);
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.miss_rate, b.miss_rate);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(OpenSystemPlanCache, ExactModeIsBitIdenticalToOff) {
  // The whole point of exact-key caching: switching it on must not move a
  // single bit of any simulation output. Auto mode with varied workload
  // shapes exercises the full optimize_all path through the cache.
  auto off = base_config(0.3, 4, 4);
  off.auto_strategy = true;
  off.workload.t_min_lo = 2.0;
  off.workload.t_min_hi = 12.0;
  off.admission.enabled = true;
  auto exact = off;
  exact.plan_cache.mode = serve::CacheMode::kExact;
  const auto a = sim::run_open_system(off);
  const auto b = sim::run_open_system(exact);
  expect_same_run(a, b);
  EXPECT_EQ(a.plan_cache_hits, 0u);
  EXPECT_EQ(a.plan_cache_misses, 0u);
  // Every arrival is planned (the plan feeds the admission decision).
  EXPECT_EQ(b.plan_cache_hits + b.plan_cache_misses, b.arrivals);
}

TEST(OpenSystemPlanCache, ExactModeHitsOnRepeatedShapesBitIdentically) {
  // ExactModeIsBitIdenticalToOff samples continuous shapes, so its exact
  // cache never hits. Here every arrival has the same shape (fixed task
  // count, t_min, beta and deadline factor) and only the spot price
  // varies, so exact keys repeat: the cache must serve hits, and a run
  // served from it must still match the uncached run bit for bit — at one
  // stage and at five (staged keys have no stage cap).
  auto off = base_config(0.3, 4, 4);
  off.auto_strategy = true;
  off.workload.deadline_factor_lo = 2.0;
  off.workload.deadline_factor_hi = 2.0;
  off.admission.enabled = true;
  auto staged = off;
  for (int s = 0; s < 4; ++s) {
    staged.workload.extra_stages.push_back(
        mapreduce::StageSpec{4, 3.0 + s, 1.8, 0.0, 0.0, 0, {}});
  }
  for (const auto& uncached : {off, staged}) {
    auto exact = uncached;
    exact.plan_cache.mode = serve::CacheMode::kExact;
    const auto a = sim::run_open_system(uncached);
    const auto b = sim::run_open_system(exact);
    expect_same_run(a, b);
    EXPECT_GT(b.plan_cache_hits, 0u);
    EXPECT_EQ(b.plan_cache_hits + b.plan_cache_misses, b.arrivals);
  }
}

TEST(OpenSystemPlanCache, QuantizedModeHitsAndConserves) {
  // Quantized keys trade bit-identity for hit rate: with a coarse grid over
  // a continuously-sampled workload the cache must actually hit, and the
  // run must still satisfy the conservation law.
  auto config = base_config(0.3, 4, 4);
  config.auto_strategy = true;
  config.plan_cache.mode = serve::CacheMode::kQuantized;
  config.plan_cache.grid = 0.5;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.plan_cache_hits, 0u);
  EXPECT_EQ(result.plan_cache_hits + result.plan_cache_misses,
            result.arrivals);
  EXPECT_EQ(result.admitted, result.completed + result.in_flight_at_end);
}

// --- arrival pricing --------------------------------------------------------

TEST(OpenSystemPricing, ArrivalsArePricedAtTheirArrivalInstant) {
  // One trace-replayed job landing in the 6th price step of a fast spot
  // clock: its cost must be machine_time * price_at(arrival), not the
  // price at time zero (the stale clock the engine must never use).
  auto config = base_config(0.0, 4, 4);
  config.arrivals.kind = ArrivalKind::kTrace;
  config.arrivals.times = {550.0};
  config.prices.step_seconds = 100.0;
  config.prices.volatility = 0.5;
  config.duration = 1000.0;
  config.warm_up = 0.0;
  const trace::SpotPriceModel prices(config.prices);
  ASSERT_NE(prices.price_at(550.0), prices.price_at(0.0));
  const auto result = sim::run_open_system(config);
  ASSERT_EQ(result.metrics.jobs(), 1u);
  EXPECT_GT(result.metrics.mean_machine_time(), 0.0);
  EXPECT_DOUBLE_EQ(
      result.metrics.mean_cost(),
      result.metrics.mean_machine_time() * prices.price_at(550.0));
  EXPECT_NE(result.metrics.mean_cost(),
            result.metrics.mean_machine_time() * prices.price_at(0.0));
}

// --- arrival processes ------------------------------------------------------

std::vector<double> drain_arrivals(const ArrivalSpec& spec, double horizon,
                                   std::uint64_t seed) {
  auto process = trace::make_arrival_process(spec);
  Rng rng(seed);
  std::vector<double> times;
  double now = 0.0;
  while (true) {
    now = process->next_after(now, rng);
    if (!std::isfinite(now) || now > horizon) {
      break;
    }
    times.push_back(now);
  }
  return times;
}

TEST(Arrivals, PoissonCountWithinFourSigma) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate = 2.0;
  const auto times = drain_arrivals(spec, 5000.0, 3);
  // N ~ Poisson(10000): mean 10000, sigma 100.
  EXPECT_GT(times.size(), 9600u);
  EXPECT_LT(times.size(), 10400u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LT(times[i - 1], times[i]);
  }
}

TEST(Arrivals, DiurnalCountAveragesToBaseRate) {
  // Over a whole number of periods the sinusoidal modulation integrates to
  // zero, so the expected count equals rate * horizon.
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate = 1.0;
  spec.amplitude = 0.8;
  spec.period = 1000.0;
  const auto times = drain_arrivals(spec, 10000.0, 5);
  EXPECT_GT(times.size(), 9600u);
  EXPECT_LT(times.size(), 10400u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LT(times[i - 1], times[i]);
  }
}

TEST(Arrivals, DiurnalPeakAndTroughDensity) {
  // Thinning must actually modulate the rate: count the first quarter-period
  // (rising peak) against the third (trough).
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate = 1.0;
  spec.amplitude = 0.9;
  spec.period = 4000.0;
  const auto times = drain_arrivals(spec, 4000.0, 11);
  std::size_t peak = 0;
  std::size_t trough = 0;
  for (const double t : times) {
    if (t < 1000.0) ++peak;
    if (t >= 2000.0 && t < 3000.0) ++trough;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(Arrivals, TraceReplaysExactTimesIncludingDuplicates) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kTrace;
  spec.times = {0.0, 0.0, 1.5, 1.5, 1.5, 7.0};
  auto process = trace::make_arrival_process(spec);
  Rng rng(1);
  // Duplicate timestamps (batch submissions) fire once per call, starting
  // with an arrival at exactly t = 0.
  double now = 0.0;
  std::vector<double> seen;
  for (int i = 0; i < 6; ++i) {
    now = process->next_after(now, rng);
    seen.push_back(now);
  }
  EXPECT_EQ(seen, spec.times);
  EXPECT_EQ(process->next_after(now, rng),
            std::numeric_limits<double>::infinity());
}

TEST(Arrivals, ParseTimesAcceptsCommentsAndBlanks) {
  const auto times = trace::parse_arrival_times(
      "# header\n\n 0.5 \n;another comment\n2\n2\n10.25\n");
  EXPECT_EQ(times, (std::vector<double>{0.5, 2.0, 2.0, 10.25}));
}

TEST(Arrivals, ParseTimesRejectsMalformedInput) {
  EXPECT_THROW(trace::parse_arrival_times("1\nbogus\n"), PreconditionError);
  EXPECT_THROW(trace::parse_arrival_times("-1\n"), PreconditionError);
  EXPECT_THROW(trace::parse_arrival_times("5\n4\n"), PreconditionError);
  EXPECT_THROW(trace::parse_arrival_times("inf\n"), PreconditionError);
}

TEST(Arrivals, SpecValidation) {
  ArrivalSpec spec;
  spec.rate = 0.0;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.rate = 1.0;
  spec.kind = ArrivalKind::kDiurnal;
  spec.amplitude = 1.0;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.amplitude = -0.1;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.amplitude = 0.5;
  spec.period = 0.0;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.period = 86400.0;
  spec.validate();
  spec.kind = ArrivalKind::kTrace;
  spec.times = {1.0, 0.5};
  EXPECT_THROW(spec.validate(), PreconditionError);
}

// --- config validation ------------------------------------------------------

TEST(OpenSystemConfigValidation, RejectsBadWindows) {
  auto config = base_config(0.1, 2, 4);
  config.warm_up = config.duration;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.warm_up = 0.0;
  config.duration = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.duration = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), PreconditionError);
}

TEST(OpenSystemConfigValidation, RejectsBadAdmissionKnobs) {
  auto config = base_config(0.1, 2, 4);
  config.admission.degrade_headroom = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.admission.degrade_headroom = 1.0;
  config.admission.reject_queue_factor = -1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
}

// --- validation-hardening regressions (bugfix satellite) --------------------

TEST(ValidationHardening, WorkloadProfileRejectsDegenerateParameters) {
  trace::WorkloadProfile profile = trace::benchmark("Sort");
  profile.t_min = 0.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.beta = 1.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.t_min = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.deadline = -1.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  EXPECT_NO_THROW(profile.make_job(0, 4));
}

TEST(ValidationHardening, ClusterRejectsNonFiniteNodeParameters) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto make = [](const sim::NodeConfig& node) {
    sim::Cluster cluster(sim::ClusterConfig::uniform(1, node));
  };
  EXPECT_THROW(make({.speed = 0.0}), PreconditionError);
  EXPECT_THROW(make({.speed = -1.0}), PreconditionError);
  EXPECT_THROW(make({.speed = inf}), PreconditionError);
  EXPECT_THROW(make({.speed = nan}), PreconditionError);
  EXPECT_THROW(make({.containers = 0}), PreconditionError);
  EXPECT_THROW(make({.noise_mean = inf}), PreconditionError);
  EXPECT_THROW(make({.noise_mean = -0.5}), PreconditionError);
  EXPECT_THROW(make({.noise_sigma = nan}), PreconditionError);
  EXPECT_NO_THROW(make({.speed = 2.0, .noise_mean = 0.3, .noise_sigma = 0.2}));
}

TEST(ValidationHardening, RunMetricsRetentionToggle) {
  sim::RunMetrics metrics;
  metrics.set_retain_outcomes(false);
  sim::JobOutcome outcome;
  outcome.met_deadline = true;
  outcome.r_used = 2;
  metrics.record(outcome);
  outcome.met_deadline = false;
  outcome.r_used = 1;
  metrics.record(outcome);
  EXPECT_TRUE(metrics.outcomes().empty());
  EXPECT_EQ(metrics.jobs(), 2u);
  EXPECT_EQ(metrics.total_r_used(), 3);
  EXPECT_DOUBLE_EQ(metrics.pocd(), 0.5);
  // The toggle is a construction-time decision.
  EXPECT_THROW(metrics.set_retain_outcomes(true), PreconditionError);
}

// --- sweeprun goldens: thread-count and kill/resume determinism -------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_open_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int run_command(const std::string& command) {
  std::FILE* pipe = popen((command + " >/dev/null 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return -1;
  }
  const int raw = pclose(pipe);
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

const std::string kSweeprun = CHRONOS_SWEEPRUN_BIN;
const std::string kManifest =
    std::string(CHRONOS_MANIFEST_DIR) + "/open_system.ini";
const std::string kGoldenDir = std::string(CHRONOS_TEST_DIR) + "/golden";

TEST(OpenSystemGolden, ReportsMatchAcrossThreadCounts) {
  const std::string golden_csv = slurp(kGoldenDir + "/open_system.csv");
  const std::string golden_json = slurp(kGoldenDir + "/open_system.json");
  for (const char* threads : {"1", "4"}) {
    const std::string tag = std::string("t") + threads;
    const std::string csv = temp_path(tag + ".csv");
    const std::string json = temp_path(tag + ".json");
    ASSERT_EQ(run_command(kSweeprun + " " + kManifest + " --fresh --no-table" +
                          " --threads " + threads + " --journal " +
                          temp_path(tag + ".journal") + " --csv " + csv +
                          " --json " + json),
              0);
    EXPECT_EQ(slurp(csv), golden_csv) << "threads " << threads;
    EXPECT_EQ(slurp(json), golden_json) << "threads " << threads;
  }
}

TEST(OpenSystemGolden, ResumeFromPartialJournalIsByteIdentical) {
  // Emulate a kill half-way: a 1-of-2 shard run leaves a journal with two of
  // the four cells done; resuming the full sweep from it must reproduce the
  // goldens byte-for-byte.
  const std::string dir = temp_path("resume.d");
  ASSERT_EQ(run_command("mkdir -p " + dir), 0);
  ASSERT_EQ(run_command("cd " + dir + " && " + kSweeprun + " " + kManifest +
                        " --fresh --no-table --threads 2 --shard 1/2"),
            0);
  const std::string journal = temp_path("resume.journal");
  const std::string csv = temp_path("resume.csv");
  const std::string json = temp_path("resume.json");
  ASSERT_EQ(run_command("cp " + dir + "/open_system.shard-1-of-2.journal " +
                        journal),
            0);
  ASSERT_EQ(run_command(kSweeprun + " " + kManifest +
                        " --no-table --threads 2 --journal " + journal +
                        " --csv " + csv + " --json " + json),
            0);
  EXPECT_EQ(slurp(csv), slurp(kGoldenDir + "/open_system.csv"));
  EXPECT_EQ(slurp(json), slurp(kGoldenDir + "/open_system.json"));
}

TEST(OpenSystemGolden, ExactPlanCacheReportsMatchUncachedGoldens) {
  // Each manifest runs with `plan_cache = exact` against goldens generated
  // with the cache off: exact-key hits are only ever served for
  // bit-identical planning inputs, so the reports must match byte for byte.
  // open_system_cached.ini is open_system.ini's grid (few repeated
  // inputs); open_system_repeated.ini gives every job one shape, so nearly
  // every request is a hit.
  for (const auto& [name, golden] :
       {std::pair{"open_system_cached", "open_system"},
        std::pair{"open_system_repeated", "open_system_repeated"}}) {
    const std::string manifest =
        std::string(CHRONOS_MANIFEST_DIR) + "/" + name + ".ini";
    const std::string csv = temp_path(std::string(name) + ".csv");
    const std::string json = temp_path(std::string(name) + ".json");
    ASSERT_EQ(run_command(kSweeprun + " " + manifest + " --fresh --no-table" +
                          " --threads 2 --journal " +
                          temp_path(std::string(name) + ".journal") +
                          " --csv " + csv + " --json " + json),
              0);
    EXPECT_EQ(slurp(csv), slurp(kGoldenDir + "/" + golden + ".csv")) << name;
    EXPECT_EQ(slurp(json), slurp(kGoldenDir + "/" + golden + ".json"))
        << name;
  }
}

}  // namespace
}  // namespace chronos
