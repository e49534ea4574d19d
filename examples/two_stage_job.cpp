// Two-stage MapReduce job: plan and simulate a job with map AND reduce
// phases. §III of the paper notes the analysis applies per stage ("PoCD for
// map and reduce stages can be optimized separately"); the planner splits
// the job deadline across the stages in proportion to their expected
// makespans on the critical path and runs Algorithm 1 once per stage.
//
//   ./two_stage_job [deadline] [strategy]
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mapreduce/scheduler.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "trace/planner.h"

namespace {

using namespace chronos;  // NOLINT

double run_once(const mapreduce::JobSpec& spec, strategies::PolicyKind kind,
                std::uint64_t seed, bool& met) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 32;
  sim::Cluster cluster(sim::ClusterConfig::uniform(8, node));
  auto policy = strategies::make_policy(kind);
  mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                 mapreduce::SchedulerConfig{}, Rng(seed));
  scheduler.submit(spec);
  simulator.run();
  const auto& outcome = scheduler.metrics().outcomes().front();
  met = outcome.met_deadline;
  return outcome.machine_time;
}

}  // namespace

int main(int argc, char** argv) {
  const double deadline = argc > 1 ? std::atof(argv[1]) : 500.0;
  const std::string name = argc > 2 ? argv[2] : "s-resume";
  const auto parsed = strategies::policy_from_name(name);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "unknown strategy '%s'\n", name.c_str());
    return 1;
  }
  const strategies::PolicyKind kind = *parsed;

  trace::TracedJob job;
  job.spec.stage(0).num_tasks = 40;  // map phase: 40 splits
  job.spec.stage(0).t_min = 25.0;
  job.spec.stage(0).beta = 1.4;
  // Reduce phase: 10 partitions, longer but less variable tasks. The
  // default barrier chain makes it wait for the whole map stage (shuffle).
  job.spec.add_reduce_stage(/*reduce_tasks=*/10, /*reduce_t_min=*/45.0,
                            /*reduce_beta=*/1.7);
  job.spec.deadline = deadline;
  job.spec.jvm_mean = 2.0;
  job.spec.jvm_jitter = 1.0;

  trace::PlannerConfig planner;
  const trace::SpotPriceModel prices;
  trace::plan_job(job, kind, planner, prices);
  const auto deadlines = trace::stage_deadlines(job.spec, planner);
  // Analytic PoCD of a planned stage under its deadline share (0 for the
  // baselines, which have no analytic model).
  const auto stage_pocd = [&](int s) {
    if (!trace::has_analytic_strategy(kind)) {
      return 0.0;
    }
    const auto strategy = trace::analytic_strategy(kind);
    const auto& stage = job.spec.stage(s);
    return core::pocd(strategy,
                      trace::stage_job_params(
                          stage, deadlines[static_cast<std::size_t>(s)],
                          planner, strategy),
                      static_cast<double>(stage.r));
  };

  // Bind stage views only now: add_reduce_stage grows the stage vector,
  // so references taken before it would dangle.
  const auto& map = job.spec.stage(0);
  const auto& reduce = job.spec.stage(1);
  std::printf("Two-stage job: %d map + %d reduce tasks, deadline %.0f s\n",
              map.num_tasks, reduce.num_tasks, deadline);
  std::printf("Deadline split: map %.1f s / reduce %.1f s "
              "(expected makespans %.1f / %.1f)\n",
              deadlines[0], deadlines[1],
              trace::expected_stage_makespan(map.num_tasks, map.t_min,
                                             map.beta),
              trace::expected_stage_makespan(reduce.num_tasks, reduce.t_min,
                                             reduce.beta));
  std::printf("Planned r: map %lld (PoCD %.4f), reduce %lld (PoCD %.4f)\n\n",
              map.r, stage_pocd(0), reduce.r, stage_pocd(1));

  int met_count = 0;
  double machine_sum = 0.0;
  const int runs = 200;
  for (int i = 0; i < runs; ++i) {
    bool met = false;
    machine_sum +=
        run_once(job.spec, kind, static_cast<std::uint64_t>(i), met);
    met_count += met ? 1 : 0;
  }
  std::printf("Simulated %d runs under %s:\n", runs,
              strategies::to_string(kind).c_str());
  std::printf("  PoCD          : %.3f\n",
              static_cast<double>(met_count) / runs);
  std::printf("  mean machine  : %.1f s\n", machine_sum / runs);

  // Baseline comparison: no speculation at all.
  int base_met = 0;
  double base_machine = 0.0;
  for (int i = 0; i < runs; ++i) {
    bool met = false;
    auto spec = job.spec;
    for (auto& stage : spec.stages) {
      stage.r = 0;
    }
    base_machine += run_once(spec, strategies::PolicyKind::kHadoopNS,
                             static_cast<std::uint64_t>(i), met);
    base_met += met ? 1 : 0;
  }
  std::printf("Hadoop-NS baseline: PoCD %.3f, mean machine %.1f s\n",
              static_cast<double>(base_met) / runs, base_machine / runs);
  return 0;
}
