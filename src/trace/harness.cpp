#include "trace/harness.h"

#include <limits>

#include "common/error.h"
#include "common/log.h"
#include "mapreduce/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace chronos::trace {

namespace {

const obs::Counter c_runs = obs::counter("sim.runs");
const obs::Timer t_run = obs::timer("sim.run");

/// Submits jobs[event.slot] when its submission event fires.
class Submitter final : public sim::EventHandler {
 public:
  Submitter(mapreduce::Scheduler& scheduler,
            const std::vector<TracedJob>& jobs)
      : scheduler_(scheduler), jobs_(jobs) {}

  Submitter(const Submitter&) = delete;
  Submitter& operator=(const Submitter&) = delete;

  void on_event(const sim::TypedEvent& event) override {
    scheduler_.submit(jobs_[event.slot].spec);
  }

 private:
  mapreduce::Scheduler& scheduler_;
  const std::vector<TracedJob>& jobs_;
};

}  // namespace

ExperimentConfig ExperimentConfig::large_scale(
    strategies::PolicyKind policy, std::uint64_t seed) {
  ExperimentConfig config;
  config.policy = policy;
  config.seed = seed;
  sim::NodeConfig node;
  node.containers = 64;
  config.cluster = sim::ClusterConfig::uniform(64, node);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
  config.scheduler.estimator = mapreduce::EstimatorKind::kChronos;
  return config;
}

ExperimentConfig ExperimentConfig::testbed(strategies::PolicyKind policy,
                                           std::uint64_t seed) {
  ExperimentConfig config;
  config.policy = policy;
  config.seed = seed;
  sim::NodeConfig node;
  node.containers = 8;  // 8 vCPUs per EC2 node (§VII-A)
  config.cluster = sim::ClusterConfig::uniform(40, node);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
  config.scheduler.estimator = mapreduce::EstimatorKind::kChronos;
  return config;
}

ExperimentResult run_experiment(const std::vector<TracedJob>& jobs,
                                const ExperimentConfig& config) {
  CHRONOS_EXPECTS(!jobs.empty(), "experiment needs at least one job");
  obs::TraceSpan span("sim.run", "sim");
  span.note("jobs", static_cast<double>(jobs.size()));
  const obs::ScopedTimer run_timer(t_run);
  c_runs.add();
  sim::Simulator simulator;
  sim::Cluster cluster(config.cluster);
  auto policy = strategies::make_policy(config.policy, config.policy_options);
  mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                 config.scheduler, Rng(config.seed));

  CHRONOS_EXPECTS(jobs.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "job index must fit a typed event's slot");
  Submitter submitter(scheduler, jobs);
  for (std::uint32_t i = 0; i < jobs.size(); ++i) {
    sim::TypedEvent submit;
    submit.slot = i;
    simulator.at(jobs[i].submit_time, submitter, submit);
  }
  simulator.run();

  CHRONOS_ENSURES(scheduler.metrics().jobs() == jobs.size(),
                  "not every job completed");
  ExperimentResult result;
  result.policy_name = policy->name();
  result.metrics = scheduler.metrics();
  result.events_executed = simulator.events_executed();
  span.note("events", static_cast<double>(result.events_executed));
  CHRONOS_LOG(kDebug) << result.policy_name << ": " << jobs.size()
                      << " jobs, " << result.events_executed << " events";
  return result;
}

}  // namespace chronos::trace
