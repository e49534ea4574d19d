// Microbenchmarks of the simulation substrate: event-queue throughput and
// end-to-end scheduler runs per strategy.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <deque>

#include "common/rng.h"
#include "mapreduce/scheduler.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/open_system.h"
#include "sim/simulator.h"
#include "strategies/policies.h"

namespace {

using namespace chronos;  // NOLINT

/// Ignores every event, so the queue benchmarks time the queue alone.
class NoopHandler final : public sim::EventHandler {
 public:
  void on_event(const sim::TypedEvent& /*event*/) override {}
};

/// Pops the earliest event and delivers it, as Simulator::step does.
void fire_next(sim::EventQueue& queue) {
  const auto fired = queue.pop();
  fired.handler->on_event(fired.event);
}

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto n = state.range(0);
  NoopHandler handler;
  for (auto _ : state) {
    sim::EventQueue queue;
    for (long long i = 0; i < n; ++i) {
      queue.schedule(static_cast<double>((i * 7919) % 1000), handler,
                     sim::TypedEvent{});
    }
    while (!queue.empty()) {
      fire_next(queue);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHalf(benchmark::State& state) {
  const auto n = state.range(0);
  NoopHandler handler;
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) {
      ids.push_back(queue.schedule(static_cast<double>(i % 977), handler,
                                   sim::TypedEvent{}));
    }
    for (long long i = 0; i < n; i += 2) {
      queue.cancel(ids[static_cast<std::size_t>(i)]);
    }
    while (!queue.empty()) {
      fire_next(queue);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHalf)->Arg(10000);

void BM_EventQueueRollingCancel(benchmark::State& state) {
  // The queue traffic of S-Resume's kill-and-relaunch cycle (e2ebench's
  // open_sresume): a steady state of 200 pending events. Each step fires
  // the earliest, schedules a near-term event (a grant or a timer) and, in
  // 15 of 17 steps, a far-future finish, then cancels until 200 remain:
  // mostly the oldest pending finish (a killed attempt), sometimes the
  // newest near-term event. About 47% of scheduled events are cancelled,
  // most of them long before they come due. Items are steps (one pop each).
  constexpr std::size_t kLive = 200;
  constexpr std::size_t kNearKept = 64;  // older near-term ids have fired
  NoopHandler handler;
  sim::EventQueue queue;
  Rng rng(1);
  std::deque<sim::EventId> finishes;  // oldest first
  std::deque<sim::EventId> near;      // newest last
  sim::Time now = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  const auto schedule_near = [&] {
    near.push_back(
        queue.schedule(now + rng.uniform(0.0, 1.0), handler, {}));
    if (near.size() > kNearKept) {
      near.pop_front();
    }
    ++scheduled;
  };
  const auto schedule_finish = [&] {
    finishes.push_back(
        queue.schedule(now + 2.0 + rng.uniform(0.0, 7.0), handler, {}));
    ++scheduled;
  };
  for (std::size_t i = 0; i < kLive / 2; ++i) {
    schedule_near();
    schedule_finish();
  }
  std::uint64_t step = 0;
  for (auto _ : state) {
    now = queue.next_time();
    fire_next(queue);
    schedule_near();
    if (step++ % 17 >= 2) {
      schedule_finish();
    }
    while (queue.size() > kLive) {
      sim::EventId id;
      if (!finishes.empty() && (near.empty() || rng.uniform() >= 0.1)) {
        id = finishes.front();
        finishes.pop_front();
      } else {
        id = near.back();
        near.pop_back();
      }
      cancelled += queue.cancel(id) ? 1 : 0;
    }
  }
  state.counters["cancel_ratio"] =
      static_cast<double>(cancelled) / static_cast<double>(scheduled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRollingCancel);

mapreduce::JobSpec bench_job(int tasks) {
  mapreduce::JobSpec spec;
  spec.stage(0).num_tasks = tasks;
  spec.deadline = 180.0;
  spec.stage(0).t_min = 30.0;
  spec.stage(0).beta = 1.5;
  spec.stage(0).tau_est = 40.0;
  spec.stage(0).tau_kill = 80.0;
  spec.stage(0).r = 2;
  return spec;
}

void run_one_job(strategies::PolicyKind kind, int tasks,
                 std::uint64_t seed) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 64;
  sim::Cluster cluster(sim::ClusterConfig::uniform(16, node));
  auto policy = strategies::make_policy(kind);
  mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                 mapreduce::SchedulerConfig{}, Rng(seed));
  scheduler.submit(bench_job(tasks));
  simulator.run();
}

void BM_SchedulerHadoopNS(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_one_job(strategies::PolicyKind::kHadoopNS,
                static_cast<int>(state.range(0)), seed++);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerHadoopNS)->Arg(100);

void BM_SchedulerClone(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_one_job(strategies::PolicyKind::kClone,
                static_cast<int>(state.range(0)), seed++);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerClone)->Arg(100);

void BM_SchedulerSResume(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_one_job(strategies::PolicyKind::kSResume,
                static_cast<int>(state.range(0)), seed++);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerSResume)->Arg(100);

void BM_SchedulerMantri(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_one_job(strategies::PolicyKind::kMantri,
                static_cast<int>(state.range(0)), seed++);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerMantri)->Arg(100);

void BM_OpenSystemEventsPerSec(benchmark::State& state) {
  // End-to-end open-system throughput: Poisson arrivals at rate 1.2 on a
  // 256-container cluster, fixed S-Resume planning and admission control
  // on. This rate saturates the cluster: at seed 1, utilization is 0.987
  // and admission degrades 1,134 of 1,199 jobs to Hadoop-NS, so almost no
  // speculation runs (e2ebench/README.md; its open_sresume workload uses
  // rate 0.8, utilization 0.78). The config is kept as is so results stay
  // comparable with earlier BENCH files. Items are simulator events.
  sim::OpenSystemConfig config;
  config.arrivals.kind = trace::ArrivalKind::kPoisson;
  config.arrivals.rate = 1.2;
  config.workload.mean_tasks = 20.0;
  config.workload.max_tasks = 64;
  config.workload.t_min_lo = 2.0;
  config.workload.t_min_hi = 8.0;
  config.policy = strategies::PolicyKind::kSResume;
  config.planner.r_min_from_baseline = false;
  sim::NodeConfig node;
  node.containers = 16;
  config.cluster = sim::ClusterConfig::uniform(16, node);
  config.duration = 1000.0;
  config.warm_up = 100.0;
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    config.seed = seed++;
    const auto result = sim::run_open_system(config);
    benchmark::DoNotOptimize(result.utilization);
    events += result.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_OpenSystemEventsPerSec)->Unit(benchmark::kMillisecond);

void BM_OpenSystemStagedEventsPerSec(benchmark::State& state) {
  // The same open-system hot path with every arrival extended into a
  // 3-stage DAG (chain + fan-in from the root): measures the cost of the
  // barrier bookkeeping, per-stage samplers, and multi-stage planning
  // relative to BM_OpenSystemEventsPerSec.
  sim::OpenSystemConfig config;
  config.arrivals.kind = trace::ArrivalKind::kPoisson;
  config.arrivals.rate = 0.6;
  config.workload.mean_tasks = 20.0;
  config.workload.max_tasks = 64;
  config.workload.t_min_lo = 2.0;
  config.workload.t_min_hi = 8.0;
  config.workload.extra_stages = {
      mapreduce::StageSpec{8, 4.0, 1.6, 0.0, 0.0, 0, {}},
      mapreduce::StageSpec{4, 3.0, 1.5, 0.0, 0.0, 0, {0, 1}},
  };
  config.policy = strategies::PolicyKind::kSResume;
  config.planner.r_min_from_baseline = false;
  sim::NodeConfig node;
  node.containers = 16;
  config.cluster = sim::ClusterConfig::uniform(16, node);
  config.duration = 1000.0;
  config.warm_up = 100.0;
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    config.seed = seed++;
    const auto result = sim::run_open_system(config);
    benchmark::DoNotOptimize(result.utilization);
    events += result.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_OpenSystemStagedEventsPerSec)->Unit(benchmark::kMillisecond);

void BM_OpenSystemLongRun(benchmark::State& state) {
  // Bounded memory over long runs: the BM_OpenSystemEventsPerSec shape at
  // rate 0.8 (utilization ~0.78), with a horizon of range(0) x 1000 s.
  // Completed jobs hand their scheduler slot to later arrivals, so the
  // slot high-water ("job_slots") tracks the peak number of jobs in flight,
  // not the arrivals, and peak RSS stays flat from 1x to 10x. peak_rss_mb
  // is the process-wide peak (getrusage), so run this benchmark alone
  // (--benchmark_filter=LongRun) to read it per horizon.
  sim::OpenSystemConfig config;
  config.arrivals.kind = trace::ArrivalKind::kPoisson;
  config.arrivals.rate = 0.8;
  config.workload.mean_tasks = 20.0;
  config.workload.max_tasks = 64;
  config.workload.t_min_lo = 2.0;
  config.workload.t_min_hi = 8.0;
  config.policy = strategies::PolicyKind::kSResume;
  config.planner.r_min_from_baseline = false;
  sim::NodeConfig node;
  node.containers = 16;
  config.cluster = sim::ClusterConfig::uniform(16, node);
  config.duration = 1000.0 * static_cast<double>(state.range(0));
  config.warm_up = 100.0;
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  sim::OpenSystemResult result;
  for (auto _ : state) {
    config.seed = seed++;
    result = sim::run_open_system(config);
    benchmark::DoNotOptimize(result.utilization);
    events += result.events_executed;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  state.counters["job_slots"] = static_cast<double>(result.job_slots);
  state.counters["peak_in_flight"] =
      static_cast<double>(result.peak_in_flight);
  state.counters["arrivals"] = static_cast<double>(result.arrivals);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_OpenSystemLongRun)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
