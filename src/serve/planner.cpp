#include "serve/planner.h"

#include <bit>
#include <cstddef>
#include <optional>

#include "common/error.h"
#include "obs/metrics.h"

namespace chronos::serve {

namespace {

const obs::Counter c_requests = obs::counter("serve.requests");
const obs::Counter c_hits = obs::counter("serve.hits");
const obs::Counter c_misses = obs::counter("serve.misses");
const obs::Counter c_inserts = obs::counter("serve.inserts");
const obs::Counter c_drops = obs::counter("serve.drops");
const obs::Gauge g_size = obs::gauge("serve.size");
const obs::Timer t_plan = obs::timer("serve.plan");

/// Table slots for a validated cache config (one unused slot when off).
std::size_t table_slots(const PlanCacheConfig& cache) {
  cache.validate();
  return cache.mode == CacheMode::kOff ? 1 : cache.capacity;
}

}  // namespace

PlannerService::PlannerService(PlannerServiceConfig config)
    : config_(config), cache_(table_slots(config.cache)) {}

PlannerServiceStats PlannerService::stats() const {
  PlannerServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.drops = drops_.load(std::memory_order_relaxed);
  stats.cache_size = cache_.size();
  return stats;
}

PlanKey PlannerService::make_key(const PlanRequest& request) const {
  const auto& spec = *request.spec;
  const bool quantized = config_.cache.mode == CacheMode::kQuantized;
  const double grid = config_.cache.grid;
  const auto encode = [&](double value) {
    return std::bit_cast<std::uint64_t>(
        quantized ? quantize_bucket(value, grid)
                  : std::bit_cast<std::int64_t>(value));
  };
  const auto stages = static_cast<std::size_t>(spec.num_stages());
  const std::size_t mask_words = (stages + 63) / 64;
  PlanKey key;
  auto& words = key.words;
  words.reserve(4 + stages * (3 + mask_words));
  words.push_back(request.auto_strategy
                      ? kAutoMode
                      : static_cast<std::uint64_t>(request.policy));
  words.push_back(stages);
  words.push_back(encode(spec.deadline));
  words.push_back(encode(request.price));
  for (std::size_t s = 0; s < stages; ++s) {
    const auto& stage = spec.stages[s];
    words.push_back(static_cast<std::uint64_t>(stage.num_tasks));
    words.push_back(encode(stage.t_min));
    words.push_back(encode(stage.beta));
    const std::size_t mask = words.size();
    words.resize(mask + mask_words, 0);
    for (const int dep : spec.resolved_deps(static_cast<int>(s))) {
      const auto bit = static_cast<std::size_t>(dep);
      words[mask + bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
  return key;
}

PlanReply PlannerService::plan(const PlanRequest& request) {
  CHRONOS_EXPECTS(request.spec != nullptr, "plan request needs a spec");
  const obs::ScopedTimer timer(t_plan);
  c_requests.add();
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto compute = [&] {
    return trace::plan(*request.spec, config_.planner, request.price,
                       request.auto_strategy
                           ? std::nullopt
                           : std::optional(request.policy));
  };
  const auto reply = [&](const trace::Plan& plan, bool hit) {
    trace::apply(plan, config_.planner, request.price, *request.spec);
    return PlanReply{plan.kind, plan.r.front(), plan.feasible, hit};
  };
  if (config_.cache.mode == CacheMode::kOff) {
    return reply(compute(), false);
  }
  const PlanKey key = make_key(request);
  if (const trace::Plan* cached = cache_.find(key)) {
    c_hits.add();
    hits_.fetch_add(1, std::memory_order_relaxed);
    return reply(*cached, true);
  }
  c_misses.add();
  misses_.fetch_add(1, std::memory_order_relaxed);
  const trace::Plan fresh = compute();
  if (cache_.insert(key, fresh)) {
    c_inserts.add();
    inserts_.fetch_add(1, std::memory_order_relaxed);
    g_size.update(cache_.size());
  } else {
    c_drops.add();
    drops_.fetch_add(1, std::memory_order_relaxed);
  }
  return reply(fresh, false);
}

}  // namespace chronos::serve
