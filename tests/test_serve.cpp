// Planner service + plan cache (src/serve/).
//
// The load-bearing properties: exact-key caching is bit-identical to
// uncached planning (a hit is only ever served for bit-identical inputs,
// and the per-request fields — price, tau timers — are recomputed, never
// cached), quantized keys bucket on the geometric grid exactly where
// quantize_bucket says they do, keys of any stage count cover every stage's
// shape and wiring, and the lock-free table survives a multi-threaded
// reader/inserter hammer (run under ASan/UBSan and TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/optimizer.h"
#include "serve/plan_cache.h"
#include "serve/planner.h"
#include "trace/planner.h"

namespace chronos {
namespace {

using serve::CacheMode;
using serve::PlanCache;
using serve::PlanCacheConfig;
using serve::PlanKey;
using serve::PlannerService;
using serve::PlannerServiceConfig;
using serve::PlanReply;
using serve::PlanRequest;

mapreduce::JobSpec make_spec(int num_tasks, double t_min, double beta,
                             double deadline) {
  mapreduce::JobSpec spec;
  spec.stage(0).num_tasks = num_tasks;
  spec.stage(0).t_min = t_min;
  spec.stage(0).beta = beta;
  spec.deadline = deadline;
  return spec;
}

PlannerServiceConfig service_config(CacheMode mode, double grid = 0.0) {
  PlannerServiceConfig config;
  config.cache.mode = mode;
  config.cache.grid = grid;
  return config;
}

PlanRequest request_for(mapreduce::JobSpec& spec, double price,
                        bool auto_strategy,
                        strategies::PolicyKind policy) {
  PlanRequest request;
  request.spec = &spec;
  request.price = price;
  request.auto_strategy = auto_strategy;
  request.policy = policy;
  return request;
}

/// The uncached reference: trace::apply(trace::plan(...)) on `spec`.
trace::Plan plan_uncached(mapreduce::JobSpec& spec,
                          std::optional<strategies::PolicyKind> policy,
                          const trace::PlannerConfig& planner, double price) {
  const trace::Plan plan = trace::plan(spec, planner, price, policy);
  trace::apply(plan, planner, price, spec);
  return plan;
}

/// Bitwise equality of every field the planner writes, on every stage.
void expect_same_plan(const mapreduce::JobSpec& a,
                      const mapreduce::JobSpec& b) {
  EXPECT_EQ(a.price, b.price);
  ASSERT_EQ(a.num_stages(), b.num_stages());
  for (int s = 0; s < a.num_stages(); ++s) {
    EXPECT_EQ(a.stage(s).tau_est, b.stage(s).tau_est) << "stage " << s;
    EXPECT_EQ(a.stage(s).tau_kill, b.stage(s).tau_kill) << "stage " << s;
    EXPECT_EQ(a.stage(s).r, b.stage(s).r) << "stage " << s;
  }
}

// --- exact mode: bit identity with uncached planning ------------------------

TEST(PlannerService, ExactHitsAreBitIdenticalToUncachedPlan) {
  // A grid of shapes planned twice through an exact-key service: the second
  // pass must be all hits and every planned field must equal what uncached
  // trace::plan + trace::apply computes, bit for bit.
  PlannerService service(service_config(CacheMode::kExact));
  const trace::PlannerConfig planner = service.config().planner;
  for (const auto policy :
       {strategies::PolicyKind::kSResume, strategies::PolicyKind::kSRestart,
        strategies::PolicyKind::kClone, strategies::PolicyKind::kHadoopNS}) {
    for (const double t_min : {20.0, 35.0}) {
      for (const double price : {0.3, 0.7}) {
        auto cold = make_spec(50, t_min, 1.8, 6.0 * t_min);
        auto warm = cold;
        auto reference = cold;

        const PlanReply first =
            service.plan(request_for(cold, price, false, policy));
        EXPECT_FALSE(first.cache_hit);
        const PlanReply second =
            service.plan(request_for(warm, price, false, policy));
        EXPECT_TRUE(second.cache_hit);

        plan_uncached(reference, policy, planner, price);
        expect_same_plan(cold, reference);
        expect_same_plan(warm, reference);
        EXPECT_EQ(first.r, second.r);
        EXPECT_EQ(first.kind, second.kind);
      }
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, stats.misses);
  EXPECT_EQ(stats.inserts, stats.misses);
  EXPECT_EQ(stats.drops, 0u);
}

TEST(PlannerService, AutoModeMatchesOptimizeAll) {
  PlannerService service(service_config(CacheMode::kExact));
  const trace::PlannerConfig planner = service.config().planner;
  auto spec = make_spec(80, 30.0, 1.6, 200.0);
  const double price = 0.45;

  const auto params = trace::to_job_params(
      spec, planner, core::Strategy::kSpeculativeResume);
  const auto econ = trace::to_economics(spec, planner, price);
  const auto best = core::optimize_all(params, econ, planner.optimizer);

  auto cold = spec;
  const PlanReply miss = service.plan(request_for(cold, price, true,
                                                  strategies::PolicyKind::kSResume));
  auto warm = spec;
  const PlanReply hit = service.plan(request_for(warm, price, true,
                                                 strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  for (const PlanReply& reply : {miss, hit}) {
    EXPECT_EQ(reply.kind, trace::policy_of(best.strategy));
    EXPECT_EQ(reply.r, best.result.feasible ? best.result.r_opt : 1);
    EXPECT_EQ(reply.feasible, best.result.feasible);
  }
  expect_same_plan(cold, warm);
  EXPECT_EQ(cold.stage(0).r, best.result.feasible ? best.result.r_opt : 1);
  EXPECT_EQ(cold.stage(0).tau_kill, params.tau_kill);
  EXPECT_EQ(cold.stage(0).tau_est, best.strategy == core::Strategy::kClone
                                       ? 0.0
                                       : params.tau_est);
}

TEST(PlannerService, OffModeNeverCaches) {
  PlannerService service(service_config(CacheMode::kOff));
  auto spec = make_spec(40, 25.0, 2.0, 120.0);
  for (int i = 0; i < 3; ++i) {
    auto copy = spec;
    const PlanReply reply = service.plan(
        request_for(copy, 0.5, false, strategies::PolicyKind::kSResume));
    EXPECT_FALSE(reply.cache_hit);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.cache_size, 0u);
}

// --- per-request fields are never served from the cache ---------------------

TEST(PlannerService, QuantizedHitKeepsTheRequestsOwnPrice) {
  // Two prices in the same geometric bucket share a plan, but the spec's
  // price field must carry each request's OWN spot price — a cached plan
  // must never leak the first arrival's price clock into a later job.
  const double grid = 0.1;
  PlannerService service(service_config(CacheMode::kQuantized, grid));
  ASSERT_EQ(serve::quantize_bucket(1.0, grid),
            serve::quantize_bucket(1.04, grid));
  auto first = make_spec(50, 20.0, 1.8, 120.0);
  auto second = first;
  const PlanReply miss = service.plan(
      request_for(first, 1.0, false, strategies::PolicyKind::kSResume));
  const PlanReply hit = service.plan(
      request_for(second, 1.04, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(first.price, 1.0);
  EXPECT_EQ(second.price, 1.04);  // its own clock, not the cached job's
  EXPECT_EQ(first.stage(0).r, second.stage(0).r);  // same shared plan
}

// --- quantization-boundary bucketing ----------------------------------------

TEST(PlanCacheQuantization, BoundaryValuesLandInTheIntendedBucket) {
  // Buckets are powers of (1 + grid): bucket(x) = floor(log(x)/log1p(grid)).
  const double grid = 0.1;
  const double ratio = 1.0 + grid;
  // Values within one ratio of each other share a bucket...
  EXPECT_EQ(serve::quantize_bucket(1.0, grid),
            serve::quantize_bucket(ratio * 0.999, grid));
  // ...and the bucket index steps exactly at powers of the ratio.
  for (const int k : {1, 3, 7}) {
    const double edge = std::pow(ratio, k);
    EXPECT_EQ(serve::quantize_bucket(edge * 1.0001, grid),
              serve::quantize_bucket(edge * ratio * 0.9999, grid));
    EXPECT_NE(serve::quantize_bucket(edge * 0.9999, grid),
              serve::quantize_bucket(edge * 1.0001, grid));
  }
}

TEST(PlanCacheQuantization, ServiceKeysBucketJobsTogether) {
  const double grid = 0.1;
  PlannerService service(service_config(CacheMode::kQuantized, grid));
  auto a = make_spec(50, 20.0, 1.8, 120.0);
  auto b = make_spec(50, 21.0, 1.8, 121.0);   // same buckets as a
  auto c = make_spec(50, 20.0, 1.8, 140.0);   // deadline crosses a boundary
  ASSERT_EQ(serve::quantize_bucket(20.0, grid),
            serve::quantize_bucket(21.0, grid));
  ASSERT_EQ(serve::quantize_bucket(120.0, grid),
            serve::quantize_bucket(121.0, grid));
  ASSERT_NE(serve::quantize_bucket(120.0, grid),
            serve::quantize_bucket(140.0, grid));
  auto req_a = request_for(a, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_b = request_for(b, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_c = request_for(c, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_EQ(service.make_key(req_a), service.make_key(req_b));
  EXPECT_FALSE(service.make_key(req_a) == service.make_key(req_c));

  EXPECT_FALSE(service.plan(req_a).cache_hit);
  EXPECT_TRUE(service.plan(req_b).cache_hit);   // same bucket: shared plan
  EXPECT_FALSE(service.plan(req_c).cache_hit);  // new bucket: own plan
  EXPECT_EQ(a.stage(0).r, b.stage(0).r);
  // Different planning modes never share a bucket even on equal shapes.
  auto d = a;
  auto req_d = request_for(d, 0.4, true, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_a) == service.make_key(req_d));
}

// --- staged keys (regression) -----------------------------------------------

TEST(PlannerService, KeyCoversEveryStagesFields) {
  // Regression: the cache key used to encode only the root stage's shape,
  // so two jobs differing only in their reduce stage hashed identically and
  // the second arrival was served the first one's plan. Every stage field
  // must enter the key.
  PlannerService service(service_config(CacheMode::kExact));
  auto base = make_spec(50, 20.0, 1.8, 240.0);
  base.add_reduce_stage(/*reduce_tasks=*/10, /*reduce_t_min=*/45.0,
                        /*reduce_beta=*/1.7, /*reduce_r=*/0);
  auto wider = make_spec(50, 20.0, 1.8, 240.0);
  wider.add_reduce_stage(/*reduce_tasks=*/25, /*reduce_t_min=*/45.0,
                         /*reduce_beta=*/1.7, /*reduce_r=*/0);
  auto slower = make_spec(50, 20.0, 1.8, 240.0);
  slower.add_reduce_stage(/*reduce_tasks=*/10, /*reduce_t_min=*/60.0,
                          /*reduce_beta=*/1.7, /*reduce_r=*/0);
  auto req_base =
      request_for(base, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_wider =
      request_for(wider, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_slower =
      request_for(slower, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_base) == service.make_key(req_wider));
  EXPECT_FALSE(service.make_key(req_base) == service.make_key(req_slower));
  // And through the service: the differing job must NOT hit base's entry.
  EXPECT_FALSE(service.plan(req_base).cache_hit);
  EXPECT_FALSE(service.plan(req_wider).cache_hit);
  EXPECT_FALSE(service.plan(req_slower).cache_hit);

  // The same holds at any width: seven-stage jobs differing only in stage
  // 6's shape never share a key or a plan.
  auto deep = make_spec(20, 20.0, 1.8, 900.0);
  for (int s = 0; s < 6; ++s) {
    deep.add_reduce_stage(6, 30.0, 1.6, 0);
  }
  auto deep_wider = deep;
  deep_wider.stage(6).num_tasks = 9;
  auto deep_slower = deep;
  deep_slower.stage(6).t_min = 33.0;
  auto req_deep =
      request_for(deep, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_deep_wider =
      request_for(deep_wider, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_deep_slower =
      request_for(deep_slower, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_deep) == service.make_key(req_deep_wider));
  EXPECT_FALSE(service.make_key(req_deep) ==
               service.make_key(req_deep_slower));
  EXPECT_FALSE(service.plan(req_deep).cache_hit);
  EXPECT_FALSE(service.plan(req_deep_wider).cache_hit);
  EXPECT_FALSE(service.plan(req_deep_slower).cache_hit);
}

TEST(PlannerService, KeyCoversStageWiring) {
  // Two three-stage jobs with identical stage shapes but different DAG
  // edges (chain vs fan-in from the root) must never share a plan.
  PlannerService service(service_config(CacheMode::kExact));
  auto chain = make_spec(20, 20.0, 1.8, 300.0);
  chain.add_reduce_stage(10, 40.0, 1.6, 0);
  chain.add_reduce_stage(5, 30.0, 1.5, 0);  // deps default: {1}
  auto fan = make_spec(20, 20.0, 1.8, 300.0);
  fan.add_reduce_stage(10, 40.0, 1.6, 0);
  fan.add_reduce_stage(5, 30.0, 1.5, 0);
  fan.stage(2).deps = {0};  // same shapes, different wiring
  auto req_chain =
      request_for(chain, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_fan =
      request_for(fan, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_chain) == service.make_key(req_fan));

  // A wiring difference deep in a wide DAG: stage 6 of a seven-stage chain
  // also fans in from the root. Keys differ, and the rewired job is
  // planned on its own rather than served the chain's plan.
  auto deep_chain = make_spec(20, 20.0, 1.8, 900.0);
  for (int s = 0; s < 6; ++s) {
    deep_chain.add_reduce_stage(6, 30.0, 1.6, 0);
  }
  auto deep_fan = deep_chain;
  deep_fan.stage(6).deps = {0, 5};
  auto req_deep_chain =
      request_for(deep_chain, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_deep_fan =
      request_for(deep_fan, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_deep_chain) ==
               service.make_key(req_deep_fan));
  EXPECT_FALSE(service.plan(req_deep_chain).cache_hit);
  EXPECT_FALSE(service.plan(req_deep_fan).cache_hit);
  EXPECT_TRUE(service.plan(req_deep_fan).cache_hit);
}

TEST(PlannerService, StagedExactHitsMatchStagedPlanning) {
  // A staged job through an exact-key service twice: the second pass is a
  // hit and every per-stage planned field equals the uncached
  // trace::plan + trace::apply output, bit for bit.
  PlannerService service(service_config(CacheMode::kExact));
  const trace::PlannerConfig planner = service.config().planner;
  auto cold = make_spec(40, 25.0, 1.4, 500.0);
  cold.add_reduce_stage(10, 45.0, 1.7);
  auto warm = cold;
  auto reference = cold;
  const PlanReply miss = service.plan(
      request_for(cold, 0.4, false, strategies::PolicyKind::kSResume));
  const PlanReply hit = service.plan(
      request_for(warm, 0.4, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  plan_uncached(reference, strategies::PolicyKind::kSResume, planner, 0.4);
  expect_same_plan(cold, reference);
  expect_same_plan(warm, reference);
  EXPECT_EQ(miss.r, reference.stage(0).r);
}

TEST(PlannerService, SixStageJobsAreCached) {
  // The key has no stage cap: a six-stage job misses once, is inserted, and
  // the repeat request is a hit bit-identical to uncached planning.
  PlannerService service(service_config(CacheMode::kExact));
  const trace::PlannerConfig planner = service.config().planner;
  auto spec = make_spec(8, 25.0, 1.4, 900.0);
  for (int s = 0; s < 5; ++s) {
    spec.add_reduce_stage(4, 30.0 + s, 1.5);
  }
  ASSERT_EQ(spec.num_stages(), 6);
  auto reference = spec;
  const trace::Plan expected = plan_uncached(
      reference, strategies::PolicyKind::kSResume, planner, 0.4);
  for (const bool hit : {false, true}) {
    auto copy = spec;
    const PlanReply reply = service.plan(
        request_for(copy, 0.4, false, strategies::PolicyKind::kSResume));
    EXPECT_EQ(reply.cache_hit, hit);
    EXPECT_EQ(reply.kind, expected.kind);
    EXPECT_EQ(reply.feasible, expected.feasible);
    expect_same_plan(copy, reference);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.cache_size, 1u);
}

// --- the lock-free table ----------------------------------------------------

TEST(PlanCacheTable, InsertFindRoundTrip) {
  PlanCache cache(64);
  const PlanKey key{{2, 1, 0, 0, 50, 123, 0, 0}};
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_TRUE(
      cache.insert(key, trace::Plan{strategies::PolicyKind::kClone, true, {3}}));
  const trace::Plan* found = cache.find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, strategies::PolicyKind::kClone);
  EXPECT_EQ(found->r, std::vector<long long>{3});
  EXPECT_TRUE(found->feasible);
  // Re-inserting the same key reports failure and keeps the first value.
  EXPECT_FALSE(cache.insert(
      key, trace::Plan{strategies::PolicyKind::kMantri, false, {9}}));
  EXPECT_EQ(cache.find(key)->r, std::vector<long long>{3});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTable, KeysOfDifferentLengthsNeverCollide) {
  // A key that is a prefix of another (or equal up to trailing zeros) is a
  // different key: the variable-length encoding compares whole vectors.
  PlanCache cache(64);
  const PlanKey short_key{{2, 1, 0, 0, 50, 123, 0, 0}};
  const PlanKey long_key{{2, 1, 0, 0, 50, 123, 0, 0, 0, 0, 0, 0}};
  EXPECT_TRUE(cache.insert(
      short_key, trace::Plan{strategies::PolicyKind::kClone, true, {1}}));
  EXPECT_EQ(cache.find(long_key), nullptr);
  EXPECT_TRUE(cache.insert(
      long_key, trace::Plan{strategies::PolicyKind::kClone, true, {2, 3}}));
  EXPECT_EQ(cache.find(short_key)->r, std::vector<long long>{1});
  EXPECT_EQ(cache.find(long_key)->r, (std::vector<long long>{2, 3}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTable, FullTableDropsInsertsButStaysCorrect) {
  PlanCache cache(1);  // a single slot: the second distinct key must drop
  const PlanKey a{{0, 1, 0, 0, 0, 1, 0, 0}};
  const PlanKey b{{0, 1, 0, 0, 0, 2, 0, 0}};
  EXPECT_TRUE(
      cache.insert(a, trace::Plan{strategies::PolicyKind::kClone, true, {1}}));
  EXPECT_FALSE(
      cache.insert(b, trace::Plan{strategies::PolicyKind::kClone, true, {2}}));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
}

TEST(PlannerService, TinyCacheStillPlansCorrectly) {
  // With a one-slot cache most inserts drop; every plan must still be
  // correct (computed fresh when it cannot be shared).
  PlannerServiceConfig config = service_config(CacheMode::kExact);
  config.cache.capacity = 1;
  PlannerService service(config);
  const trace::PlannerConfig planner = service.config().planner;
  for (const double deadline : {100.0, 110.0, 120.0, 130.0}) {
    auto spec = make_spec(50, 20.0, 1.8, deadline);
    auto reference = spec;
    service.plan(request_for(spec, 0.4, false,
                             strategies::PolicyKind::kSResume));
    plan_uncached(reference, strategies::PolicyKind::kSResume, planner, 0.4);
    expect_same_plan(spec, reference);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_size, 1u);
  EXPECT_GT(stats.drops, 0u);
}

TEST(PlanCacheConfigValidation, RejectsBadKnobs) {
  PlanCacheConfig bad_grid;
  bad_grid.mode = CacheMode::kQuantized;
  bad_grid.grid = 0.0;
  EXPECT_THROW(bad_grid.validate(), PreconditionError);
  bad_grid.grid = -0.5;
  EXPECT_THROW(bad_grid.validate(), PreconditionError);
  PlanCacheConfig bad_capacity;
  bad_capacity.mode = CacheMode::kExact;
  bad_capacity.capacity = 0;
  EXPECT_THROW(bad_capacity.validate(), PreconditionError);
  PlanCacheConfig off;  // off ignores the other knobs entirely
  off.capacity = 0;
  EXPECT_NO_THROW(off.validate());
}

TEST(PlanCacheConfigValidation, ServiceValidatesBeforeSizingTheTable) {
  // Regression: the service used to size its table before validating, and
  // rounding a capacity above 2^63 up to a power of two never terminated.
  PlannerServiceConfig config = service_config(CacheMode::kExact);
  config.cache.capacity = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(PlannerService{config}, PreconditionError);
}

// --- multi-threaded hammer (readers + inserters, ASan/UBSan in CI) ----------

TEST(PlannerServiceConcurrency, HammerReadersAndInserters) {
  // One shared exact-key service, 6 threads planning overlapping slices of
  // a 96-shape pool in different orders: early threads insert while late
  // ones read. Afterwards every plan must equal the uncached reference.
  PlannerService service(service_config(CacheMode::kExact));
  const trace::PlannerConfig planner = service.config().planner;
  constexpr int kShapes = 96;
  constexpr int kThreads = 6;
  constexpr int kRounds = 40;

  const auto shape_of = [](int s) {
    return make_spec(20 + (s % 7), 15.0 + s, 1.5 + 0.01 * (s % 11),
                     130.0 + 2.0 * s);
  };
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &shape_of, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int s = 0; s < kShapes; ++s) {
          const int shape = (s * (t + 1) + round) % kShapes;
          auto spec = shape_of(shape);
          PlanRequest request;
          request.spec = &spec;
          request.price = 0.25 + 0.005 * shape;
          request.auto_strategy = (shape % 2) == 0;
          request.policy = strategies::PolicyKind::kSResume;
          const PlanReply reply = service.plan(request);
          if (reply.r != spec.stage(0).r || spec.price != request.price) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kThreads) * kRounds * kShapes);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  // Every shape was eventually cached (the table is big enough) and every
  // cached plan equals the uncached reference.
  EXPECT_EQ(stats.cache_size, static_cast<std::size_t>(kShapes));
  for (int s = 0; s < kShapes; ++s) {
    auto spec = shape_of(s);
    auto reference = shape_of(s);
    PlanRequest request;
    request.spec = &spec;
    request.price = 0.25 + 0.005 * s;
    request.auto_strategy = (s % 2) == 0;
    request.policy = strategies::PolicyKind::kSResume;
    const PlanReply reply = service.plan(request);
    EXPECT_TRUE(reply.cache_hit) << s;
    if (request.auto_strategy) {
      const auto params = trace::to_job_params(
          reference, planner, core::Strategy::kSpeculativeResume);
      const auto econ =
          trace::to_economics(reference, planner, request.price);
      const auto best = core::optimize_all(params, econ, planner.optimizer);
      EXPECT_EQ(reply.kind, trace::policy_of(best.strategy)) << s;
      EXPECT_EQ(spec.stage(0).r, best.result.feasible ? best.result.r_opt : 1) << s;
    } else {
      plan_uncached(reference, request.policy, planner, request.price);
      expect_same_plan(spec, reference);
    }
  }
}

}  // namespace
}  // namespace chronos
