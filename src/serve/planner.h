// Planner-as-a-service: Algorithm 1 behind a request boundary (ROADMAP
// "planner-as-a-service" item; the nimbus controller/worker split is the
// exemplar shape — the planning brain is separate from execution even
// while transport stays in-process).
//
// A request is the paper's per-job planning problem — a job spec, its spot
// price and policy-or-auto; theta and the tau factors are fixed per
// service — and the reply is the plan: which policy runs the job and with
// how many extra attempts r per stage. The service is only a cache around
// trace::plan():
//
//   key -> find -> on a miss trace::plan() + insert -> trace::apply()
//
// The PlanCache (exact or quantized keys, any stage count; see
// plan_cache.h) stores the decision only. trace::apply() derives the
// spec's price and tau timers from the request itself on every reply, so a
// cache hit can never leak another arrival's price clock.
//
// Thread safety: plan() may be called concurrently from any number of
// threads (lock-free cache reads, CAS-published inserts, relaxed stat
// counters). The PlannerConfig is fixed at construction — a config change
// is a new service (and thus an empty cache).
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/plan_cache.h"
#include "trace/planner.h"

namespace chronos::serve {

/// Everything a PlannerService holds fixed across requests.
struct PlannerServiceConfig {
  trace::PlannerConfig planner;
  PlanCacheConfig cache;
};

/// One planning request. `spec` supplies the job shape (the stage vector
/// plus deadline) and receives the plan (price, and per stage tau_est /
/// tau_kill / r).
struct PlanRequest {
  mapreduce::JobSpec* spec = nullptr;

  /// Spot price on the caller's clock — for an open-system arrival, the
  /// price at the arrival time, never trace-generation or retry time.
  double price = 1.0;

  /// On: pick the best of Clone / S-Restart / S-Resume via optimize_all.
  /// Off: plan under `policy`.
  bool auto_strategy = false;
  strategies::PolicyKind policy = strategies::PolicyKind::kSResume;
};

struct PlanReply {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  long long r = 0;  ///< stage-0 extra attempts (full plan is in the spec)
  bool feasible = false;
  bool cache_hit = false;
};

/// Monotone service counters (also exported as serve.* obs metrics).
struct PlannerServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t drops = 0;  ///< insert lost a race or the table was full
  std::size_t cache_size = 0;
};

class PlannerService {
 public:
  /// Validates the cache config before sizing the table.
  explicit PlannerService(PlannerServiceConfig config);

  /// Plans one request in place: fills spec.price / tau_est / tau_kill / r
  /// and returns the decision. With the cache off (or on a miss) this is
  /// trace::apply(trace::plan(...)); an exact-mode hit replays a plan
  /// computed from bit-identical inputs and is therefore byte-identical
  /// too.
  PlanReply plan(const PlanRequest& request);

  const PlannerServiceConfig& config() const { return config_; }
  PlannerServiceStats stats() const;

  /// The cache key a request would be filed under (exposed for tests of
  /// the quantization-boundary behavior).
  PlanKey make_key(const PlanRequest& request) const;

 private:
  PlannerServiceConfig config_;
  PlanCache cache_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> drops_{0};
};

}  // namespace chronos::serve
