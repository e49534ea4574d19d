// Quantized-key plan cache for the planning service (ROADMAP
// "planner-as-a-service" item).
//
// A plan (trace::Plan) is a pure function of the planning inputs (job
// shape, deadline, spot price, policy-or-auto) under a fixed PlannerConfig,
// so a long-running front-end can memoize it. The cache key is those inputs
// either bit-exact (kExact: a hit is only ever served for bit-identical
// inputs, so cached planning is byte-identical to uncached planning) or
// snapped to a geometric grid (kQuantized: continuous inputs within one
// relative bucket share a plan, trading optimality slack bounded by the
// grid width for hit rate).
//
// The table is a fixed-capacity open-addressed array of atomically
// published, immutable entries:
//
//   read    linear probe of acquire-loads; stops at the first empty slot
//           (entries are never deleted, so an empty slot proves absence
//           along the probe path). No locks, no reference counting.
//   insert  allocate the entry, CAS it into the first empty slot
//           (release). Losing a race to the same key drops the duplicate.
//   full    when the probe window is exhausted the insert is dropped and
//           the caller's freshly computed plan is simply not shared —
//           planning stays correct, only the hit rate suffers.
//
// Entries (each owning its heap-allocated key and per-stage r vector) live
// until the cache is destroyed; there is no eviction and thus no
// reclamation problem for concurrent readers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/planner.h"

namespace chronos::serve {

enum class CacheMode {
  kOff,       ///< no caching: every request is planned from scratch
  kExact,     ///< keys compare bit-exact: hits are byte-identical plans
  kQuantized  ///< continuous key fields snapped to a geometric grid
};

/// Configuration of the plan cache attached to a PlannerService.
struct PlanCacheConfig {
  CacheMode mode = CacheMode::kOff;

  /// Relative bucket width for kQuantized: values x, y land in the same
  /// bucket when floor(log(x)/log1p(grid)) == floor(log(y)/log1p(grid)),
  /// i.e. buckets are powers of (1 + grid) and any two values in one
  /// bucket differ by less than a factor of (1 + grid).
  double grid = 0.0;

  /// Slot count, rounded up to a power of two. The cache never grows; once
  /// a probe window is full further distinct keys are planned uncached.
  std::size_t capacity = std::size_t{1} << 16;

  void validate() const;
};

/// Geometric bucket index of a positive finite value on a (1 + grid)
/// ratio grid. Non-positive / non-finite values (which the planner rejects
/// anyway) fall back to their bit pattern so distinct oddballs never
/// collide.
std::int64_t quantize_bucket(double value, double grid);

/// Canonical cache key: every planning input the plan depends on, as
/// integer words — bit patterns in kExact mode, bucket indices (for the
/// continuous fields) in kQuantized mode. Layout:
///
///   mode, stage count, deadline, price,
///   then per stage: num_tasks, t_min, beta, and the stage's resolved
///   predecessor set as a bitmask over stage indices, ceil(stages / 64)
///   words wide.
///
/// The stage count fixes the layout, so two specs differing in ANY stage —
/// shape or wiring — never share a key, at any width. PlannerConfig knobs
/// (theta, the tau factors, optimizer options) are deliberately absent:
/// they are fixed for the lifetime of a PlannerService.
struct PlanKey {
  std::vector<std::uint64_t> words;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// PlanKey mode word for auto-strategy (optimize_all) requests; fixed
/// policies use their PolicyKind ordinal (0..5).
inline constexpr std::uint64_t kAutoMode = 6;

/// FNV-1a over the key's words.
std::uint64_t hash_key(const PlanKey& key);

/// Fixed-capacity open-addressed hash table with lock-free reads and
/// CAS-published inserts (see file comment). Thread-safe for any mix of
/// concurrent find/insert callers.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Lock-free lookup; nullptr when absent. The returned pointer stays
  /// valid until the cache is destroyed.
  const trace::Plan* find(const PlanKey& key) const;

  /// Publishes `plan` under `key`. Returns false when the key was already
  /// present (another thread won the race) or the probe window around the
  /// key's hash is full; the cache is unchanged in either case.
  bool insert(const PlanKey& key, const trace::Plan& plan);

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Entry {
    PlanKey key;
    trace::Plan plan;
  };

  std::vector<std::atomic<Entry*>> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> size_{0};
};

}  // namespace chronos::serve
