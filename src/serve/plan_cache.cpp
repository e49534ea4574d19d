#include "serve/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"

namespace chronos::serve {

namespace {

/// Longest probe sequence before an insert gives up. Bounds both the miss
/// cost on a crowded table and the clustering a full table can build up.
constexpr std::size_t kProbeWindow = 32;

}  // namespace

void PlanCacheConfig::validate() const {
  if (mode == CacheMode::kQuantized) {
    CHRONOS_EXPECTS(std::isfinite(grid) && grid > 0.0,
                    "plan cache quantization grid must be positive and finite");
  }
  if (mode != CacheMode::kOff) {
    CHRONOS_EXPECTS(capacity >= 1 && capacity <= (std::size_t{1} << 26),
                    "plan cache capacity must lie in [1, 2^26]");
  }
}

std::int64_t quantize_bucket(double value, double grid) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    return std::bit_cast<std::int64_t>(value);
  }
  return static_cast<std::int64_t>(
      std::floor(std::log(value) / std::log1p(grid)));
}

std::uint64_t hash_key(const PlanKey& key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint64_t word : key.words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

PlanCache::PlanCache(std::size_t capacity) {
  std::size_t slots = 1;
  while (slots < capacity) {
    slots <<= 1;
  }
  slots_ = std::vector<std::atomic<Entry*>>(slots);
  mask_ = slots - 1;
}

PlanCache::~PlanCache() {
  for (auto& slot : slots_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

const trace::Plan* PlanCache::find(const PlanKey& key) const {
  const std::uint64_t hash = hash_key(key);
  const std::size_t window = std::min(kProbeWindow, slots_.size());
  for (std::size_t probe = 0; probe < window; ++probe) {
    const Entry* entry =
        slots_[(hash + probe) & mask_].load(std::memory_order_acquire);
    if (entry == nullptr) {
      return nullptr;  // inserts fill the first empty slot: key is absent
    }
    if (entry->key == key) {
      return &entry->plan;
    }
  }
  return nullptr;
}

bool PlanCache::insert(const PlanKey& key, const trace::Plan& plan) {
  const std::uint64_t hash = hash_key(key);
  const std::size_t window = std::min(kProbeWindow, slots_.size());
  Entry* fresh = nullptr;
  for (std::size_t probe = 0; probe < window; ++probe) {
    auto& slot = slots_[(hash + probe) & mask_];
    Entry* current = slot.load(std::memory_order_acquire);
    if (current == nullptr) {
      if (fresh == nullptr) {
        fresh = new Entry{key, plan};
      }
      Entry* expected = nullptr;
      if (slot.compare_exchange_strong(expected, fresh,
                                       std::memory_order_release,
                                       std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      current = expected;  // lost the race; inspect the winner's entry
    }
    if (current->key == key) {
      delete fresh;
      return false;
    }
  }
  delete fresh;
  return false;  // probe window exhausted around this hash
}

}  // namespace chronos::serve
