// Helpers shared by the manifest-driven workloads (sweep_fig3,
// fabric_cells): seeded manifest loading, instrumented sweep hooks, a
// replay of the cells' planning through serve::PlannerService, and
// job-weighted totals over finished cells.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "exp/aggregate.h"
#include "exp/manifest.h"
#include "exp/sweep.h"

namespace e2e {

/// A manifest with its seeds taken from the benchmark seed, plus
/// everything derived from it.
struct LoadedManifest {
  chronos::exp::Manifest manifest;
  chronos::exp::SweepHooks hooks;
  std::string salt;
  std::string fingerprint;
  double load_s = 0.0;  ///< load_manifest alone
};

/// Loads `path` and derives the sweep's master seed (every replication
/// stream) from `seed`. The trace template keeps the manifest's own seed,
/// so every benchmark seed sweeps the same jobs and wall time does not
/// swing with the trace's heavy-tailed task counts.
LoadedManifest load_seeded(const std::string& path, std::uint64_t seed);

/// What the instrumented hooks observed. Per-cell first-call times feed the
/// fabric's cell round-trip times; the recorded points and planned decisions
/// feed the plan replay.
class HookProbe {
 public:
  explicit HookProbe(std::size_t num_cells);

  /// Wraps `inner` so every setup/run call is timed, traced
  /// ("exp.cell_setup" / "exp.cell_run" spans) and stamped.
  chronos::exp::SweepHooks instrument(const chronos::exp::SweepHooks& inner);

  /// Clears the per-cell first-call stamps (between measured units).
  void reset_stamps();

  /// Steady-clock ns of the first hook call for `cell` since the last
  /// reset, or 0.
  std::uint64_t first_call_ns(std::size_t cell) const {
    return first_ns_[cell].load(std::memory_order_acquire);
  }

  double setup_seconds() const {
    return static_cast<double>(setup_ns_.load()) * 1e-9;
  }
  std::uint64_t setup_calls() const { return setup_calls_.load(); }

  /// Points and planned-decision fingerprints recorded by setup calls.
  std::map<std::size_t, chronos::exp::SweepPoint> points() const;
  std::map<std::size_t, std::string> plans() const;

 private:
  void stamp(std::size_t cell);

  std::size_t num_cells_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> first_ns_;
  std::atomic<std::uint64_t> setup_ns_{0};
  std::atomic<std::uint64_t> setup_calls_{0};
  mutable std::mutex mu_;
  std::map<std::size_t, chronos::exp::SweepPoint> points_;  // guarded by mu_
  std::map<std::size_t, std::string> plans_;                // guarded by mu_
};

/// Fingerprint of a planned trace's decisions (per stage r and timers).
std::string plan_fingerprint(const chronos::exp::SharedCell& shared);

/// The cells' planning replayed through a PlannerService (cache off, the
/// cell's theta and policy), timed per request. Advanced a few cells at a
/// time between measured units; every pass covers every recorded cell.
class CellReplay {
 public:
  using Plans = std::map<std::size_t, std::string>;  ///< plan_fingerprint

  CellReplay(const chronos::exp::Manifest& manifest,
             std::map<std::size_t, chronos::exp::SweepPoint> points);

  /// Replays the next `cells` cells, wrapping into a new pass.
  void advance(std::size_t cells);
  /// Runs until `passes` full passes are complete.
  void finish(std::size_t passes);

  const Samples& latency_us() const { return latency_us_; }
  const std::vector<Plans>& passes() const { return passes_; }

 private:
  void step();

  const chronos::exp::Manifest& manifest_;
  const std::map<std::size_t, chronos::exp::SweepPoint> points_;
  std::map<std::size_t, chronos::exp::SweepPoint>::const_iterator next_;
  Plans current_;
  std::vector<Plans> passes_;
  Samples latency_us_;
};

/// The side work of a manifest workload, interleaved with its units:
/// repeated set-ups (load_seeded) and, once the first unit has set up every
/// cell, slices of the cells' plan replay.
class ManifestSide {
 public:
  ManifestSide(std::string path, std::uint64_t seed,
               const LoadedManifest& loaded, const HookProbe& probe);

  /// One slice; call before unit `rep`.
  void operator()(int rep);

  /// Tops the set-up sample up to its minimum, completes two replay passes
  /// and checks them: every cell was set up, the replay reproduces the
  /// setup hook's plans, both passes agree, p99 has 10 samples beyond.
  void finish(Checks& checks);

  const Samples& setup_s() const { return setup_s_; }
  const Samples& load_ms() const { return load_ms_; }
  const Samples& latency_us() const { return replay_->latency_us(); }
  /// Fingerprint of the first pass's plans, for the determinism line.
  std::string plans_fingerprint() const;

 private:
  void set_up();

  std::string path_;
  std::uint64_t seed_;
  const LoadedManifest& loaded_;
  const HookProbe& probe_;
  Samples setup_s_;
  Samples load_ms_;
  std::unique_ptr<CellReplay> replay_;
};

/// Job-weighted totals over finished cells.
struct CellTotals {
  double jobs = 0.0;
  double events = 0.0;
  double pocd = 0.0;  ///< job-weighted mean of the cells' mean PoCD
  double cost = 0.0;  ///< job-weighted mean of the cells' mean cost per job
  double attempts = 0.0;
  double killed = 0.0;
  double runs = 0.0;
};
CellTotals totals(const std::map<std::size_t, chronos::exp::CellAggregate>&
                      cells);
CellTotals totals(const chronos::exp::SweepResult& result);

}  // namespace e2e
