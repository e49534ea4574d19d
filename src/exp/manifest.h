// Sweep manifests: experiment grids as config files instead of binaries.
//
// A manifest is a small INI-subset file (no external dependencies) that
// declares everything tools/sweeprun needs to run a grid: the axes,
// policies, replication policy (fixed or adaptive), the synthetic-trace,
// stage, planner and arrival templates that build each cell, and where the
// reports and the checkpoint journal go. manifests/*.ini are examples.
//
// Every key is one row of the field table (manifest_sections(), defined
// in manifest.cpp): that row drives parsing, range checks, the journal
// salt and README's "Manifest key reference", which lists each default.
//
// Syntax: "[section]" headers, "key = value" pairs, "#"/";" full-line
// comments plus "#" inline comments, comma-separated lists, double quotes
// around list items that contain commas. Parsing is locale-independent and
// every error names the offending line.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.h"
#include "serve/plan_cache.h"
#include "trace/arrivals.h"
#include "trace/google_trace.h"

namespace chronos::exp {

/// A manifest value that is either a fixed number or bound to an axis
/// ("@theta"): bound fields resolve to the cell's coordinate on that axis.
struct Binding {
  double fixed = 0.0;
  std::string axis;  ///< non-empty = bound

  bool bound() const { return !axis.empty(); }
  double resolve(const SweepPoint& point) const {
    return bound() ? point.value(axis) : fixed;
  }
};

/// Where the utility baseline R_min comes from when utility reporting is on.
enum class RMinMode {
  kBaseline,  ///< mean no-speculation PoCD of the cell's (unplanned) trace
  kFixed,     ///< the manifest's literal value
};

struct ManifestOutputs {
  std::string csv;      ///< empty = no CSV file
  std::string json;     ///< empty = no JSON file
  std::string journal;  ///< empty = no checkpoint journal
  bool table = true;    ///< print the fixed-width table to stdout
};

/// Optional [arrivals] section: switches the sweep's cells from replaying
/// the closed [trace] workload to running the open-system engine
/// (sim/open_system.h). The [trace] section still supplies the per-job
/// shape template; num_jobs/duration_hours/seed of [trace] are unused.
/// With [arrivals], `r_min = baseline` is rejected: the baseline PoCD of a
/// pre-generated trace is a closed-system property; utility sweeps must
/// give a numeric r_min.
struct ManifestArrivals {
  trace::ArrivalSpec spec;  ///< rate overwritten per cell when bound
  Binding rate{.fixed = 0.1, .axis = {}};
  std::string file;  ///< kind = trace: source path (times pre-loaded)
  double duration_hours = 1.0;
  double warm_up_hours = 0.0;
  bool drain = true;
  bool auto_strategy = false;
  serve::PlanCacheConfig plan_cache;  ///< default: mode off
  bool admission_enabled = true;
  double degrade_headroom = 1.0;
  double reject_queue_factor = 4.0;
  std::optional<Binding> nodes;  ///< unset = preset cluster
  int containers = 8;

  /// Optional speed-class split of the explicit cluster: the first
  /// round(slow_fraction * nodes) nodes run at slow_speed, the rest at 1.0.
  /// Requires `nodes`; slow_fraction is axis-bindable so a sweep can walk
  /// the heterogeneity axis.
  std::optional<Binding> slow_fraction;
  double slow_speed = 0.5;
};

/// One [stage.N] section (N = 1, 2, ... contiguous): a deterministic stage
/// template appended after the sampled root stage, so every job of the cell
/// becomes an (N+1)-stage DAG. Shape fields are axis-bindable; `deps` lists
/// predecessor stage indices in final job numbering (0 = the sampled root),
/// empty meaning a barrier on the previous stage.
struct ManifestStage {
  Binding tasks{.fixed = 1.0, .axis = {}};
  Binding t_min{.fixed = 1.0, .axis = {}};
  Binding beta{.fixed = 1.5, .axis = {}};
  std::vector<int> deps;
};

/// Optional [shard] section: defaults for process-level sharding, so a
/// cluster recipe ("run shard i/N on machine i, then merge") lives in the
/// manifest instead of every machine's command line. Never part of the
/// journal fingerprint — how a grid is split across processes must not
/// change its numbers.
struct ManifestShard {
  int count = 0;          ///< default shard count; 0 = unsharded
  std::string dir = "."; ///< shared directory for the per-shard journals
};

/// Everything a manifest declares. `spec` is fully validated; the remaining
/// fields parameterize the cell factory that make_hooks builds.
struct Manifest {
  SweepSpec spec;

  trace::TraceConfig trace;  ///< fixed trace-template fields
  std::optional<Binding> trace_beta;  ///< sets beta_lo = beta_hi per cell
  std::optional<Binding> trace_deadline_factor;  ///< sets factor lo = hi

  /// [stage.N] templates, in section order (stages[0] is [stage.1], the
  /// job's stage 1). Empty = single-stage jobs (the historical workload).
  std::vector<ManifestStage> stages;

  Binding planner_theta{.fixed = 1e-4, .axis = {}};
  std::optional<Binding> planner_tau_est_factor;
  std::optional<Binding> planner_tau_kill_factor;

  bool cluster_testbed = false;  ///< testbed vs large_scale harness config
  bool report_utility = false;
  RMinMode r_min_mode = RMinMode::kBaseline;
  double r_min_fixed = 0.0;
  double r_min_offset = 0.0;  ///< added to R_min (clamped at 0), cf. fig4

  ManifestOutputs outputs;
  ManifestShard shard;
  std::optional<ManifestArrivals> arrivals;  ///< open-system sweep when set
};

/// Parses manifest text. Throws PreconditionError with a line-numbered
/// message on any syntax or semantic problem (unknown section/key, bad
/// number, binding to a missing axis, ...).
Manifest parse_manifest(const std::string& text);

/// Reads and parses a manifest file.
Manifest load_manifest(const std::string& path);

/// Builds the sweep hooks a manifest describes: a setup hook that generates
/// and plans each cell's trace once (resolving axis bindings, computing the
/// baseline R_min when asked) and a runner that wires the shared trace into
/// every replication.
SweepHooks make_hooks(const Manifest& manifest);

/// Canonical encoding of everything outside the SweepSpec that changes a
/// manifest sweep's numbers: every SaltClass::kSalted field of the table,
/// encoded from the parsed Manifest (output paths and [shard] never enter
/// it). Pass it as SweepOptions::journal_salt so that editing those
/// sections invalidates an existing journal instead of silently resuming
/// from results of the old configuration.
std::string manifest_journal_salt(const Manifest& manifest);

// --- the field table -------------------------------------------------------

/// How a field feeds a journal's fingerprint.
enum class SaltClass : std::uint8_t {
  kSalted,       ///< encoded by manifest_journal_salt
  kFingerprint,  ///< in spec_fingerprint ([sweep], [axis.*], [adaptive])
  kNever,        ///< cannot change a sweep's numbers ([output], [shard])
};

/// How a field's value is spelled; the destination's type picks it.
enum class FieldKind : std::uint8_t {
  kInt,              ///< integer, range-checked to [lo, hi]
  kUint64,           ///< unsigned 64-bit integer
  kDouble,           ///< number, then `check`
  kBool,             ///< on/off, true/false, yes/no, 1/0
  kString,           ///< raw text, then `check`
  kEnum,             ///< one of `names`
  kBinding,          ///< number (then `check`) or "@axis"; may be optional
  kCustom,           ///< the field's own parse/encode pair
};

/// Predicate on one parsed value (on a binding only when it is fixed).
enum class FieldCheck : std::uint8_t {
  kNone,
  kPositive,      ///< finite and > 0
  kUnitInterval,  ///< in [0, 1]
  kAtLeastOne,    ///< finite and >= 1
  kAboveOne,      ///< finite and > 1
  kNonEmpty,      ///< non-empty text
};

/// What a field's parser sees of its line (defined in manifest.cpp).
struct FieldInput;

struct EnumName {
  std::string_view name;
  int value;
};

/// One manifest key: how it parses, checks, defaults and encodes.
struct ManifestField {
  std::string_view key;
  FieldKind kind;
  std::string_view fallback;  ///< value when absent, "required", or empty
  FieldCheck check;
  long long lo, hi;                 ///< kInt bounds
  std::span<const EnumName> names;  ///< kEnum spellings
  /// Parses `in` into the field of `object` (its section's instance).
  void (*parse)(const ManifestField& field, const FieldInput& in,
                void* object);
  /// Appends the field's canonical value (may be nullptr outside kSalted).
  void (*encode)(const ManifestField& field, std::string& out, void* object);

  bool required() const { return fallback == "required"; }
};

/// One section of a manifest and its keys. A heading with a "<...>" suffix
/// ("axis.<name>", "stage.<N>") is a repeated section matched by prefix.
struct ManifestSection {
  std::string_view heading;
  SaltClass salt;
  /// The section's i-th instance inside a Manifest, or nullptr past the
  /// last one (absent optional sections have none).
  void* (*object)(Manifest& manifest, std::size_t i);
  std::span<const ManifestField> fields;

  std::string_view prefix() const {
    return heading.substr(0, heading.find('<'));
  }
  bool repeated() const { return prefix().size() != heading.size(); }
};

/// Every manifest section, in parse order (README order).
std::span<const ManifestSection> manifest_sections();

}  // namespace chronos::exp
