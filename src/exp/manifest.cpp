#include "exp/manifest.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/numeric.h"
#include "core/pocd.h"
#include "sim/open_system.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace chronos::exp {

struct FieldInput {
  std::string_view section;  ///< the section's name in the file
  std::size_t instance = 0;  ///< of a repeated section: 0 for the first
  std::string_view value;
  int line = 0;
  const std::vector<Axis>* axes = nullptr;  ///< for "@axis" bindings
};

namespace {

using enum FieldCheck;

[[noreturn]] void fail(int line, const std::string& message) {
  CHRONOS_EXPECTS(false,
                  "manifest line " + std::to_string(line) + ": " + message);
}

std::string_view trim(std::string_view text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) {
    return {};
  }
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

/// Strips a '#' comment that sits outside double quotes.
std::string_view strip_inline_comment(std::string_view text) {
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      quoted = !quoted;
    } else if (text[i] == '#' && !quoted) {
      return text.substr(0, i);
    }
  }
  return text;
}

/// Views into the manifest text, which outlives the parse.
struct IniEntry {
  std::string_view key;
  std::string_view value;
  int line = 0;
};

struct IniSection {
  std::string_view name;
  int line = 0;
  std::vector<IniEntry> entries;  ///< in file order
  bool known = false;  ///< a table section matched this name
};

const IniEntry* entry_of(const IniSection& section, std::string_view key) {
  const auto it = std::ranges::find(section.entries, key, &IniEntry::key);
  return it == section.entries.end() ? nullptr : &*it;
}

std::vector<IniSection> parse_ini(std::string_view text) {
  std::vector<IniSection> sections;
  int line_number = 0;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t end = std::min(text.find('\n', at), text.size());
    const std::string_view line =
        trim(strip_inline_comment(text.substr(at, end - at)));
    at = end + 1;
    ++line_number;
    if (line.empty() || line.front() == ';') {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        fail(line_number,
             "malformed section header '" + std::string(line) + "'");
      }
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        fail(line_number, "empty section name");
      }
      if (std::ranges::find(sections, name, &IniSection::name) !=
          sections.end()) {
        fail(line_number, "duplicate section [" + std::string(name) + "]");
      }
      IniSection& section = sections.emplace_back();
      section.name = name;
      section.line = line_number;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_number,
           "expected 'key = value', got '" + std::string(line) + "'");
    }
    if (sections.empty()) {
      fail(line_number, "key outside any [section]");
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (key.empty()) {
      fail(line_number, "empty key");
    }
    IniSection& section = sections.back();
    if (const IniEntry* first = entry_of(section, key)) {
      fail(line_number, "duplicate key '" + std::string(key) + "' in [" +
                            std::string(section.name) + "] (first on line " +
                            std::to_string(first->line) + ")");
    }
    section.entries.push_back(
        {.key = key, .value = trim(line.substr(eq + 1)), .line = line_number});
  }
  return sections;
}

/// Comma-separated list; double quotes protect commas inside an item.
std::vector<std::string> split_list(std::string_view value, int line) {
  std::vector<std::string> items;
  std::string current;
  bool quoted = false;
  bool had_quotes = false;
  const auto push = [&] {
    std::string item = had_quotes ? current : std::string(trim(current));
    if (item.empty() && !had_quotes) {
      fail(line, "empty list item");
    }
    items.push_back(std::move(item));
    current.clear();
    had_quotes = false;
  };
  for (const char c : value) {
    if (c == '"') {
      if (had_quotes && !quoted) {
        fail(line, "unexpected text after closing quote in list");
      }
      quoted = !quoted;
      had_quotes = true;
    } else if (c == ',' && !quoted) {
      push();
    } else if (!had_quotes || quoted) {
      current += c;
    } else if (c != ' ' && c != '\t') {
      // Silently dropping stray characters would hide typos; every other
      // manifest mistake fails loudly, so this one does too.
      fail(line, "unexpected text after closing quote in list");
    }
  }
  if (quoted) {
    fail(line, "unterminated quote in list");
  }
  if (!trim(current).empty() || had_quotes) {
    push();
  }
  if (items.empty()) {
    fail(line, "empty list");
  }
  return items;
}

/// Exact integer parse of the whole text (from_chars, never via double: a
/// double round trip would silently round values above 2^53).
template <typename T>
bool parse_exact(std::string_view text, T& out) {
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
  }
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return !text.empty() && result.ec == std::errc() &&
         result.ptr == text.data() + text.size();
}

// --- field parsing and encoding -------------------------------------------

/// "<section> <key> <rule>, got '<value>'".
[[noreturn]] void reject(const ManifestField& field, const FieldInput& in,
                         std::string_view rule) {
  fail(in.line, std::string(in.section) + " " + std::string(field.key) + " " +
                    std::string(rule) + ", got '" + std::string(in.value) +
                    "'");
}

void check(const ManifestField& field, const FieldInput& in, double v) {
  const bool finite = std::isfinite(v);
  const std::string_view broken =
      field.check == kPositive && !(finite && v > 0.0)
          ? "must be positive and finite"
      : field.check == kUnitInterval && !(v >= 0.0 && v <= 1.0)
          ? "must lie in [0, 1]"
      : field.check == kAtLeastOne && !(finite && v >= 1.0) ? "must be >= 1"
      : field.check == kAboveOne && !(finite && v > 1.0)
          ? "must exceed 1 (finite mean)"
          : "";
  if (!broken.empty()) {
    reject(field, in, broken);
  }
}

int parse_enum(const ManifestField& field, const FieldInput& in) {
  std::string rule = "must be ";
  for (std::size_t i = 0; i < field.names.size(); ++i) {
    if (field.names[i].name == in.value) {
      return field.names[i].value;
    }
    rule += i == 0 ? "'" : i + 1 == field.names.size() ? " or '" : ", '";
    rule += field.names[i].name;
    rule += "'";
  }
  reject(field, in, rule);
}

/// Parses `in` into `out`, whose type picks the syntax.
template <typename V>
void parse_value(const ManifestField& field, const FieldInput& in, V& out) {
  const std::string_view v = in.value;
  if constexpr (std::is_same_v<V, std::optional<Binding>>) {
    parse_value(field, in, out.emplace());
  } else if constexpr (std::is_same_v<V, Binding>) {
    // "@axis" binds to that axis; anything else must be a number.
    out = Binding{};
    if (v.starts_with('@')) {
      out.axis = v.substr(1);
      if (std::none_of(in.axes->begin(), in.axes->end(),
                       [&](const Axis& a) { return a.name == out.axis; })) {
        fail(in.line,
             "'" + std::string(v) + "' binds to an axis that does not exist");
      }
      return;
    }
    if (!numeric::parse_double(v, out.fixed)) {
      fail(in.line, "'" + std::string(v) +
                        "' is neither a number nor an '@axis' binding");
    }
    check(field, in, out.fixed);
  } else if constexpr (std::is_same_v<V, std::string>) {
    if (field.check == kNonEmpty && v.empty()) {
      reject(field, in, "must not be empty");
    }
    out = v;
  } else if constexpr (std::is_enum_v<V>) {
    out = static_cast<V>(parse_enum(field, in));
  } else if constexpr (std::is_same_v<V, bool>) {
    if (field.kind == FieldKind::kEnum) {
      out = parse_enum(field, in) != 0;
    } else if (v == "on" || v == "true" || v == "yes" || v == "1") {
      out = true;
    } else if (v == "off" || v == "false" || v == "no" || v == "0") {
      out = false;
    } else {
      reject(field, in, "is not a boolean (on/off/true/false)");
    }
  } else if constexpr (std::is_same_v<V, double>) {
    if (!numeric::parse_double(v, out)) {
      reject(field, in, "is not a number");
    }
    check(field, in, out);
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    if (!parse_exact(v, out)) {
      reject(field, in, "is not an unsigned integer");
    }
  } else {
    static_assert(std::is_same_v<V, int>, "no manifest syntax for V");
    long long parsed = 0;
    if (!parse_exact(v, parsed)) {
      reject(field, in, "is not an integer");
    }
    // Range-checked before narrowing: a value beyond the destination must
    // fail, not wrap into a different (valid-looking) number.
    if (parsed < field.lo || parsed > field.hi) {
      reject(field, in,
             "must be >= " + std::to_string(field.lo) + " and <= " +
                 std::to_string(field.hi));
    }
    out = static_cast<int>(parsed);
  }
}

/// Appends `v` in the canonical form of the syntax parse_value reads.
template <typename V>
void encode_value(const ManifestField& field, std::string& out, const V& v) {
  if constexpr (std::is_same_v<V, std::optional<Binding>>) {
    if (v.has_value()) {
      encode_value(field, out, *v);
    } else {
      out += "unset";
    }
  } else if constexpr (std::is_same_v<V, Binding>) {
    out += v.bound() ? "@" + v.axis : numeric::format_double(v.fixed);
  } else if constexpr (std::is_same_v<V, std::string>) {
    out += v;
  } else if constexpr (std::is_same_v<V, double>) {
    out += numeric::format_double(v);
  } else if constexpr (std::is_enum_v<V> || std::is_same_v<V, bool>) {
    const int value = static_cast<int>(v);
    if (field.kind != FieldKind::kEnum) {
      out += value != 0 ? "on" : "off";
    }
    for (const EnumName& name : field.names) {
      if (name.value == value) {
        out += name.name;
      }
    }
  } else {
    static_assert(std::is_integral_v<V>, "no manifest syntax for V");
    out += std::to_string(v);
  }
}

/// The class owning a member pointer (for decltype only).
template <typename C, typename V>
C* owner(V C::*);

/// `object.*First.*Rest...`.
template <auto First, auto... Rest, typename T>
auto& member(T& object) {
  if constexpr (sizeof...(Rest) == 0) {
    return object.*First;
  } else {
    return member<Rest...>(object.*First);
  }
}

/// The field at `First, Rest...` of a section instance.
template <auto First, auto... Rest>
auto& field_at(void* object) {
  return member<First, Rest...>(*static_cast<decltype(owner(First))>(object));
}

template <auto... Path>
using ValueAt = std::remove_reference_t<decltype(field_at<Path...>(nullptr))>;

template <auto... Path>
void parse_field(const ManifestField& field, const FieldInput& in,
                 void* object) {
  parse_value(field, in, field_at<Path...>(object));
}

template <auto... Path>
void encode_field(const ManifestField& field, std::string& out,
                  void* object) {
  encode_value(field, out, field_at<Path...>(object));
}

template <typename V>
constexpr FieldKind kKindOf =
    std::is_same_v<V, int>             ? FieldKind::kInt
    : std::is_same_v<V, std::uint64_t> ? FieldKind::kUint64
    : std::is_same_v<V, double>        ? FieldKind::kDouble
    : std::is_same_v<V, bool>          ? FieldKind::kBool
    : std::is_same_v<V, std::string>   ? FieldKind::kString
    : std::is_enum_v<V>                ? FieldKind::kEnum
                                       : FieldKind::kBinding;

/// A table row at `Path...` inside its section's instance: the
/// destination's type picks the kind and the parse/encode pair, and an int
/// is range-checked to the destination. `names` make it an enum.
template <auto... Path>
constexpr ManifestField field(std::string_view key, std::string_view fallback,
                              FieldCheck check = kNone,
                              std::span<const EnumName> names = {}) {
  return {key, names.empty() ? kKindOf<ValueAt<Path...>> : FieldKind::kEnum,
          fallback, check, std::numeric_limits<int>::min(),
          std::numeric_limits<int>::max(), names, &parse_field<Path...>,
          &encode_field<Path...>};
}

constexpr ManifestField custom(
    std::string_view key, std::string_view fallback,
    void (*parse)(const ManifestField&, const FieldInput&, void*),
    void (*encode)(const ManifestField&, std::string&, void*)) {
  return {key, FieldKind::kCustom, fallback, kNone, 0, 0, {}, parse, encode};
}

constexpr ManifestField bounded(ManifestField row, long long lo,
                                long long hi) {
  row.lo = lo;
  row.hi = hi;
  return row;
}

// --- custom fields -----------------------------------------------------------

void parse_policies(const ManifestField&, const FieldInput& in,
                    void* object) {
  auto& spec = *static_cast<SweepSpec*>(object);
  for (const std::string& name : split_list(in.value, in.line)) {
    const auto policy = strategies::policy_from_name(name);
    if (!policy.has_value()) {
      fail(in.line, "unknown policy '" + name + "'");
    }
    spec.policies.push_back(*policy);
  }
}

void parse_axis_values(const ManifestField&, const FieldInput& in,
                       void* object) {
  std::vector<double>& values = static_cast<Axis*>(object)->values;
  for (const std::string& item : split_list(in.value, in.line)) {
    if (!numeric::parse_double(item, values.emplace_back())) {
      fail(in.line, "axis value '" + item + "' is not a number");
    }
  }
}

void parse_axis_labels(const ManifestField&, const FieldInput& in,
                       void* object) {
  static_cast<Axis*>(object)->labels = split_list(in.value, in.line);
}

/// Stage N's deps must name distinct earlier stages, 0 .. N-1.
void parse_deps(const ManifestField&, const FieldInput& in, void* object) {
  std::vector<int>& deps = static_cast<ManifestStage*>(object)->deps;
  const int number = static_cast<int>(in.instance) + 1;
  for (const std::string& item : split_list(in.value, in.line)) {
    int dep = 0;
    if (!parse_exact(item, dep)) {
      fail(in.line, "stage dep '" + item + "' is not an integer");
    }
    if (dep < 0 || dep >= number) {
      fail(in.line, "stage dep " + item +
                        " must reference an earlier stage (0.." +
                        std::to_string(number - 1) + ")");
    }
    if (std::find(deps.begin(), deps.end(), dep) != deps.end()) {
      fail(in.line, "duplicate stage dep " + item);
    }
    deps.push_back(dep);
  }
}

void encode_deps(const ManifestField&, std::string& out, void* object) {
  for (const int dep : static_cast<ManifestStage*>(object)->deps) {
    out += std::to_string(dep);
    out += ',';
  }
}

void parse_r_min(const ManifestField&, const FieldInput& in, void* object) {
  auto& manifest = *static_cast<Manifest*>(object);
  if (in.value == "baseline") {
    manifest.r_min_mode = RMinMode::kBaseline;
  } else if (numeric::parse_double(in.value, manifest.r_min_fixed)) {
    manifest.r_min_mode = RMinMode::kFixed;
  } else {
    fail(in.line, "r_min must be 'baseline' or a number, got '" +
                      std::string(in.value) + "'");
  }
}

void encode_r_min(const ManifestField&, std::string& out, void* object) {
  const auto& manifest = *static_cast<const Manifest*>(object);
  out += manifest.r_min_mode == RMinMode::kBaseline
             ? "baseline"
             : numeric::format_double(manifest.r_min_fixed);
}

void parse_plan_cache(const ManifestField&, const FieldInput& in,
                      void* object) {
  serve::PlanCacheConfig& cache =
      static_cast<ManifestArrivals*>(object)->plan_cache;
  const std::string_view value = in.value;
  if (value == "off") {
    cache.mode = serve::CacheMode::kOff;
  } else if (value == "exact") {
    cache.mode = serve::CacheMode::kExact;
  } else if (value.starts_with("quantized:")) {
    cache.mode = serve::CacheMode::kQuantized;
    const std::string_view grid = value.substr(10);
    if (!numeric::parse_double(grid, cache.grid) ||
        !std::isfinite(cache.grid) || cache.grid <= 0.0) {
      fail(in.line,
           "plan_cache quantization grid must be a positive number, got '" +
               std::string(grid) + "'");
    }
  } else {
    fail(in.line, "plan_cache must be off, exact or quantized:<grid>, got '" +
                      std::string(value) + "'");
  }
}

void encode_plan_cache(const ManifestField&, std::string& out,
                       void* object) {
  const serve::PlanCacheConfig& cache =
      static_cast<const ManifestArrivals*>(object)->plan_cache;
  if (cache.mode == serve::CacheMode::kQuantized) {
    out += "quantized:" + numeric::format_double(cache.grid);
  } else {
    out += cache.mode == serve::CacheMode::kOff ? "off" : "exact";
  }
}

/// period_hours is stored in seconds.
void parse_period(const ManifestField& field, const FieldInput& in,
                  void* object) {
  double hours = 0.0;
  if (!numeric::parse_double(in.value, hours)) {
    reject(field, in, "is not a number");
  }
  static_cast<ManifestArrivals*>(object)->spec.period = hours * 3600.0;
}

void encode_period(const ManifestField&, std::string& out, void* object) {
  out += numeric::format_double(
      static_cast<const ManifestArrivals*>(object)->spec.period);
}

/// The loaded times (FNV-1a over their canonical decimal forms), never the
/// path: editing the file must invalidate the journal even when the path
/// is unchanged.
void encode_file(const ManifestField&, std::string& out, void* object) {
  const std::vector<double>& times =
      static_cast<const ManifestArrivals*>(object)->spec.times;
  std::string canonical;
  for (const double t : times) {
    canonical += numeric::format_double(t);
    canonical += ';';
  }
  out += std::to_string(times.size());
  out += ':';
  out += std::to_string(numeric::fnv1a(canonical));
}

// --- the table ---------------------------------------------------------------

constexpr EnumName kClusters[] = {{"large_scale", 0}, {"testbed", 1}};
constexpr EnumName kArrivalKinds[] = {
    {"poisson", static_cast<int>(trace::ArrivalKind::kPoisson)},
    {"diurnal", static_cast<int>(trace::ArrivalKind::kDiurnal)},
    {"trace", static_cast<int>(trace::ArrivalKind::kTrace)}};
constexpr EnumName kPlanModes[] = {{"policy", 0}, {"auto", 1}};

constexpr auto kTraceConfig = &Manifest::trace;
constexpr auto kArrivalSpec = &ManifestArrivals::spec;
using Arrivals = ManifestArrivals;
using Trace = trace::TraceConfig;
using trace::ArrivalSpec;

constexpr ManifestField kSweepFields[] = {
    field<&SweepSpec::name>("name", "sweep"),
    custom("policies", "required", parse_policies, nullptr),
    field<&SweepSpec::replications>("replications", "1"),
    field<&SweepSpec::seed>("seed", "1"),
};

constexpr ManifestField kAxisFields[] = {
    custom("values", "required", parse_axis_values, nullptr),
    custom("labels", "", parse_axis_labels, nullptr),
};

constexpr ManifestField kAdaptiveFields[] = {
    field<&AdaptiveSpec::metric>("metric", "pocd"),
    field<&AdaptiveSpec::target_ci95>("target_ci95", "0"),
    field<&AdaptiveSpec::batch>("batch", "1"),
    field<&AdaptiveSpec::max_replications>("max_replications", "required"),
};

constexpr ManifestField kTraceFields[] = {
    field<kTraceConfig, &Trace::num_jobs>("num_jobs", "2700"),
    field<kTraceConfig, &Trace::duration_hours>("duration_hours", "30"),
    field<kTraceConfig, &Trace::mean_tasks>("mean_tasks", "370"),
    field<kTraceConfig, &Trace::tasks_log_sigma>("tasks_log_sigma", "1"),
    field<kTraceConfig, &Trace::min_tasks>("min_tasks", "1"),
    field<kTraceConfig, &Trace::max_tasks>("max_tasks", "5000"),
    field<kTraceConfig, &Trace::t_min_lo>("t_min_lo", "20"),
    field<kTraceConfig, &Trace::t_min_hi>("t_min_hi", "80"),
    field<kTraceConfig, &Trace::beta_lo>("beta_lo", "1.2"),
    field<kTraceConfig, &Trace::beta_hi>("beta_hi", "1.8"),
    field<kTraceConfig, &Trace::deadline_factor_lo>("deadline_factor_lo", "2"),
    field<kTraceConfig, &Trace::deadline_factor_hi>("deadline_factor_hi", "2"),
    field<kTraceConfig, &Trace::jvm_mean>("jvm_mean", "2"),
    field<kTraceConfig, &Trace::jvm_jitter>("jvm_jitter", "1"),
    field<kTraceConfig, &Trace::seed>("seed", "42"),
    field<&Manifest::trace_beta>("beta", ""),
    field<&Manifest::trace_deadline_factor>("deadline_factor", ""),
};

constexpr ManifestField kStageFields[] = {
    field<&ManifestStage::tasks>("tasks", "required", kAtLeastOne),
    field<&ManifestStage::t_min>("t_min", "required", kPositive),
    field<&ManifestStage::beta>("beta", "required", kAboveOne),
    custom("deps", "", parse_deps, encode_deps),
};

constexpr ManifestField kPlannerFields[] = {
    field<&Manifest::planner_theta>("theta", "1e-4"),
    field<&Manifest::planner_tau_est_factor>("tau_est_factor", ""),
    field<&Manifest::planner_tau_kill_factor>("tau_kill_factor", ""),
};

constexpr ManifestField kExperimentFields[] = {
    field<&Manifest::cluster_testbed>("cluster", "large_scale", kNone,
                                      kClusters),
    field<&Manifest::report_utility>("utility", "off"),
    custom("r_min", "baseline", parse_r_min, encode_r_min),
    field<&Manifest::r_min_offset>("r_min_offset", "0"),
};

constexpr ManifestField kArrivalsFields[] = {
    field<kArrivalSpec, &ArrivalSpec::kind>("kind", "poisson", kNone,
                                            kArrivalKinds),
    field<&Arrivals::rate>("rate", "", kPositive),
    custom("file", "", parse_field<&Arrivals::file>, encode_file),
    field<kArrivalSpec, &ArrivalSpec::amplitude>("amplitude", "0.5"),
    custom("period_hours", "24", parse_period, encode_period),
    field<&Arrivals::duration_hours>("duration_hours", "1"),
    field<&Arrivals::warm_up_hours>("warm_up_hours", "0"),
    field<&Arrivals::drain>("drain", "on"),
    field<&Arrivals::auto_strategy>("plan", "policy", kNone, kPlanModes),
    custom("plan_cache", "off", parse_plan_cache, encode_plan_cache),
    field<&Arrivals::admission_enabled>("admission", "on"),
    field<&Arrivals::degrade_headroom>("degrade_headroom", "1", kPositive),
    field<&Arrivals::reject_queue_factor>("reject_queue_factor", "4",
                                          kPositive),
    field<&Arrivals::nodes>("nodes", ""),
    bounded(field<&Arrivals::containers>("containers", "8"), 1, 1 << 20),
    field<&Arrivals::slow_fraction>("slow_fraction", "", kUnitInterval),
    field<&Arrivals::slow_speed>("slow_speed", "0.5", kPositive),
};

constexpr ManifestField kOutputFields[] = {
    field<&ManifestOutputs::csv>("csv", ""),
    field<&ManifestOutputs::json>("json", ""),
    field<&ManifestOutputs::journal>("journal", ""),
    field<&ManifestOutputs::table>("table", "on"),
};

constexpr ManifestField kShardFields[] = {
    bounded(field<&ManifestShard::count>("count", "required"), 1,
            std::numeric_limits<int>::max()),
    field<&ManifestShard::dir>("dir", ".", kNonEmpty),
};

/// The i-th instance of the section stored at `manifest.*Path...`: the
/// manifest itself, a struct, a vector's elements or an optional's value.
template <auto... Path>
void* instance(Manifest& manifest, std::size_t i) {
  if constexpr (sizeof...(Path) == 0) {
    return i == 0 ? &manifest : nullptr;
  } else {
    auto& at = member<Path...>(manifest);
    if constexpr (requires { at.size(); }) {
      return i < at.size() ? &at[i] : nullptr;
    } else if constexpr (requires { at.has_value(); }) {
      return i == 0 && at.has_value() ? &*at : nullptr;
    } else {
      return i == 0 ? &at : nullptr;
    }
  }
}

/// In parse order, whatever the file's order: [axis.*] precede every
/// "@axis" binding, and [experiment] precedes the [arrivals] r_min check.
using enum SaltClass;
constexpr ManifestSection kSections[] = {
    {"sweep", kFingerprint, instance<&Manifest::spec>, kSweepFields},
    {"axis.<name>", kFingerprint, instance<&Manifest::spec, &SweepSpec::axes>,
     kAxisFields},
    {"adaptive", kFingerprint,
     instance<&Manifest::spec, &SweepSpec::adaptive>, kAdaptiveFields},
    {"trace", kSalted, instance<>, kTraceFields},
    {"stage.<N>", kSalted, instance<&Manifest::stages>, kStageFields},
    {"planner", kSalted, instance<>, kPlannerFields},
    {"experiment", kSalted, instance<>, kExperimentFields},
    {"arrivals", kSalted, instance<&Manifest::arrivals>, kArrivalsFields},
    {"output", kNever, instance<&Manifest::outputs>, kOutputFields},
    {"shard", kNever, instance<&Manifest::shard>, kShardFields},
};

// read_fields tracks the keys it saw in one 64-bit mask.
static_assert(std::ranges::all_of(kSections, [](const ManifestSection& s) {
  return s.fields.size() <= 64;
}));

// --- parsing -----------------------------------------------------------------

[[noreturn]] void missing(const IniSection& section, std::string_view key) {
  fail(section.line, "[" + std::string(section.name) +
                         "] is missing required key '" + std::string(key) +
                         "'");
}

/// Parses every entry of `section` into the table section's `instance`, in
/// one pass; rejects unknown keys and missing required ones.
void read_fields(const ManifestSection& table, const IniSection& section,
                 std::size_t instance, Manifest& manifest) {
  void* object = table.object(manifest, instance);
  std::uint64_t seen = 0;
  for (const IniEntry& entry : section.entries) {
    const auto it = std::ranges::find(table.fields, entry.key,
                                      &ManifestField::key);
    if (it == table.fields.end()) {
      fail(entry.line, "unknown key '" + std::string(entry.key) + "' in [" +
                           std::string(section.name) + "]");
    }
    seen |= std::uint64_t{1} << (it - table.fields.begin());
    const FieldInput in{.section = section.name,
                        .instance = instance,
                        .value = entry.value,
                        .line = entry.line,
                        .axes = &manifest.spec.axes};
    it->parse(*it, in, object);
  }
  for (std::size_t i = 0; i < table.fields.size(); ++i) {
    if (table.fields[i].required() && (seen >> i & 1) == 0) {
      missing(section, table.fields[i].key);
    }
  }
}

/// Creates the instance a file section fills and returns its index:
/// repeated sections append one, [arrivals] switches the sweep to
/// open-system cells.
std::size_t open_section(Manifest& manifest, const ManifestSection& table,
                         const IniSection& section) {
  const std::string_view suffix = section.name.substr(table.prefix().size());
  if (table.heading == "axis.<name>") {
    if (suffix.empty()) {
      fail(section.line, "axis section needs a name: [axis.<name>]");
    }
    manifest.spec.axes.emplace_back().name = suffix;
    return manifest.spec.axes.size() - 1;
  }
  if (table.heading == "stage.<N>") {
    // N runs 1, 2, ... without gaps; stage 0 is the sampled root.
    int number = 0;
    if (!parse_exact(suffix, number)) {
      fail(section.line, "stage section needs a number: [stage.<N>]");
    }
    const int next = static_cast<int>(manifest.stages.size()) + 1;
    if (number != next) {
      fail(section.line, "stage sections must be contiguous from 1: "
                         "expected [stage." + std::to_string(next) +
                             "], got [stage." + std::string(suffix) + "]");
    }
    manifest.stages.emplace_back();
    return manifest.stages.size() - 1;
  }
  if (table.heading == "arrivals") {
    manifest.arrivals.emplace();
  }
  return 0;
}

void check_axis(const Manifest& manifest, const IniSection& section) {
  const Axis& axis = manifest.spec.axes.back();
  if (!axis.labels.empty() && axis.labels.size() != axis.values.size()) {
    fail(entry_of(section, "labels")->line,
         "axis has " + std::to_string(axis.values.size()) + " values but " +
             std::to_string(axis.labels.size()) + " labels");
  }
}

void check_arrivals(Manifest& manifest, const IniSection& section) {
  ManifestArrivals& a = *manifest.arrivals;
  // Trace replay takes its times from `file`; the other kinds draw at
  // `rate`. Each key is required by its kind and rejected by the others.
  const bool replay = a.spec.kind == trace::ArrivalKind::kTrace;
  if (entry_of(section, replay ? "file" : "rate") == nullptr) {
    missing(section, replay ? "file" : "rate");
  }
  if (const IniEntry* stray = entry_of(section, replay ? "rate" : "file")) {
    fail(stray->line, "key '" + std::string(stray->key) +
                          "' does not apply to arrivals kind = " +
                          (replay ? "trace" : "poisson/diurnal"));
  }
  if (replay) {
    a.spec.times = trace::load_arrival_times(a.file);
  } else {
    a.spec.rate = a.rate.fixed;
  }
  if (!(std::isfinite(a.duration_hours) && a.duration_hours > 0.0 &&
        std::isfinite(a.warm_up_hours) && a.warm_up_hours >= 0.0 &&
        a.warm_up_hours < a.duration_hours)) {
    fail(section.line, "[arrivals] needs duration_hours > 0 and "
                       "warm_up_hours in [0, duration_hours)");
  }
  if (a.slow_fraction.has_value() && !a.nodes.has_value()) {
    fail(section.line,
         "slow_fraction needs an explicit cluster: set nodes too");
  }
  // Validate the non-rate fields now so a bad manifest fails at parse
  // time; a bound rate is validated per cell at run time.
  trace::ArrivalSpec probe = a.spec;
  if (!replay && a.rate.bound()) {
    probe.rate = 1.0;  // placeholder for the per-cell axis value
  }
  probe.validate();
  if (manifest.report_utility && manifest.r_min_mode == RMinMode::kBaseline) {
    fail(section.line,
         "[arrivals] sweeps need a numeric r_min: the baseline r_min "
         "is a property of a pre-generated closed-system trace");
  }
}

// --- cell construction -------------------------------------------------------

double mean_baseline_pocd(const std::vector<trace::TracedJob>& jobs) {
  double sum = 0.0;
  for (const auto& job : jobs) {
    core::JobParams params;
    params.num_tasks = job.spec.stage(0).num_tasks;
    params.deadline = job.spec.deadline;
    params.t_min = job.spec.stage(0).t_min;
    params.beta = job.spec.stage(0).beta;
    sum += core::pocd_no_speculation(params);
  }
  return sum / static_cast<double>(jobs.size());
}

/// The cell's job-shape template: [trace] with its bindings and the
/// [stage.N] templates resolved at the cell's axis coordinates.
trace::TraceConfig cell_trace(const Manifest& m, const SweepPoint& point) {
  trace::TraceConfig config = m.trace;
  if (m.trace_beta.has_value()) {
    config.beta_lo = config.beta_hi = m.trace_beta->resolve(point);
  }
  if (m.trace_deadline_factor.has_value()) {
    config.deadline_factor_lo = config.deadline_factor_hi =
        m.trace_deadline_factor->resolve(point);
  }
  config.extra_stages.reserve(m.stages.size());
  for (const ManifestStage& stage : m.stages) {
    mapreduce::StageSpec& st = config.extra_stages.emplace_back();
    const long long tasks = std::llround(stage.tasks.resolve(point));
    CHRONOS_EXPECTS(tasks >= 1 && tasks <= (1 << 20),
                    "stage tasks must resolve to [1, 2^20]");
    st.num_tasks = static_cast<int>(tasks);
    st.t_min = stage.t_min.resolve(point);
    st.beta = stage.beta.resolve(point);
    st.deps = stage.deps;
  }
  return config;
}

trace::PlannerConfig cell_planner(const Manifest& m,
                                  const SweepPoint& point) {
  trace::PlannerConfig planner;
  planner.theta = m.planner_theta.resolve(point);
  if (m.planner_tau_est_factor.has_value()) {
    planner.tau_est_factor = m.planner_tau_est_factor->resolve(point);
  }
  if (m.planner_tau_kill_factor.has_value()) {
    planner.tau_kill_factor = m.planner_tau_kill_factor->resolve(point);
  }
  return planner;
}

}  // namespace

std::span<const ManifestSection> manifest_sections() { return kSections; }

Manifest parse_manifest(const std::string& text) {
  std::vector<IniSection> sections = parse_ini(text);
  if (std::ranges::find(sections, "sweep", &IniSection::name) ==
      sections.end()) {
    fail(1, "missing required [sweep] section");
  }
  Manifest manifest;
  for (const ManifestSection& spec : kSections) {
    for (IniSection& section : sections) {
      if (spec.repeated() ? !section.name.starts_with(spec.prefix())
                          : section.name != spec.heading) {
        continue;
      }
      section.known = true;
      read_fields(spec, section, open_section(manifest, spec, section),
                  manifest);
      if (spec.heading == "axis.<name>") {
        check_axis(manifest, section);
      } else if (spec.heading == "arrivals") {
        check_arrivals(manifest, section);
      }
    }
  }
  for (const IniSection& section : sections) {
    if (!section.known) {
      fail(section.line,
           "unknown section [" + std::string(section.name) + "]");
    }
  }
  manifest.spec.validate();
  manifest.trace.validate();
  return manifest;
}

Manifest load_manifest(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  CHRONOS_EXPECTS(file != nullptr, "cannot open manifest '" + path + "'");
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return parse_manifest(text);
}

std::string manifest_journal_salt(const Manifest& manifest) {
  // The section accessors take a mutable Manifest; encoding only reads.
  Manifest& m = const_cast<Manifest&>(manifest);
  std::string salt;
  salt.reserve(1024);
  for (const ManifestSection& section : kSections) {
    if (section.salt != SaltClass::kSalted) {
      continue;
    }
    for (std::size_t i = 0; void* object = section.object(m, i); ++i) {
      salt += '[';
      salt += section.prefix();
      salt += section.repeated() ? std::to_string(i + 1) + "]" : "]";
      for (const ManifestField& field : section.fields) {
        salt += field.key;
        salt += '=';
        field.encode(field, salt, object);
        salt += ';';
      }
    }
  }
  return salt;
}

SweepHooks make_hooks(const Manifest& manifest) {
  // The hooks own a copy: they stay valid after the caller's Manifest dies.
  const auto m = std::make_shared<const Manifest>(manifest);
  SweepHooks hooks;
  hooks.setup = [m](const SweepPoint& point) {
    SharedCell shared;
    if (m->arrivals.has_value()) {
      // Open-system cells sample jobs on the fly — nothing to pre-plan.
      if (m->report_utility) {
        shared.r_min = std::max(0.0, m->r_min_fixed + m->r_min_offset);
      }
      return shared;
    }
    auto jobs = generate_trace(cell_trace(*m, point));
    if (m->report_utility) {
      const double base = m->r_min_mode == RMinMode::kBaseline
                              ? mean_baseline_pocd(jobs)
                              : m->r_min_fixed;
      shared.r_min = std::max(0.0, base + m->r_min_offset);
    }
    const trace::SpotPriceModel prices;
    plan_trace(jobs, point.policy, cell_planner(*m, point), prices);
    shared.jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        std::move(jobs));
    return shared;
  };
  hooks.run = [m](const SweepPoint& point, std::uint64_t seed,
                  const SharedCell& shared) {
    CellInstance instance;
    const trace::ExperimentConfig preset =
        m->cluster_testbed
            ? trace::ExperimentConfig::testbed(point.policy, seed)
            : trace::ExperimentConfig::large_scale(point.policy, seed);
    if (m->arrivals.has_value()) {
      const ManifestArrivals& a = *m->arrivals;
      auto open = std::make_shared<sim::OpenSystemConfig>();
      open->arrivals = a.spec;
      if (a.spec.kind != trace::ArrivalKind::kTrace) {
        open->arrivals.rate = a.rate.resolve(point);
      }
      open->workload = cell_trace(*m, point);
      open->planner = cell_planner(*m, point);
      open->plan_cache = a.plan_cache;
      open->admission.enabled = a.admission_enabled;
      open->admission.degrade_headroom = a.degrade_headroom;
      open->admission.reject_queue_factor = a.reject_queue_factor;
      if (a.nodes.has_value()) {
        const long long nodes = std::llround(a.nodes->resolve(point));
        CHRONOS_EXPECTS(nodes >= 1 && nodes <= (1 << 20),
                        "arrivals nodes must resolve to [1, 2^20]");
        sim::NodeConfig node;
        node.containers = a.containers;
        open->cluster =
            sim::ClusterConfig::uniform(static_cast<int>(nodes), node);
        if (a.slow_fraction.has_value()) {
          const double fraction = a.slow_fraction->resolve(point);
          CHRONOS_EXPECTS(
              std::isfinite(fraction) && fraction >= 0.0 && fraction <= 1.0,
              "slow_fraction must resolve to [0, 1]");
          const auto slow = static_cast<int>(
              std::llround(fraction * static_cast<double>(nodes)));
          for (int i = 0; i < slow; ++i) {
            open->cluster.nodes[static_cast<std::size_t>(i)].speed =
                a.slow_speed;
          }
        }
        open->scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
        open->scheduler.estimator = mapreduce::EstimatorKind::kChronos;
      } else {
        open->cluster = preset.cluster;
        open->scheduler = preset.scheduler;
      }
      open->policy = point.policy;
      open->auto_strategy = a.auto_strategy;
      open->duration = a.duration_hours * 3600.0;
      open->warm_up = a.warm_up_hours * 3600.0;
      open->drain = a.drain;
      open->seed = seed;
      instance.open_system = std::move(open);
    } else {
      instance.jobs = shared.jobs;
      instance.config = preset;
    }
    if (m->report_utility) {
      instance.report_utility = true;
      instance.theta = m->planner_theta.resolve(point);
      instance.r_min = shared.r_min;
    }
    return instance;
  };
  return hooks;
}

}  // namespace chronos::exp
