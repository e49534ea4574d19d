// Sweep manifests: INI-subset parsing (sections, lists, quotes, comments,
// line-numbered errors), semantic validation (axis bindings, policies,
// adaptive config), and an end-to-end run of manifest-built hooks through
// the engine.
#include "exp/manifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "exp/checkpoint.h"
#include "exp/report.h"
#include "exp/sweep.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;

constexpr const char* kFig3Like = R"(
# comment line
; another comment style

[sweep]
name = fig3_theta
policies = mantri, clone, s-restart, s-resume
replications = 3
seed = 41

[axis.theta]
values = 1e-6, 1e-5, 1e-4, 1e-3   # inline comment

[trace]
num_jobs = 900
duration_hours = 30
mean_tasks = 60
max_tasks = 600
seed = 77

[planner]
theta = @theta

[experiment]
cluster = large_scale
utility = on
r_min = baseline

[output]
csv = out.csv
journal = out.journal
table = off
)";

TEST(Manifest, ParsesTheFig3Grid) {
  const Manifest manifest = parse_manifest(kFig3Like);
  EXPECT_EQ(manifest.spec.name, "fig3_theta");
  ASSERT_EQ(manifest.spec.policies.size(), 4u);
  EXPECT_EQ(manifest.spec.policies[0], PolicyKind::kMantri);
  EXPECT_EQ(manifest.spec.policies[3], PolicyKind::kSResume);
  EXPECT_EQ(manifest.spec.replications, 3);
  EXPECT_EQ(manifest.spec.seed, 41u);
  ASSERT_EQ(manifest.spec.axes.size(), 1u);
  EXPECT_EQ(manifest.spec.axes[0].name, "theta");
  ASSERT_EQ(manifest.spec.axes[0].values.size(), 4u);
  EXPECT_DOUBLE_EQ(manifest.spec.axes[0].values[0], 1e-6);
  EXPECT_FALSE(manifest.spec.adaptive.enabled());

  EXPECT_EQ(manifest.trace.num_jobs, 900);
  EXPECT_DOUBLE_EQ(manifest.trace.mean_tasks, 60.0);
  EXPECT_EQ(manifest.trace.seed, 77u);

  ASSERT_TRUE(manifest.planner_theta.bound());
  EXPECT_EQ(manifest.planner_theta.axis, "theta");
  EXPECT_FALSE(manifest.cluster_testbed);
  EXPECT_TRUE(manifest.report_utility);
  EXPECT_EQ(manifest.r_min_mode, RMinMode::kBaseline);

  EXPECT_EQ(manifest.outputs.csv, "out.csv");
  EXPECT_EQ(manifest.outputs.journal, "out.journal");
  EXPECT_FALSE(manifest.outputs.table);
}

TEST(Manifest, ParsesAdaptiveAndQuotedLabels) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
policies = s-resume
replications = 2

[axis.workload]
values = 0, 1
labels = "Sort, heavy", WordCount

[adaptive]
metric = cost
target_ci95 = 0.5
batch = 3
max_replications = 12
)");
  ASSERT_EQ(manifest.spec.axes.size(), 1u);
  ASSERT_EQ(manifest.spec.axes[0].labels.size(), 2u);
  EXPECT_EQ(manifest.spec.axes[0].labels[0], "Sort, heavy");
  EXPECT_EQ(manifest.spec.axes[0].labels[1], "WordCount");
  EXPECT_TRUE(manifest.spec.adaptive.enabled());
  EXPECT_EQ(manifest.spec.adaptive.metric, "cost");
  EXPECT_DOUBLE_EQ(manifest.spec.adaptive.target_ci95, 0.5);
  EXPECT_EQ(manifest.spec.adaptive.batch, 3);
  EXPECT_EQ(manifest.spec.adaptive.max_replications, 12);
}

TEST(Manifest, BindsTraceFieldsToAxes) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
policies = clone

[axis.beta]
values = 1.1, 1.5, 1.9

[trace]
beta = @beta
deadline_factor = 2
)");
  ASSERT_TRUE(manifest.trace_beta.has_value());
  EXPECT_EQ(manifest.trace_beta->axis, "beta");
  ASSERT_TRUE(manifest.trace_deadline_factor.has_value());
  EXPECT_FALSE(manifest.trace_deadline_factor->bound());
  EXPECT_DOUBLE_EQ(manifest.trace_deadline_factor->fixed, 2.0);
}

void expect_parse_error(const std::string& text, const std::string& what) {
  try {
    parse_manifest(text);
    FAIL() << "expected a parse error mentioning '" << what << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << error.what();
  }
}

TEST(Manifest, RejectsBadInput) {
  expect_parse_error("x = 1\n", "outside any [section]");
  expect_parse_error("[sweep\npolicies = clone\n", "malformed section");
  expect_parse_error("[]\n", "malformed section");
  expect_parse_error("[sweep]\njust text\n", "expected 'key = value'");
  expect_parse_error("[sweep]\npolicies = clone\n[sweep]\n",
                     "duplicate section");
  expect_parse_error("[sweep]\npolicies = clone\npolicies = mantri\n",
                     "duplicate key");
  expect_parse_error("[nope]\n[sweep]\npolicies = clone\n",
                     "unknown section [nope]");
  expect_parse_error("[sweep]\npolicies = clone\ntypo = 1\n",
                     "unknown key 'typo'");
  expect_parse_error("[output]\ncsv = a.csv\n", "missing required [sweep]");
  expect_parse_error("[sweep]\npolicies = warp-drive\n", "unknown policy");
  expect_parse_error("[sweep]\npolicies = clone\nreplications = lots\n",
                     "not an integer");
  expect_parse_error("[sweep]\npolicies = clone\n[axis.x]\n",
                     "missing required key 'values'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, banana\n",
      "not a number");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, 2\nlabels = a\n",
      "2 values but 1 labels");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[planner]\ntheta = @missing\n",
      "binds to an axis that does not exist");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\ncluster = cloud\n",
      "'large_scale' or 'testbed'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\nutility = maybe\n",
      "not a boolean");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\nr_min = tiny\n",
      "'baseline' or a number");
  expect_parse_error("[sweep]\npolicies = clone\n[adaptive]\nmetric = pocd\n",
                     "missing required key 'max_replications'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[adaptive]\nmax_replications = 5\n",
      "target_ci95");
}

TEST(Manifest, ErrorsCarryLineNumbers) {
  expect_parse_error("[sweep]\npolicies = clone\n\nbroken line\n",
                     "manifest line 4");
}

TEST(Manifest, SeedsParseExactlyAbove2Pow53) {
  // Parsing integers through a double would silently round this to
  // 9007199254740992 and break "same manifest, same numbers".
  const Manifest manifest = parse_manifest(
      "[sweep]\npolicies = clone\nseed = 9007199254740993\n");
  EXPECT_EQ(manifest.spec.seed, 9007199254740993ULL);
  expect_parse_error("[sweep]\npolicies = clone\nseed = -1\n",
                     "not an unsigned integer");
  expect_parse_error("[sweep]\npolicies = clone\nreplications = 2.5\n",
                     "not an integer");
}

TEST(Manifest, RejectsStrayTextAfterClosingQuote) {
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, 2\n"
      "labels = \"a\"junk, b\n",
      "after closing quote");
}

TEST(Manifest, JournalSaltTracksCellTemplatesButNotOutputs) {
  const char* base_text =
      "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
      "[output]\ncsv = a.csv\n";
  const std::string base_salt =
      manifest_journal_salt(parse_manifest(base_text));

  // Same templates, different output path: the journal stays valid.
  Manifest same = parse_manifest(base_text);
  same.outputs.csv = "elsewhere.csv";
  EXPECT_EQ(manifest_journal_salt(same), base_salt);

  // Any cell-template edit must change the salt.
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 12\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[planner]\ntheta = 1e-3\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[experiment]\ncluster = testbed\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[experiment]\nutility = on\nr_min = 0.5\n")),
            base_salt);
}

TEST(Manifest, ParsesAndValidatesTheShardSection) {
  const Manifest manifest = parse_manifest(
      "[sweep]\npolicies = clone\n[shard]\ncount = 4\ndir = journals\n");
  EXPECT_EQ(manifest.shard.count, 4);
  EXPECT_EQ(manifest.shard.dir, "journals");

  // Defaults: unsharded, journals in the working directory.
  const Manifest plain = parse_manifest("[sweep]\npolicies = clone\n");
  EXPECT_EQ(plain.shard.count, 0);
  EXPECT_EQ(plain.shard.dir, ".");

  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ndir = x\n",
                     "missing required key 'count'");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = 0\n",
                     "shard count must be >= 1");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = -2\n",
                     "shard count must be >= 1");
  // Beyond int: must be rejected, never narrowed into a plausible count.
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 4294967298\n",
      "shard count must be >= 1");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = two\n",
                     "not an integer");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\ndir =\n",
      "shard dir must not be empty");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\nmachines = 9\n",
      "unknown key 'machines'");
}

TEST(Manifest, ShardSectionNeverChangesTheJournalSalt) {
  // How a grid is split across processes must not invalidate journals:
  // shard journals and the unsharded journal share one fingerprint.
  const std::string unsharded = manifest_journal_salt(
      parse_manifest("[sweep]\npolicies = clone\n[trace]\nseed = 11\n"));
  const std::string sharded = manifest_journal_salt(parse_manifest(
      "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
      "[shard]\ncount = 8\ndir = journals\n"));
  EXPECT_EQ(unsharded, sharded);
}

/// Expects parse_manifest to reject `text` with a message containing every
/// string of `what`, located at one of `lines` ("manifest line N:"). A
/// bound on a single key may point at the key's line or at its section
/// header; both locate the mistake.
void expect_rejected(const std::string& text,
                     std::initializer_list<std::string> what,
                     std::initializer_list<int> lines) {
  try {
    parse_manifest(text);
    ADD_FAILURE() << "expected a parse error for:\n" << text;
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    for (const std::string& needle : what) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << message;
    }
    bool located = lines.size() == 0;
    for (const int line : lines) {
      located = located || message.find("manifest line " +
                                        std::to_string(line) + ":") !=
                               std::string::npos;
    }
    EXPECT_TRUE(located) << "wrong line in: " << message;
  }
}

TEST(Manifest, ArrivalsAndStageSectionsParseAndReject) {
  // Every [arrivals] key, away from its default.
  const Manifest open = parse_manifest(R"([sweep]
policies = clone
[axis.lambda]
values = 0.05, 0.1
[axis.nodes]
values = 2, 4
[experiment]
utility = on
r_min = 0.25
[arrivals]
kind = diurnal
rate = @lambda
amplitude = 0.25
period_hours = 2
duration_hours = 3
warm_up_hours = 0.5
drain = off
plan = auto
plan_cache = quantized:0.05
admission = off
degrade_headroom = 1.5
reject_queue_factor = 2.5
nodes = @nodes
containers = 6
slow_fraction = 0.25
slow_speed = 0.75
)");
  ASSERT_TRUE(open.arrivals.has_value());
  const ManifestArrivals& a = *open.arrivals;
  EXPECT_EQ(a.spec.kind, trace::ArrivalKind::kDiurnal);
  EXPECT_EQ(a.rate.axis, "lambda");
  EXPECT_DOUBLE_EQ(a.spec.amplitude, 0.25);
  EXPECT_DOUBLE_EQ(a.spec.period, 7200.0);
  EXPECT_DOUBLE_EQ(a.duration_hours, 3.0);
  EXPECT_DOUBLE_EQ(a.warm_up_hours, 0.5);
  EXPECT_FALSE(a.drain);
  EXPECT_TRUE(a.auto_strategy);
  EXPECT_EQ(a.plan_cache.mode, serve::CacheMode::kQuantized);
  EXPECT_DOUBLE_EQ(a.plan_cache.grid, 0.05);
  EXPECT_FALSE(a.admission_enabled);
  EXPECT_DOUBLE_EQ(a.degrade_headroom, 1.5);
  EXPECT_DOUBLE_EQ(a.reject_queue_factor, 2.5);
  ASSERT_TRUE(a.nodes.has_value());
  EXPECT_EQ(a.nodes->axis, "nodes");
  EXPECT_EQ(a.containers, 6);
  ASSERT_TRUE(a.slow_fraction.has_value());
  EXPECT_FALSE(a.slow_fraction->bound());
  EXPECT_DOUBLE_EQ(a.slow_fraction->fixed, 0.25);
  EXPECT_DOUBLE_EQ(a.slow_speed, 0.75);
  EXPECT_EQ(open.r_min_mode, RMinMode::kFixed);
  EXPECT_DOUBLE_EQ(open.r_min_fixed, 0.25);

  // Defaults, and a fixed rate copied into the arrival spec.
  const Manifest plain = parse_manifest(
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.3\n");
  ASSERT_TRUE(plain.arrivals.has_value());
  const ManifestArrivals& d = *plain.arrivals;
  EXPECT_EQ(d.spec.kind, trace::ArrivalKind::kPoisson);
  EXPECT_FALSE(d.rate.bound());
  EXPECT_DOUBLE_EQ(d.rate.fixed, 0.3);
  EXPECT_DOUBLE_EQ(d.spec.rate, 0.3);
  EXPECT_DOUBLE_EQ(d.spec.amplitude, 0.5);
  EXPECT_DOUBLE_EQ(d.spec.period, 86400.0);
  EXPECT_DOUBLE_EQ(d.duration_hours, 1.0);
  EXPECT_DOUBLE_EQ(d.warm_up_hours, 0.0);
  EXPECT_TRUE(d.drain);
  EXPECT_FALSE(d.auto_strategy);
  EXPECT_EQ(d.plan_cache.mode, serve::CacheMode::kOff);
  EXPECT_TRUE(d.admission_enabled);
  EXPECT_DOUBLE_EQ(d.degrade_headroom, 1.0);
  EXPECT_DOUBLE_EQ(d.reject_queue_factor, 4.0);
  EXPECT_FALSE(d.nodes.has_value());
  EXPECT_EQ(d.containers, 8);
  EXPECT_FALSE(d.slow_fraction.has_value());
  EXPECT_DOUBLE_EQ(d.slow_speed, 0.5);
  EXPECT_FALSE(parse_manifest("[sweep]\npolicies = clone\n").arrivals);

  // The plan_cache forms.
  const auto cache_of = [](const std::string& value) {
    return parse_manifest("[sweep]\npolicies = clone\n[arrivals]\nrate = "
                          "0.3\nplan_cache = " +
                          value + "\n")
        .arrivals->plan_cache;
  };
  EXPECT_EQ(cache_of("off").mode, serve::CacheMode::kOff);
  EXPECT_EQ(cache_of("exact").mode, serve::CacheMode::kExact);
  EXPECT_EQ(cache_of("quantized:0.1").mode, serve::CacheMode::kQuantized);
  EXPECT_DOUBLE_EQ(cache_of("quantized:0.1").grid, 0.1);

  // Trace replay: the file's times are loaded at parse time.
  const std::string times_path =
      ::testing::TempDir() + "chronos_manifest_times.txt";
  {
    std::ofstream times(times_path);
    times << "1\n2.5\n";
  }
  const Manifest replay = parse_manifest(
      "[sweep]\npolicies = clone\n[arrivals]\nkind = trace\nfile = " +
      times_path + "\n");
  EXPECT_EQ(replay.arrivals->spec.kind, trace::ArrivalKind::kTrace);
  EXPECT_EQ(replay.arrivals->file, times_path);
  EXPECT_EQ(replay.arrivals->spec.times, (std::vector<double>{1.0, 2.5}));

  // Every [stage.N] key.
  const Manifest staged = parse_manifest(R"([sweep]
policies = clone
[axis.w]
values = 2, 3
[stage.1]
tasks = @w
t_min = 8
beta = 1.5
[stage.2]
tasks = 2
t_min = @w
beta = 1.6
deps = 0, 1
)");
  ASSERT_EQ(staged.stages.size(), 2u);
  EXPECT_EQ(staged.stages[0].tasks.axis, "w");
  EXPECT_DOUBLE_EQ(staged.stages[0].t_min.fixed, 8.0);
  EXPECT_DOUBLE_EQ(staged.stages[0].beta.fixed, 1.5);
  EXPECT_TRUE(staged.stages[0].deps.empty());
  EXPECT_DOUBLE_EQ(staged.stages[1].tasks.fixed, 2.0);
  EXPECT_EQ(staged.stages[1].t_min.axis, "w");
  EXPECT_DOUBLE_EQ(staged.stages[1].beta.fixed, 1.6);
  EXPECT_EQ(staged.stages[1].deps, (std::vector<int>{0, 1}));

  // [arrivals] rejections; lines 1-3 are "[sweep]", "policies = clone",
  // "[arrivals]".
  const std::string head = "[sweep]\npolicies = clone\n[arrivals]\n";
  expect_rejected(head + "kind = burst\nrate = 1\n", {"kind", "'burst'"},
                  {4});
  expect_rejected(head + "kind = poisson\n",
                  {"missing required key 'rate'"}, {3});
  expect_rejected(head + "rate = 0\n",
                  {"rate must be positive and finite"}, {4});
  expect_rejected(head + "rate = fast\n", {"'fast'"}, {4});
  expect_rejected(head + "rate = @nope\n",
                  {"binds to an axis that does not exist"}, {4});
  expect_rejected(head + "kind = trace\n", {"missing required key 'file'"},
                  {3});
  expect_rejected(head + "kind = trace\nfile = " + times_path +
                      "\nrate = 0.1\n",
                  {"'rate'"}, {6});
  expect_rejected(head + "rate = 0.1\nfile = " + times_path + "\n",
                  {"'file'"}, {5});
  expect_rejected(head + "kind = trace\nfile = /nonexistent/times.txt\n",
                  {"/nonexistent/times.txt"}, {});
  expect_rejected(head + "rate = 1\namplitude = big\n", {"'big'"}, {5});
  expect_rejected(head + "kind = diurnal\nrate = 1\namplitude = 1.5\n",
                  {"amplitude must lie in [0, 1)"}, {});
  expect_rejected(head + "rate = 1\nperiod_hours = day\n", {"'day'"}, {5});
  expect_rejected(head + "kind = diurnal\nrate = 1\nperiod_hours = 0\n",
                  {"period must be positive and finite"}, {});
  expect_rejected(head + "rate = 1\nduration_hours = 0\n",
                  {"duration_hours > 0"}, {3});
  expect_rejected(head + "rate = 1\nduration_hours = 1\nwarm_up_hours = 1\n",
                  {"warm_up_hours in [0, duration_hours)"}, {3});
  expect_rejected(head + "rate = 1\ndrain = maybe\n", {"not a boolean"},
                  {5});
  expect_rejected(head + "rate = 1\nplan = greedy\n",
                  {"plan must be 'policy' or 'auto'", "'greedy'"}, {5});
  expect_rejected(head + "rate = 1\nplan_cache = lru\n",
                  {"plan_cache must be off, exact or quantized:<grid>"},
                  {5});
  expect_rejected(head + "rate = 1\nplan_cache = quantized:0\n",
                  {"plan_cache quantization grid must be a positive number"},
                  {5});
  expect_rejected(head + "rate = 1\nadmission = maybe\n", {"not a boolean"},
                  {5});
  expect_rejected(head + "rate = 1\ndegrade_headroom = 0\n",
                  {"must be positive and finite"}, {3, 5});
  expect_rejected(head + "rate = 1\nreject_queue_factor = -1\n",
                  {"must be positive and finite"}, {3, 5});
  expect_rejected(head + "rate = 1\nnodes = @nope\n",
                  {"binds to an axis that does not exist"}, {5});
  expect_rejected(head + "rate = 1\ncontainers = 0\n",
                  {"containers must"}, {3, 5});
  expect_rejected(head + "rate = 1\ncontainers = 1048577\n",
                  {"containers must"}, {3, 5});
  expect_rejected(head + "rate = 1\ncontainers = six\n",
                  {"not an integer"}, {5});
  expect_rejected(head + "rate = 1\nslow_fraction = 0.5\n",
                  {"slow_fraction needs an explicit cluster"}, {3});
  expect_rejected(head + "rate = 1\nnodes = 4\nslow_fraction = 1.5\n",
                  {"slow_fraction must lie in [0, 1]"}, {3, 6});
  expect_rejected(head + "rate = 1\nslow_speed = 0\n",
                  {"slow_speed must be positive and finite"}, {3, 5});
  expect_rejected(head + "rate = 1\nburst = 3\n",
                  {"unknown key 'burst' in [arrivals]"}, {5});
  expect_rejected("[sweep]\npolicies = clone\n[experiment]\nutility = on\n"
                  "[arrivals]\nrate = 1\n",
                  {"need a numeric r_min"}, {5});

  // [stage.N] rejections; lines 1-3 are "[sweep]", "policies = clone",
  // "[stage.1]".
  const std::string stage = "[sweep]\npolicies = clone\n[stage.1]\n";
  expect_rejected("[sweep]\npolicies = clone\n[stage.2]\ntasks = 1\n"
                  "t_min = 1\nbeta = 1.5\n",
                  {"expected [stage.1], got [stage.2]"}, {3});
  expect_rejected("[sweep]\npolicies = clone\n[stage.x]\n",
                  {"stage section needs a number"}, {3});
  expect_rejected(stage + "t_min = 1\nbeta = 1.5\n",
                  {"missing required key 'tasks'"}, {3});
  expect_rejected(stage + "tasks = 1\nbeta = 1.5\n",
                  {"missing required key 't_min'"}, {3});
  expect_rejected(stage + "tasks = 1\nt_min = 1\n",
                  {"missing required key 'beta'"}, {3});
  expect_rejected(stage + "tasks = 0\nt_min = 1\nbeta = 1.5\n",
                  {"tasks must be >= 1"}, {3, 4});
  expect_rejected(stage + "tasks = 1\nt_min = 0\nbeta = 1.5\n",
                  {"t_min must be positive and finite"}, {3, 5});
  expect_rejected(stage + "tasks = 1\nt_min = 1\nbeta = 1\n",
                  {"beta must exceed 1"}, {3, 6});
  expect_rejected(stage + "tasks = @nope\nt_min = 1\nbeta = 1.5\n",
                  {"binds to an axis that does not exist"}, {4});
  expect_rejected(stage + "tasks = 1\nt_min = 1\nbeta = 1.5\ndeps = x\n",
                  {"stage dep 'x' is not an integer"}, {7});
  expect_rejected(stage + "tasks = 1\nt_min = 1\nbeta = 1.5\ndeps = 1\n",
                  {"stage dep 1 must reference an earlier stage (0..0)"},
                  {7});
  expect_rejected(stage + "tasks = 1\nt_min = 1\nbeta = 1.5\n[stage.2]\n"
                          "tasks = 1\nt_min = 1\nbeta = 1.5\ndeps = 0, 0\n",
                  {"duplicate stage dep 0"}, {11});
  expect_rejected(stage + "tasks = 1\nt_min = 1\nbeta = 1.5\nwidth = 2\n",
                  {"unknown key 'width' in [stage.1]"}, {7});

  // [sweep] and [axis.*] rejections not covered by RejectsBadInput.
  expect_rejected("[sweep]\nname = x\n", {"missing required key 'policies'"},
                  {1});
  expect_rejected("[sweep]\npolicies = clone,,mantri\n",
                  {"empty list item"}, {2});
  expect_rejected("[sweep]\npolicies = \"clone\n",
                  {"unterminated quote"}, {2});
  expect_rejected("[sweep]\npolicies = clone\nseed = x\n",
                  {"not an unsigned integer"}, {3});
  expect_rejected("[sweep]\npolicies = clone\nreplications = 0\n",
                  {"at least one replication"}, {});
  expect_rejected("[sweep]\npolicies = clone\n[axis.]\nvalues = 1\n",
                  {"axis section needs a name"}, {3});
}

TEST(Manifest, RejectsIntegersBeyondTheirField) {
  // Each value is 2^32 + k: narrowed to int it would wrap to k and pass
  // validation as a different, plausible manifest.
  const std::string sweep = "[sweep]\npolicies = clone\n";
  expect_rejected(sweep + "replications = 4294967298\n",
                  {"sweep replications must be", "'4294967298'"}, {3});
  expect_rejected(sweep + "replications = -4294967295\n",
                  {"sweep replications must be"}, {3});
  expect_rejected(sweep + "[trace]\nnum_jobs = 4294967304\n",
                  {"trace num_jobs must be"}, {4});
  expect_rejected(sweep + "[trace]\nmax_tasks = 4294967336\n",
                  {"trace max_tasks must be"}, {4});
  const std::string adaptive =
      sweep + "[adaptive]\nmetric = pocd\ntarget_ci95 = 0.1\n";
  expect_rejected(adaptive + "batch = 4294967297\nmax_replications = 8\n",
                  {"adaptive batch must be"}, {6});
  expect_rejected(adaptive + "max_replications = 4294967304\n",
                  {"adaptive max_replications must be"}, {6});
  // The largest int still parses.
  EXPECT_EQ(parse_manifest(sweep + "[trace]\nmax_tasks = 2147483647\n")
                .trace.max_tasks,
            2147483647);
}

/// A manifest as ordered sections of ordered "key = value" pairs.
using Entries = std::vector<std::pair<std::string, std::string>>;
using ManifestText = std::vector<std::pair<std::string, Entries>>;

std::string render(const ManifestText& text) {
  std::string out;
  for (const auto& [section, entries] : text) {
    out += "[" + section + "]\n";
    for (const auto& [key, value] : entries) {
      out += key + " = " + value + "\n";
    }
  }
  return out;
}

/// The entries of the last section of `text` that `table` matches.
Entries* entries_of(ManifestText& text, const ManifestSection& table) {
  for (auto it = text.rbegin(); it != text.rend(); ++it) {
    if (table.repeated() ? it->first.starts_with(table.prefix())
                         : it->first == table.heading) {
      return &it->second;
    }
  }
  return nullptr;
}

Entries::iterator find_key(Entries& entries, const std::string& key) {
  return std::ranges::find(entries, key, &Entries::value_type::first);
}

/// `text` with `key = value` set in the last section `table` matches;
/// nullopt when none does.
std::optional<ManifestText> with(ManifestText text,
                                 const ManifestSection& table,
                                 const std::string& key,
                                 const std::string& value) {
  Entries* entries = entries_of(text, table);
  if (entries == nullptr) {
    return std::nullopt;
  }
  if (const auto it = find_key(*entries, key); it != entries->end()) {
    it->second = value;
  } else {
    entries->emplace_back(key, value);
  }
  return text;
}

const ManifestSection& section_named(std::string_view heading) {
  for (const ManifestSection& section : manifest_sections()) {
    if (section.heading == heading) {
      return section;
    }
  }
  throw std::out_of_range(std::string(heading));
}

struct Fingerprints {
  std::string salt;
  std::string spec;  ///< spec_fingerprint(spec, salt)
};

std::optional<Fingerprints> fingerprints(const ManifestText& text) {
  try {
    const Manifest manifest = parse_manifest(render(text));
    const std::string salt = manifest_journal_salt(manifest);
    return Fingerprints{salt, spec_fingerprint(manifest.spec, salt)};
  } catch (const PreconditionError&) {
    return std::nullopt;
  }
}

TEST(Manifest, EveryTableFieldFeedsItsFingerprintClass) {
  const std::string dir = ::testing::TempDir();
  const std::string times_a = dir + "chronos_salt_times_a.txt";
  const std::string times_a_copy = dir + "chronos_salt_times_a_copy.txt";
  const std::string times_b = dir + "chronos_salt_times_b.txt";
  std::ofstream(times_a) << "1\n2\n";
  std::ofstream(times_a_copy) << "1\n2\n";
  std::ofstream(times_b) << "1\n3\n";

  const ManifestText closed = {
      {"sweep",
       {{"name", "base"}, {"policies", "clone"}, {"replications", "2"},
        {"seed", "3"}}},
      {"axis.x", {{"values", "1, 2"}, {"labels", "a, b"}}},
      {"adaptive",
       {{"metric", "pocd"}, {"target_ci95", "0.1"}, {"batch", "1"},
        {"max_replications", "4"}}},
      {"trace", {{"num_jobs", "10"}, {"mean_tasks", "5"}, {"seed", "7"}}},
      {"stage.1", {{"tasks", "2"}, {"t_min", "3"}, {"beta", "1.5"}}},
      {"stage.2",
       {{"tasks", "2"}, {"t_min", "3"}, {"beta", "1.5"}, {"deps", "1"}}},
      {"planner", {{"theta", "1e-4"}}},
      {"experiment", {{"utility", "on"}, {"r_min", "0.5"}}},
      {"output", {{"csv", "a.csv"}}},
      {"shard", {{"count", "2"}}},
  };
  const ManifestText open_minimal = {
      {"sweep", {{"policies", "clone"}}},
      {"axis.x", {{"values", "1, 2"}}},
      {"arrivals", {{"rate", "0.1"}}},
  };
  const ManifestText open_diurnal = {
      {"sweep", {{"policies", "clone"}}},
      {"axis.x", {{"values", "1, 2"}}},
      {"experiment", {{"utility", "on"}, {"r_min", "0.5"}}},
      {"arrivals",
       {{"kind", "diurnal"},
        {"rate", "0.1"},
        {"nodes", "4"},
        {"slow_fraction", "0.25"}}},
  };
  const ManifestText replay = {
      {"sweep", {{"policies", "clone"}}},
      {"arrivals", {{"kind", "trace"}, {"file", times_a}}},
  };
  const std::vector<const ManifestText*> bases = {&closed, &open_minimal,
                                                  &open_diurnal, &replay};
  // Tried in order for every field; a field is live in a base when two of
  // them parse (distinct texts here always parse to distinct values).
  std::vector<std::string> pool = {
      "0",     "1",     "2",    "0.5",   "0.25",   "1.5",     "1.25",
      "3",     "100",   "200",  "on",    "off",    "exact",   "quantized:0.1",
      "clone", "mantri", "pocd", "cost", "1, 2",   "3, 4",    "a, b",
      "c, d",  "@x",    times_a, times_b};
  for (const ManifestSection& section : manifest_sections()) {
    for (const ManifestField& field : section.fields) {
      for (const EnumName& name : field.names) {
        pool.emplace_back(name.name);
      }
    }
  }

  // No field is exempt: every key changes what its class promises in at
  // least one base.
  for (const ManifestSection& section : manifest_sections()) {
    for (const ManifestField& field : section.fields) {
      const std::string key = std::string(field.key);
      SCOPED_TRACE("[" + std::string(section.heading) + "] " + key);
      if (section.salt == SaltClass::kSalted) {
        ASSERT_NE(field.encode, nullptr) << "a salted field needs an encoder";
      }
      bool live = false;
      for (const ManifestText* base : bases) {
        std::vector<Fingerprints> parsed;
        for (const std::string& value : pool) {
          const auto text = with(*base, section, key, value);
          if (!text.has_value()) {
            break;  // the base lacks this section
          }
          if (const auto fp = fingerprints(*text)) {
            parsed.push_back(*fp);
            if (parsed.size() == 2) {
              break;
            }
          }
        }
        if (parsed.size() < 2) {
          continue;
        }
        live = true;
        const bool salt_moved = parsed[0].salt != parsed[1].salt;
        const bool spec_moved = parsed[0].spec != parsed[1].spec;
        switch (section.salt) {
          case SaltClass::kSalted:
            EXPECT_TRUE(salt_moved);
            break;
          case SaltClass::kFingerprint:
            EXPECT_TRUE(spec_moved);
            break;
          case SaltClass::kNever:
            EXPECT_FALSE(salt_moved || spec_moved);
            break;
        }
      }
      EXPECT_TRUE(live) << "no base manifest exercises this key";
    }
  }

  // The arrival file enters by content, never by path.
  const auto a = fingerprints(replay);
  const auto copy =
      fingerprints(*with(replay, section_named("arrivals"), "file",
                         times_a_copy));
  ASSERT_TRUE(a.has_value() && copy.has_value());
  EXPECT_EQ(a->salt, copy->salt);
}

/// The table's encoding of `field` in the last instance of `section`.
std::string encoded(const ManifestSection& section,
                    const ManifestField& field, Manifest manifest) {
  void* object = nullptr;
  for (std::size_t i = 0; void* next = section.object(manifest, i); ++i) {
    object = next;
  }
  std::string out;
  field.encode(field, out, object);
  return out;
}

TEST(Manifest, DocumentedDefaultsMatchAbsentKeys) {
  // Writing a key's documented default must parse like leaving it out.
  const ManifestText bases[] = {
      {{"sweep", {{"policies", "clone"}}},
       {"adaptive", {{"max_replications", "0"}}},
       {"trace", {}},
       {"stage.1", {{"tasks", "2"}, {"t_min", "3"}, {"beta", "1.5"}}},
       {"planner", {}},
       {"experiment", {}},
       {"output", {}},
       {"shard", {{"count", "2"}}}},
      {{"sweep", {{"policies", "clone"}}},
       {"experiment", {{"utility", "on"}, {"r_min", "0.5"}}},
       {"arrivals", {{"rate", "0.1"}}}},
  };
  for (const ManifestSection& section : manifest_sections()) {
    for (const ManifestField& field : section.fields) {
      if (field.fallback.empty() || field.required()) {
        continue;
      }
      const std::string key(field.key);
      SCOPED_TRACE("[" + std::string(section.heading) + "] " + key);
      bool checked = false;
      for (ManifestText base : bases) {
        Entries* entries = entries_of(base, section);
        if (entries == nullptr || find_key(*entries, key) != entries->end()) {
          continue;  // only an absent key takes its default
        }
        const auto text = with(base, section, key, std::string(field.fallback));
        EXPECT_EQ(encoded(section, field, parse_manifest(render(base))),
                  encoded(section, field, parse_manifest(render(*text))));
        checked = true;
      }
      EXPECT_TRUE(checked);
    }
  }
}

/// README's "Manifest key reference" rows: "| `[section]` | `key` |
/// default | bindable | salted |".
std::map<std::pair<std::string, std::string>, std::vector<std::string>>
readme_keys() {
  std::ifstream readme(CHRONOS_TEST_DIR "/../README.md");
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      rows;
  std::string line;
  while (std::getline(readme, line)) {
    if (!line.starts_with("| `[")) {
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream stream(line.substr(1));
    std::string cell;
    while (std::getline(stream, cell, '|')) {
      std::string text;
      for (const char c : cell) {
        if (c != '`') {
          text += c;
        }
      }
      const auto begin = text.find_first_not_of(' ');
      const auto end = text.find_last_not_of(' ');
      cells.push_back(begin == std::string::npos
                          ? ""
                          : text.substr(begin, end - begin + 1));
    }
    if (cells.size() >= 5) {
      const std::string section = cells[0].substr(1, cells[0].size() - 2);
      rows[{section, cells[1]}] = {cells[2], cells[3], cells[4]};
    }
  }
  return rows;
}

TEST(Manifest, ReadmeKeyReferenceMatchesTheTable) {
  const auto rows = readme_keys();
  ASSERT_FALSE(rows.empty()) << "README has no manifest key reference";
  std::set<std::pair<std::string, std::string>> table;
  for (const ManifestSection& section : manifest_sections()) {
    for (const ManifestField& field : section.fields) {
      const std::pair<std::string, std::string> id{
          std::string(section.heading), std::string(field.key)};
      table.insert(id);
      const auto row = rows.find(id);
      if (row == rows.end()) {
        ADD_FAILURE() << "README lacks [" << id.first << "] " << id.second;
        continue;
      }
      const std::vector<std::string>& cells = row->second;
      if (!field.fallback.empty()) {
        EXPECT_EQ(cells[0], field.fallback) << id.first << " " << id.second;
      }
      EXPECT_EQ(cells[1], field.kind == FieldKind::kBinding ? "yes" : "no")
          << id.first << " " << id.second;
      const char* salted = section.salt == SaltClass::kSalted ? "yes"
                           : section.salt == SaltClass::kFingerprint
                               ? "fingerprint"
                               : "no";
      EXPECT_EQ(cells[2], salted) << id.first << " " << id.second;
    }
  }
  for (const auto& [id, cells] : rows) {
    EXPECT_TRUE(table.count(id))
        << "README documents unknown key [" << id.first << "] " << id.second;
  }
}

TEST(Manifest, EndToEndRunMatchesHandBuiltSweep) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
name = tiny
policies = hadoop-ns, s-resume
replications = 2
seed = 33

[axis.theta]
values = 1e-4, 1e-3

[trace]
num_jobs = 5
duration_hours = 0.2
mean_tasks = 4
max_tasks = 10
seed = 5

[planner]
theta = @theta

[experiment]
utility = on
r_min = baseline
)");
  const SweepHooks hooks = make_hooks(manifest);

  const SweepResult serial =
      run_sweep(manifest.spec, hooks, {.threads = 1});
  const SweepResult parallel =
      run_sweep(manifest.spec, hooks, {.threads = 8});
  EXPECT_EQ(to_csv(serial), to_csv(parallel));

  ASSERT_EQ(serial.cells.size(), 4u);
  for (const CellResult& cell : serial.cells) {
    EXPECT_EQ(cell.aggregate.runs, 2u);
    EXPECT_EQ(cell.aggregate.jobs, 10u);  // 5 jobs x 2 replications
    EXPECT_EQ(cell.aggregate.utility.count, 2u);
  }
  // Hooks own a manifest copy, so theta resolves per cell.
  EXPECT_DOUBLE_EQ(serial.cells[0].point.value("theta"), 1e-4);
  EXPECT_DOUBLE_EQ(serial.cells[1].point.value("theta"), 1e-3);
}

TEST(Manifest, LoadRejectsMissingFile) {
  EXPECT_THROW(load_manifest("/nonexistent/manifest.ini"),
               PreconditionError);
}

}  // namespace
}  // namespace chronos::exp
