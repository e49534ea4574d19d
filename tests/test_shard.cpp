// Sharded multi-process sweeps: the cell partitioner (disjoint, covering,
// balanced — property-tested over random grids), journal merge (fingerprint
// validation, overlap dedup, conflict and gap detection), journal
// compaction (atomic, idempotent, resume-identical), the headline
// guarantee — per-shard journals, one shard crash-resumed, merge to reports
// byte-identical to a single unsharded run of manifests/tiny.ini, checked
// against committed goldens — and the sweeprun CLI's error behavior.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "trace/planner.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_shard_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// --- partitioner -----------------------------------------------------------

void expect_partition(std::size_t num_cells, std::size_t count) {
  std::vector<int> covered(num_cells, 0);
  std::size_t smallest = num_cells + 1;
  std::size_t largest = 0;
  std::size_t previous_end = 0;
  for (std::size_t index = 0; index < count; ++index) {
    const ShardRange range =
        shard_cell_range(num_cells, {.index = index, .count = count});
    ASSERT_LE(range.begin, range.end);
    ASSERT_LE(range.end, num_cells);
    // Contiguous in shard order: no gaps, no overlap.
    ASSERT_EQ(range.begin, previous_end)
        << num_cells << " cells / " << count << " shards, shard " << index;
    previous_end = range.end;
    for (std::size_t c = range.begin; c < range.end; ++c) {
      ++covered[c];
    }
    smallest = std::min(smallest, range.size());
    largest = std::max(largest, range.size());
  }
  ASSERT_EQ(previous_end, num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    ASSERT_EQ(covered[c], 1) << "cell " << c << " covered " << covered[c]
                             << " times";
  }
  if (num_cells > 0) {
    ASSERT_LE(largest - smallest, 1u) << "unbalanced partition";
  }
}

TEST(ShardPartition, RangesAreDisjointCoveringAndBalanced) {
  for (const std::size_t num_cells : {0u, 1u, 2u, 5u, 6u, 24u, 107u}) {
    for (std::size_t count = 1; count <= 16; ++count) {
      expect_partition(num_cells, count);
    }
  }
}

TEST(ShardPartition, RandomGridsPartitionCorrectly) {
  Rng rng(987654321);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const auto num_cells =
        static_cast<std::size_t>(rng.uniform_int(0, 5000));
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 64));
    expect_partition(num_cells, count);
  }
}

TEST(ShardPartition, ValidatesIndexAndCount) {
  EXPECT_THROW(ShardSpec({.index = 0, .count = 0}).validate(),
               PreconditionError);
  EXPECT_THROW(ShardSpec({.index = 3, .count = 3}).validate(),
               PreconditionError);
  EXPECT_NO_THROW(ShardSpec({.index = 2, .count = 3}).validate());
  EXPECT_THROW(shard_cell_range(10, {.index = 5, .count = 2}),
               PreconditionError);
}

TEST(ShardPartition, JournalPathsFollowTheSharedDirectoryConvention) {
  EXPECT_EQ(shard_journal_path("journals", "tiny", 0, 2),
            "journals/tiny.shard-1-of-2.journal");
  EXPECT_EQ(shard_journal_path("journals/", "tiny", 1, 2),
            "journals/tiny.shard-2-of-2.journal");
  EXPECT_EQ(shard_journal_path("", "fig3", 4, 5),
            "./fig3.shard-5-of-5.journal");
  EXPECT_THROW(shard_journal_path("d", "x", 2, 2), PreconditionError);
}

// --- a small real sweep (mirrors test_checkpoint.cpp) ----------------------

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "shard";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kSResume};
  spec.axes = {{.name = "x", .values = {0.0, 1.0, 2.0}, .labels = {}}};
  spec.replications = 2;
  spec.seed = 21;
  return spec;
}

SweepHooks small_hooks() {
  SweepHooks hooks;
  hooks.setup = [](const SweepPoint& point) {
    trace::TraceConfig config;
    config.num_jobs = 5;
    config.duration_hours = 0.2;
    config.mean_tasks = 4.0;
    config.max_tasks = 10;
    config.seed = 5;
    auto jobs = generate_trace(config);
    trace::PlannerConfig planner;
    const trace::SpotPriceModel prices;
    plan_trace(jobs, point.policy, planner, prices);
    SharedCell shared;
    shared.jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        std::move(jobs));
    return shared;
  };
  hooks.run = [](const SweepPoint& point, std::uint64_t seed,
                 const SharedCell& shared) {
    CellInstance instance;
    instance.jobs = shared.jobs;
    sim::NodeConfig node;
    node.containers = 4;
    instance.config.policy = point.policy;
    instance.config.cluster = sim::ClusterConfig::uniform(4, node);
    instance.config.seed = seed;
    return instance;
  };
  return hooks;
}

std::map<std::size_t, std::string> encoded_cells(
    const std::map<std::size_t, CellAggregate>& cells) {
  std::map<std::size_t, std::string> encoded;
  for (const auto& [cell, aggregate] : cells) {
    encoded.emplace(cell, encode_journal_entry({cell, aggregate}));
  }
  return encoded;
}

TEST(ShardedSweep, RunsOnlyTheOwnedCellRange) {
  const SweepSpec spec = small_spec();
  SweepOptions options;
  options.threads = 2;
  options.shard = {.index = 0, .count = 2};
  const SweepResult result = run_sweep(spec, small_hooks(), options);
  const ShardRange owned = shard_cell_range(spec.num_cells(), options.shard);
  ASSERT_EQ(result.cells.size(), owned.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].point.cell, owned.begin + i);
  }
}

TEST(ShardedSweep, AnyShardCountMergesToTheSingleRunResult) {
  const SweepSpec spec = small_spec();
  const SweepHooks hooks = small_hooks();
  const std::string fingerprint = spec_fingerprint(spec);
  const std::size_t cells = spec.num_cells();

  // Ground truth: one journaled, unsharded run.
  const std::string full_path = temp_path("full.journal");
  std::remove(full_path.c_str());
  SweepOptions full_options;
  full_options.threads = 2;
  full_options.journal = full_path;
  const std::string expected_csv =
      to_csv(run_sweep(spec, hooks, full_options));
  const auto expected_cells =
      encoded_cells(read_journal(full_path, fingerprint).cells);
  ASSERT_EQ(expected_cells.size(), cells);

  for (const std::size_t count : {1u, 2u, 3u, 4u, 7u}) {
    std::vector<std::string> paths;
    for (std::size_t index = 0; index < count; ++index) {
      const std::string path = temp_path(
          "part_" + std::to_string(count) + "_" + std::to_string(index));
      std::remove(path.c_str());
      SweepOptions options;
      // Vary the thread count per shard: numbers must not depend on it.
      options.threads = 1 + static_cast<int>(index % 3);
      options.shard = {.index = index, .count = count};
      options.journal = path;
      run_sweep(spec, hooks, options);
      paths.push_back(path);
    }
    const MergeStats merged = merge_journals(paths, fingerprint, cells);
    EXPECT_EQ(merged.duplicates, 0u);
    // The fused map is entry-for-entry the single run's journal...
    EXPECT_EQ(encoded_cells(merged.cells), expected_cells)
        << count << " shards";
    // ...and renders to the same report bytes.
    EXPECT_EQ(to_csv(assemble_result(spec, merged.cells)), expected_csv)
        << count << " shards";
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }
  }
  std::remove(full_path.c_str());
}

// --- merge error handling --------------------------------------------------

CellAggregate tagged_aggregate(double tag) {
  CellAggregate aggregate;
  aggregate.runs = 1;
  aggregate.jobs = 1;
  aggregate.pocd = {1, tag, 0.0, 0.0, tag, tag};
  return aggregate;
}

/// Writes a journal holding `entries` under `fingerprint`.
void write_journal(const std::string& path, const std::string& fingerprint,
                   const std::vector<JournalEntry>& entries) {
  JournalWriter writer(path, fingerprint, /*resume=*/false);
  for (const JournalEntry& entry : entries) {
    writer.append(entry);
  }
}

void expect_merge_error(const std::vector<std::string>& paths,
                        const std::string& fingerprint,
                        std::size_t num_cells, const std::string& needle) {
  try {
    merge_journals(paths, fingerprint, num_cells);
    FAIL() << "merge accepted; expected error containing '" << needle << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(JournalMerge, DetectsMissingForeignConflictGapAndOverflow) {
  const std::string a = temp_path("merge_a");
  const std::string b = temp_path("merge_b");

  // Missing journal.
  std::remove(a.c_str());
  expect_merge_error({a}, "fp1", 2, "missing or unreadable");

  // Foreign fingerprint.
  write_journal(a, "other", {{0, tagged_aggregate(1.0)}});
  expect_merge_error({a}, "fp1", 1, "fingerprint mismatch");

  // Conflict: same cell, different aggregate — a hard error naming both.
  write_journal(a, "fp1", {{0, tagged_aggregate(1.0)}});
  write_journal(b, "fp1", {{0, tagged_aggregate(2.0)}, {1, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 2, "different aggregates");

  // Gap: nobody finished cell 2.
  write_journal(b, "fp1", {{1, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 3, "missing cell(s): 2");

  // An entry beyond the grid: the journal is not this sweep's.
  write_journal(b, "fp1", {{5, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 2, "beyond the 2-cell grid");

  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(JournalMerge, DeduplicatesIdenticalOverlap) {
  // Two shards that (say, after a mis-configured overlap or a re-run with
  // count 1) both finished cell 0 with identical bytes: merge succeeds and
  // reports the duplicate instead of failing.
  const std::string a = temp_path("dup_a");
  const std::string b = temp_path("dup_b");
  write_journal(a, "fp1",
                {{0, tagged_aggregate(1.0)}, {1, tagged_aggregate(2.0)}});
  write_journal(b, "fp1",
                {{0, tagged_aggregate(1.0)}, {2, tagged_aggregate(3.0)}});
  const MergeStats merged = merge_journals({a, b}, "fp1", 3);
  EXPECT_EQ(merged.duplicates, 1u);
  EXPECT_EQ(merged.cells.size(), 3u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- compaction ------------------------------------------------------------

TEST(JournalCompaction, RewritesDedupedSortedAndDropsTornTail) {
  const std::string path = temp_path("compact.journal");
  // Entries out of order, cell 1 superseded once, plus a torn tail.
  write_journal(path, "fp1",
                {{2, tagged_aggregate(4.0)},
                 {1, tagged_aggregate(1.0)},
                 {0, tagged_aggregate(2.0)},
                 {1, tagged_aggregate(3.0)}});
  const std::string torn =
      encode_journal_entry({3, tagged_aggregate(5.0)});
  spill(path, slurp(path) + torn.substr(0, torn.size() / 2));

  const auto before = read_journal(path, "fp1");
  const CompactStats stats = compact_journal(path, "fp1");
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
  EXPECT_EQ(stats.bytes_after, slurp(path).size());

  // Same logical contents (cell 1 keeps its last value), tidied file: the
  // header plus one line per cell in index order.
  const auto after = read_journal(path, "fp1");
  EXPECT_TRUE(after.compatible);
  EXPECT_EQ(encoded_cells(after.cells), encoded_cells(before.cells));
  EXPECT_EQ(after.valid_bytes, stats.bytes_after);
  std::string expected = "chronos-journal v1 fp=fp1\n";
  expected += encode_journal_entry({0, tagged_aggregate(2.0)}) + "\n";
  expected += encode_journal_entry({1, tagged_aggregate(3.0)}) + "\n";
  expected += encode_journal_entry({2, tagged_aggregate(4.0)}) + "\n";
  EXPECT_EQ(slurp(path), expected);

  // Idempotent: compacting a compacted journal changes nothing.
  const CompactStats again = compact_journal(path, "fp1");
  EXPECT_EQ(again.bytes_before, again.bytes_after);
  EXPECT_EQ(slurp(path), expected);

  // No temp file left behind.
  std::FILE* leftover = std::fopen((path + ".compact.tmp").c_str(), "rb");
  EXPECT_EQ(leftover, nullptr);
  if (leftover != nullptr) std::fclose(leftover);
  std::remove(path.c_str());
}

TEST(JournalCompaction, RejectsMissingAndForeignJournals) {
  const std::string path = temp_path("compact_missing");
  std::remove(path.c_str());
  EXPECT_THROW(compact_journal(path, "fp1"), PreconditionError);
  spill(path, "chronos-journal v1 fp=other\n");
  EXPECT_THROW(compact_journal(path, "fp1"), PreconditionError);
  std::remove(path.c_str());
}

TEST(JournalCompaction, StaleTempFromACrashedCompactionIsConsumed) {
  // A crash between writing .compact.tmp and renaming it leaves the temp
  // behind. The next compaction must overwrite it and still end with
  // exactly one file: the compacted journal.
  const std::string path = temp_path("compact_stale.journal");
  const std::string temp = path + ".compact.tmp";
  write_journal(path, "fp1",
                {{1, tagged_aggregate(1.0)}, {0, tagged_aggregate(2.0)}});
  spill(temp, "half-written garbage from a crashed compaction");

  const CompactStats stats = compact_journal(path, "fp1");
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_TRUE(read_journal(path, "fp1").compatible);
  std::FILE* leftover = std::fopen(temp.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "stale temp survived compaction";
  if (leftover != nullptr) std::fclose(leftover);
  std::remove(path.c_str());
}

TEST(JournalCompaction, FailedCompactionStrandsNoTempAndKeepsTheJournal) {
  // Regression for a temp-file leak: every failure path must unlink the
  // temp and leave the original journal byte-identical.
  const std::string path = temp_path("compact_fail.journal");
  const std::string temp = path + ".compact.tmp";
  write_journal(path, "fp1", {{0, tagged_aggregate(1.0)}});
  const std::string original = slurp(path);

  // Fingerprint mismatch: fails before any temp exists.
  EXPECT_THROW(compact_journal(path, "fp2"), PreconditionError);
  std::FILE* leftover = std::fopen(temp.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr);
  if (leftover != nullptr) std::fclose(leftover);
  EXPECT_EQ(slurp(path), original);

  // Unwritable temp (the path is occupied by a directory): the write
  // fails mid-compaction, the journal must be untouched.
  ASSERT_TRUE(std::filesystem::create_directory(temp));
  EXPECT_THROW(compact_journal(path, "fp1"), PreconditionError);
  EXPECT_EQ(slurp(path), original);
  EXPECT_TRUE(read_journal(path, "fp1").compatible);
  std::filesystem::remove(temp);
  std::remove(path.c_str());
}

TEST(JournalCompaction, CompactedJournalResumesIdentically) {
  const SweepSpec spec = small_spec();
  const SweepHooks hooks = small_hooks();
  const std::string expected =
      to_csv(run_sweep(spec, hooks, {.threads = 1}));

  const std::string path = temp_path("compact_resume.journal");
  std::remove(path.c_str());
  SweepOptions options;
  options.threads = 2;
  options.journal = path;
  run_sweep(spec, hooks, options);

  // Tear the last entry (a crash), then compact: the torn tail is dropped
  // and the file is canonical. Resume must reproduce the same bytes as the
  // uncompacted resume would have.
  const std::string content = slurp(path);
  spill(path, content.substr(0, content.size() - 25));
  compact_journal(path, spec_fingerprint(spec));
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, options)), expected);
  std::remove(path.c_str());
}

// --- the tiny.ini golden equivalence ---------------------------------------

const std::string kGoldenDir = std::string(CHRONOS_TEST_DIR) + "/golden/";
const std::string kTinyManifest =
    std::string(CHRONOS_MANIFEST_DIR) + "/tiny.ini";

std::string read_golden(const std::string& name) {
  std::ifstream in(kGoldenDir + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << kGoldenDir + name;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void check_or_regold(const std::string& name, const std::string& actual) {
  if (std::getenv("CHRONOS_REGOLD") != nullptr) {
    write_file(kGoldenDir + name, actual);
    return;
  }
  EXPECT_EQ(actual, read_golden(name)) << "golden mismatch: " << name;
}

/// Runs every shard of manifests/tiny.ini into per-shard journals and
/// merges them. When `kill_shard` is set, that shard's journal is torn
/// mid-entry after its run and the shard re-run, exactly like a crashed
/// cluster machine that was restarted.
SweepResult run_tiny_sharded(const Manifest& manifest, std::size_t count,
                             std::optional<std::size_t> kill_shard) {
  const SweepHooks hooks = make_hooks(manifest);
  const std::string salt = manifest_journal_salt(manifest);
  const std::string fingerprint = spec_fingerprint(manifest.spec, salt);
  std::vector<std::string> paths;
  for (std::size_t index = 0; index < count; ++index) {
    const std::string path = shard_journal_path(
        ::testing::TempDir(), manifest.spec.name, index, count);
    std::remove(path.c_str());
    SweepOptions options;
    options.threads = 1 + static_cast<int>(index % 4);
    options.shard = {.index = index, .count = count};
    options.journal = path;
    options.journal_salt = salt;
    run_sweep(manifest.spec, hooks, options);

    if (kill_shard.has_value() && *kill_shard == index) {
      const std::string content = slurp(path);
      EXPECT_GT(content.size(), 40u);
      spill(path, content.substr(0, content.size() - 40));
      options.threads = 2;  // restart on a "different machine"
      run_sweep(manifest.spec, hooks, options);
    }
    paths.push_back(path);
  }
  const MergeStats merged =
      merge_journals(paths, fingerprint, manifest.spec.num_cells());
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
  return assemble_result(manifest.spec, merged.cells);
}

TEST(GoldenShardEquivalence, TinyManifestShardsMergeToTheCommittedBytes) {
  Manifest manifest;
  try {
    manifest = load_manifest(kTinyManifest);
  } catch (const std::exception& error) {
    FAIL() << error.what();
  }

  // Ground truth: one unsharded in-process run, pinned by committed
  // goldens so a regression in any layer (engine, journal, reports) shows
  // up as a byte diff.
  const SweepResult full =
      run_sweep(manifest.spec, make_hooks(manifest), {.threads = 4});
  const std::string csv = to_csv(full);
  const std::string json = to_json(full);
  const std::string table = to_table(full).str();
  check_or_regold("tiny_sweep.csv", csv);
  check_or_regold("tiny_sweep.json", json);
  check_or_regold("tiny_sweep.txt", table);

  // 2 shards, shard 0 killed mid-run and resumed; 5 shards clean.
  for (const auto& [count, kill] :
       std::vector<std::pair<std::size_t, std::optional<std::size_t>>>{
           {2, std::size_t{0}}, {5, std::nullopt}}) {
    const SweepResult merged = run_tiny_sharded(manifest, count, kill);
    EXPECT_EQ(to_csv(merged), csv) << count << " shards";
    EXPECT_EQ(to_json(merged), json) << count << " shards";
    EXPECT_EQ(to_table(merged).str(), table) << count << " shards";
  }
}

// --- sweeprun CLI error behavior -------------------------------------------

struct CommandResult {
  int status = -1;
  std::string output;  ///< stdout + stderr
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int raw = pclose(pipe);
  result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

const std::string kSweeprun = CHRONOS_SWEEPRUN_BIN;

TEST(SweeprunCli, MalformedManifestExitsNonzeroWithFileAndLine) {
  const std::string path = temp_path("bad_manifest.ini");
  spill(path, "[sweep]\npolicies = clone\n\nnot a key value line\n");
  const CommandResult result = run_command(kSweeprun + " " + path);
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("manifest line 4"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(SweeprunCli, MissingManifestFileExitsNonzero) {
  const std::string path = temp_path("no_such.ini");
  std::remove(path.c_str());
  const CommandResult result = run_command(kSweeprun + " " + path);
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open manifest"), std::string::npos)
      << result.output;
}

TEST(SweeprunCli, UnknownFlagsAndBadShardSpecsExitWithUsage) {
  const std::string manifest = temp_path("ok_manifest.ini");
  spill(manifest, "[sweep]\npolicies = clone\n");

  CommandResult result =
      run_command(kSweeprun + " " + manifest + " --frobnicate");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("sweeprun: unknown flag '--frobnicate'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos)
      << result.output;

  for (const char* bad : {"0/3", "4/3", "x/3", "2", "2/"}) {
    result = run_command(kSweeprun + " " + manifest + " --shard " +
                         std::string(bad));
    EXPECT_EQ(result.status, 2) << bad << ": " << result.output;
    EXPECT_NE(result.output.find("sweeprun: --shard wants I/N"),
              std::string::npos)
        << result.output;
  }

  // Flag diagnostics consistently carry the tool-name prefix so cluster
  // logs attribute them.
  result = run_command(kSweeprun + " " + manifest + " --journal");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("sweeprun: missing value after --journal"),
            std::string::npos)
      << result.output;

  result = run_command(kSweeprun + " " + manifest + " --merge --compact");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find(
                "sweeprun: --merge and --compact are mutually exclusive"),
            std::string::npos)
      << result.output;

  // Numeric flags parse the whole argument: trailing junk or a non-number
  // must not silently run with a default.
  for (const char* bad : {"--reps abc", "--threads 2x", "--reps -1",
                          "--threads 4294967298", "--connect-attempts 3z"}) {
    result = run_command(kSweeprun + " " + manifest + " " + bad);
    EXPECT_EQ(result.status, 2) << bad << ": " << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << bad << ": " << result.output;
  }

  // No manifest at all.
  result = run_command(kSweeprun);
  EXPECT_EQ(result.status, 2) << result.output;

  // --merge with no shard count anywhere.
  result = run_command(kSweeprun + " " + manifest + " --merge");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("--merge needs a shard count"),
            std::string::npos)
      << result.output;

  // --compact with no journal anywhere.
  result = run_command(kSweeprun + " " + manifest + " --compact");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("--compact needs a journal"),
            std::string::npos)
      << result.output;

  std::remove(manifest.c_str());
}

TEST(SweeprunCli, MergeFailsCleanlyOnMissingShardJournals) {
  const std::string manifest = temp_path("merge_manifest.ini");
  spill(manifest,
        "[sweep]\nname = lost\npolicies = clone\n[shard]\ncount = 2\ndir = " +
            ::testing::TempDir() + "\n");
  const CommandResult result =
      run_command(kSweeprun + " " + manifest + " --merge");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("missing or unreadable"), std::string::npos)
      << result.output;
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace chronos::exp
