// sweeprun: run an experiment grid described by a manifest file.
//
// New grids become config files instead of C++ binaries: the manifest
// declares the axes, policies, replication policy (fixed or CI-adaptive),
// trace/planner templates and outputs (see src/exp/manifest.h for the
// format; checked-in examples live under manifests/).
//
//   sweeprun MANIFEST [--threads N] [--reps N] [--journal PATH] [--fresh]
//            [--csv PATH] [--json PATH] [--no-table]
//            [--shard I/N] [--shard-dir DIR] [--merge [N]] [--compact]
//            [--metrics-out PATH] [--trace-out PATH] [--progress]
//            [--controller ADDR | --worker ADDR] [--name NAME]
//            [--lease-cells N] [--heartbeat-ms N] [--lease-timeout-ms N]
//            [--progress-timeout-ms N] [--worker-timeout-ms N]
//            [--connect-attempts N] [--fault SPEC]
//
// Distributed sweeps: `--controller ADDR` serves the manifest's grid as
// cell leases over a unix/tcp socket (src/fabric/), journals every result
// as it lands, and renders the usual reports when all cells are in —
// byte-identical to a single-process run. `--worker ADDR` connects to that
// controller (same manifest!), computes leased cells and streams them
// back. Workers may join late, crash, or hang: the controller reassigns
// their unfinished cells and deduplicates re-deliveries byte-exactly.
// `--fault SPEC` injects deterministic failures (see src/fabric/fault.h);
// it exists for tests and CI.
//
// SIGINT/SIGTERM drain every mode gracefully: the current replication
// round (or fabric event loop) winds down, finished cells are flushed and
// fsynced to the journal, and the process exits with status 130 — a rerun
// resumes exactly where it stopped.
//
// Observability: --metrics-out dumps the process metrics registry as JSON
// after a successful run, --trace-out records Chrome-trace-event JSON
// (open it at https://ui.perfetto.dev), and --progress logs a throttled
// cells/replications/ETA line to stderr. All three are observational only:
// reports and journal bytes are identical with or without them.
//
// CLI flags override the manifest's [output] and [shard] sections and the
// replication count. With a journal configured, finished cells stream to it
// and a rerun after a crash (or a kill) skips them — the final reports are
// byte-identical to an uninterrupted run at any thread count.
//
// Cluster sharding: `--shard I/N` runs only shard I's deterministic cell
// range and journals it to `<shard-dir>/<name>.shard-I-of-N.journal`; run
// the N shards on N machines against one shared directory, then `--merge`
// on any of them validates the shard fingerprints, fuses the entries
// (overlap/gap/conflict are hard errors) and renders reports byte-identical
// to a single unsharded run. `--compact` rewrites a journal as its minimal
// deduplicated equivalent (atomic rename), which resumes identically.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "common/log.h"
#include "common/numeric.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/threadpool.h"
#include "fabric/controller.h"
#include "fabric/fault.h"
#include "fabric/worker.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace chronos;  // NOLINT

/// Raised by the SIGINT/SIGTERM handler; every long-running mode polls it
/// and drains: journal flushed + fsynced, exit code 130.
std::atomic<bool> g_cancel{false};

void handle_shutdown_signal(int) { g_cancel.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // Fabric peers can vanish mid-write; transport reports that as a send
  // error instead of letting SIGPIPE kill the process.
  signal(SIGPIPE, SIG_IGN);
}

constexpr int kInterruptedExit = 130;

struct Cli {
  std::string manifest_path;
  int threads = 0;  ///< 0 = all hardware threads
  int reps = 0;     ///< 0 = manifest value
  std::string journal;
  std::string csv;
  std::string json;
  std::string shard_dir;
  bool fresh = false;
  bool no_table = false;
  std::size_t shard_index = 0;  ///< 0-based; valid when shard_count > 0
  std::size_t shard_count = 0;  ///< 0 = no --shard flag
  bool merge = false;
  std::size_t merge_count = 0;  ///< 0 = from --shard or the manifest
  bool compact = false;
  std::string metrics_out;  ///< write the metrics registry JSON here
  std::string trace_out;    ///< write Chrome trace-event JSON here
  bool progress = false;    ///< throttled progress lines on stderr

  std::string controller;   ///< --controller endpoint (fabric server)
  std::string worker;       ///< --worker endpoint (fabric client)
  std::string worker_name = "worker";
  std::size_t lease_cells = 4;
  std::size_t heartbeat_ms = 500;
  std::size_t lease_timeout_ms = 5000;
  std::size_t progress_timeout_ms = 0;  ///< 0 = no progress deadline
  std::size_t worker_timeout_ms = 30000;
  int connect_attempts = 10;
  std::string fault;        ///< deterministic fault plan (tests/CI)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s MANIFEST [--threads N] [--reps N] "
               "[--journal PATH] [--fresh] [--csv PATH] [--json PATH] "
               "[--no-table] [--shard I/N] [--shard-dir DIR] [--merge [N]] "
               "[--compact] [--metrics-out PATH] [--trace-out PATH] "
               "[--progress] [--controller ADDR | --worker ADDR] "
               "[--name NAME] [--lease-cells N] [--heartbeat-ms N] "
               "[--lease-timeout-ms N] [--progress-timeout-ms N] "
               "[--worker-timeout-ms N] "
               "[--connect-attempts N] [--fault SPEC]\n",
               argv0);
  std::exit(2);
}

bool parse_size(const std::string& text, std::size_t& out) {
  if (text.empty()) {
    return false;
  }
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc() &&
         result.ptr == text.data() + text.size();
}

/// Full-string parse of a count that must fit an int.
bool parse_int(const std::string& text, int& out) {
  std::size_t parsed = 0;
  if (!parse_size(text, parsed) ||
      parsed > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  out = static_cast<int>(parsed);
  return true;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sweeprun: missing value after %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (!parse_int(value(i), cli.threads)) usage(argv[0]);
    } else if (arg == "--reps") {
      if (!parse_int(value(i), cli.reps)) usage(argv[0]);
    } else if (arg == "--journal") {
      cli.journal = value(i);
    } else if (arg == "--csv") {
      cli.csv = value(i);
    } else if (arg == "--json") {
      cli.json = value(i);
    } else if (arg == "--shard-dir") {
      cli.shard_dir = value(i);
    } else if (arg == "--shard") {
      // "I/N", 1-based: --shard 2/5 is the second of five shards.
      const std::string spec = value(i);
      const std::size_t slash = spec.find('/');
      std::size_t index = 0;
      std::size_t count = 0;
      if (slash == std::string::npos ||
          !parse_size(spec.substr(0, slash), index) ||
          !parse_size(spec.substr(slash + 1), count) || index < 1 ||
          index > count) {
        std::fprintf(stderr,
                     "sweeprun: --shard wants I/N with 1 <= I <= N, "
                     "got '%s'\n",
                     spec.c_str());
        std::exit(2);
      }
      cli.shard_index = index - 1;
      cli.shard_count = count;
    } else if (arg == "--merge") {
      cli.merge = true;
      // Optional shard count: "--merge 5". Without it the count comes from
      // --shard I/N or the manifest's [shard] section. Parsed into a local
      // so a non-numeric next argument (say, a manifest path starting with
      // a digit) cannot leave a half-parsed count behind.
      std::size_t count = 0;
      if (i + 1 < argc && parse_size(argv[i + 1], count) && count > 0) {
        cli.merge_count = count;
        ++i;
      }
    } else if (arg == "--compact") {
      cli.compact = true;
    } else if (arg == "--fresh") {
      cli.fresh = true;
    } else if (arg == "--no-table") {
      cli.no_table = true;
    } else if (arg == "--metrics-out") {
      cli.metrics_out = value(i);
    } else if (arg == "--trace-out") {
      cli.trace_out = value(i);
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (arg == "--controller") {
      cli.controller = value(i);
    } else if (arg == "--worker") {
      cli.worker = value(i);
    } else if (arg == "--name") {
      cli.worker_name = value(i);
    } else if (arg == "--lease-cells") {
      if (!parse_size(value(i), cli.lease_cells) || cli.lease_cells < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--heartbeat-ms") {
      if (!parse_size(value(i), cli.heartbeat_ms) || cli.heartbeat_ms < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--lease-timeout-ms") {
      if (!parse_size(value(i), cli.lease_timeout_ms) ||
          cli.lease_timeout_ms < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--progress-timeout-ms") {
      if (!parse_size(value(i), cli.progress_timeout_ms)) {
        usage(argv[0]);
      }
    } else if (arg == "--worker-timeout-ms") {
      if (!parse_size(value(i), cli.worker_timeout_ms) ||
          cli.worker_timeout_ms < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--connect-attempts") {
      if (!parse_int(value(i), cli.connect_attempts) ||
          cli.connect_attempts < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--fault") {
      cli.fault = value(i);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "sweeprun: unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    } else if (cli.manifest_path.empty()) {
      cli.manifest_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (cli.manifest_path.empty()) {
    usage(argv[0]);
  }
  if (cli.merge && cli.compact) {
    std::fprintf(stderr,
                 "sweeprun: --merge and --compact are mutually exclusive\n");
    std::exit(2);
  }
  if (!cli.controller.empty() && !cli.worker.empty()) {
    std::fprintf(stderr,
                 "sweeprun: --controller and --worker are mutually "
                 "exclusive\n");
    std::exit(2);
  }
  if ((!cli.controller.empty() || !cli.worker.empty()) &&
      (cli.merge || cli.compact || cli.shard_count > 0)) {
    std::fprintf(stderr,
                 "sweeprun: fabric modes do not combine with "
                 "--merge/--compact/--shard\n");
    std::exit(2);
  }
  if ((!cli.metrics_out.empty() || !cli.trace_out.empty()) &&
      !obs::compiled_in()) {
    std::fprintf(stderr,
                 "sweeprun: --metrics-out/--trace-out need an observability "
                 "build (this binary was built with CHRONOS_OBS=OFF)\n");
    std::exit(2);
  }
  return cli;
}

/// --progress reporter: one throttled stderr line through the log layer.
/// The final line (every owned cell done) always prints; intermediate
/// updates are rate-limited to one per ~250 ms.
class ProgressPrinter {
 public:
  void report(const exp::SweepProgress& progress) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const bool final = progress.cells_done >= progress.cells_total;
    if (!final && reported_once_ &&
        now - last_ < std::chrono::milliseconds(250)) {
      return;
    }
    reported_once_ = true;
    last_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    std::string line = "sweep: " + std::to_string(progress.cells_done) +
                       "/" + std::to_string(progress.cells_total) +
                       " cells, " +
                       std::to_string(progress.replications_done) + " reps";
    if (elapsed > 0.0 && progress.replications_done > 0) {
      const double rate =
          static_cast<double>(progress.replications_done) / elapsed;
      line += ", " + numeric::format_double_fixed(rate, 1) + " reps/s";
    }
    // ETA from cells this run actually finished (resumed cells cost ~0).
    const std::size_t fresh_done =
        progress.cells_done - progress.cells_resumed;
    const std::size_t remaining =
        progress.cells_total - progress.cells_done;
    if (fresh_done > 0 && remaining > 0 && elapsed > 0.0) {
      const double eta =
          elapsed / static_cast<double>(fresh_done) *
          static_cast<double>(remaining);
      line += ", eta ~" + numeric::format_double_fixed(eta, 1) + "s";
    }
    log::write(log::Level::kInfo, line);
  }

 private:
  std::mutex mu_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last_{};
  bool reported_once_ = false;
};

/// Dumps the metrics registry / trace buffer after a successful run.
void write_obs_outputs(const Cli& cli) {
  if (!cli.metrics_out.empty()) {
    exp::write_file(cli.metrics_out, obs::metrics_json());
    std::printf("metrics written to %s\n", cli.metrics_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    obs::write_trace_json(cli.trace_out);
    std::printf("trace written to %s\n", cli.trace_out.c_str());
  }
}

void render_reports(const exp::SweepResult& result,
                    const exp::ManifestOutputs& outputs) {
  if (outputs.table) {
    exp::to_table(result).print();
  }
  if (!outputs.csv.empty()) {
    exp::write_file(outputs.csv, exp::to_csv(result));
    std::printf("\nCSV written to %s\n", outputs.csv.c_str());
  }
  if (!outputs.json.empty()) {
    exp::write_file(outputs.json, exp::to_json(result));
    std::printf("\nJSON written to %s\n", outputs.json.c_str());
  }
}

/// --compact: rewrite the target journal (the shard's with --shard, the
/// configured one otherwise) as its minimal equivalent.
int run_compact(const exp::Manifest& manifest, const Cli& cli,
                const std::string& fingerprint,
                const std::string& shard_dir) {
  std::string path;
  if (cli.shard_count > 0) {
    path = exp::shard_journal_path(shard_dir, manifest.spec.name,
                                   cli.shard_index, cli.shard_count);
  } else {
    path = manifest.outputs.journal;
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "sweeprun: --compact needs a journal (a [output] journal, "
                 "--journal, or --shard I/N)\n");
    return 2;
  }
  const exp::CompactStats stats = exp::compact_journal(path, fingerprint);
  std::printf("compacted %s: %zu entr%s, %zu -> %zu bytes\n", path.c_str(),
              stats.entries, stats.entries == 1 ? "y" : "ies",
              stats.bytes_before, stats.bytes_after);
  return 0;
}

/// --merge: fuse every shard journal and render the full-grid reports.
int run_merge(const exp::Manifest& manifest, const Cli& cli,
              const std::string& fingerprint,
              const std::string& shard_dir) {
  std::size_t count = cli.merge_count;
  if (count == 0) {
    count = cli.shard_count;
  }
  if (count == 0 && manifest.shard.count > 0) {
    count = static_cast<std::size_t>(manifest.shard.count);
  }
  if (count == 0) {
    std::fprintf(stderr,
                 "sweeprun: --merge needs a shard count (--merge N, "
                 "--shard I/N, or a [shard] count in the manifest)\n");
    return 2;
  }
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < count; ++i) {
    paths.push_back(exp::shard_journal_path(shard_dir, manifest.spec.name,
                                            i, count));
  }
  const std::size_t cells = manifest.spec.num_cells();
  const exp::MergeStats merged =
      exp::merge_journals(paths, fingerprint, cells);
  std::printf("merged %zu shard journal(s): %zu cells", count, cells);
  if (merged.duplicates > 0) {
    std::printf(", %zu duplicate entr%s dropped", merged.duplicates,
                merged.duplicates == 1 ? "y" : "ies");
  }
  std::printf("\n\n");

  // A fused journal is a valid unsharded journal for the same sweep: write
  // one when the manifest asks for a journal, so later unsharded runs (or
  // re-renders) can resume from the merged state.
  if (!manifest.outputs.journal.empty()) {
    exp::JournalWriter writer(manifest.outputs.journal, fingerprint,
                              /*resume=*/false);
    for (const auto& [cell, aggregate] : merged.cells) {
      writer.append({cell, aggregate});
    }
    std::printf("fused journal written to %s\n\n",
                manifest.outputs.journal.c_str());
  }

  render_reports(exp::assemble_result(manifest.spec, merged.cells),
                 manifest.outputs);
  return 0;
}

/// --controller: serve the grid as cell leases, journal results as they
/// land, render the usual reports once every cell is in.
int run_controller_mode(const exp::Manifest& manifest, const Cli& cli,
                        const std::string& fingerprint) {
  const std::size_t cells = manifest.spec.num_cells();

  // Resume support works exactly like run_sweep's: journaled cells are
  // never leased again, and newly finished cells append as they arrive —
  // so a controller crash (or a SIGINT drain) costs only in-flight work.
  std::map<std::size_t, exp::CellAggregate> resumed;
  std::unique_ptr<exp::JournalWriter> writer;
  if (!manifest.outputs.journal.empty()) {
    if (cli.fresh) {
      std::remove(manifest.outputs.journal.c_str());
    }
    const exp::JournalContents contents =
        exp::read_journal(manifest.outputs.journal, fingerprint);
    if (contents.compatible) {
      for (const auto& [cell, aggregate] : contents.cells) {
        if (cell < cells) {
          resumed.emplace(cell, aggregate);
        }
      }
    }
    writer = std::make_unique<exp::JournalWriter>(
        manifest.outputs.journal, fingerprint, contents.compatible,
        contents.valid_bytes);
  }

  fabric::ControllerConfig config;
  config.fingerprint = fingerprint;
  config.num_cells = cells;
  for (std::size_t c = 0; c < cells; ++c) {
    if (resumed.find(c) == resumed.end()) {
      config.todo.push_back(c);
    }
  }
  config.max_lease_cells = cli.lease_cells;
  config.heartbeat_ms = cli.heartbeat_ms;
  config.lease_timeout_ms = cli.lease_timeout_ms;
  config.progress_timeout_ms = cli.progress_timeout_ms;
  config.worker_timeout_ms = cli.worker_timeout_ms;

  std::printf("controller '%s' on %s: %zu cells (%zu resumed), lease <= "
              "%zu cells, heartbeat %zu ms\n",
              manifest.spec.name.c_str(), cli.controller.c_str(), cells,
              resumed.size(), cli.lease_cells, cli.heartbeat_ms);
  std::fflush(stdout);

  fabric::ControllerRunResult run;
  try {
    run = fabric::run_controller(
        cli.controller, config,
        [&writer](const exp::JournalEntry& entry) {
          if (writer != nullptr) {
            writer->append(entry);
          }
        },
        &g_cancel);
  } catch (const exp::SweepCancelled&) {
    if (writer != nullptr) {
      writer->sync();
    }
    std::fprintf(stderr,
                 "sweeprun: interrupted; journal flushed and synced — rerun "
                 "to resume\n");
    return kInterruptedExit;
  }
  if (writer != nullptr) {
    writer->sync();
  }

  std::printf("  fabric: %llu workers joined, %llu lost; %llu leases, "
              "%llu expired; %llu cells reassigned, %llu duplicate "
              "deliveries\n",
              static_cast<unsigned long long>(run.stats.workers_joined),
              static_cast<unsigned long long>(run.stats.workers_lost),
              static_cast<unsigned long long>(run.stats.leases_granted),
              static_cast<unsigned long long>(run.stats.leases_expired),
              static_cast<unsigned long long>(run.stats.cells_reassigned),
              static_cast<unsigned long long>(run.stats.duplicates));

  std::map<std::size_t, exp::CellAggregate> all = std::move(resumed);
  for (const auto& [cell, aggregate] : run.cells) {
    all.emplace(cell, aggregate);
  }
  render_reports(exp::assemble_result(manifest.spec, all),
                 manifest.outputs);
  return 0;
}

/// --worker: compute leased cells for a controller serving the same
/// manifest.
int run_worker_mode(const exp::Manifest& manifest, const Cli& cli,
                    const std::string& fingerprint) {
  fabric::WorkerOptions options;
  options.address = cli.worker;
  options.fingerprint = fingerprint;
  options.name = cli.worker_name;
  options.want = cli.lease_cells;
  options.connect_attempts = cli.connect_attempts;
  options.fault = fabric::parse_fault_plan(cli.fault);
  options.cancel = &g_cancel;
  const fabric::WorkerOutcome outcome =
      fabric::run_worker(manifest.spec, exp::make_hooks(manifest), options);
  const char* text = "lost";
  switch (outcome) {
    case fabric::WorkerOutcome::kDone:
      text = "done";
      break;
    case fabric::WorkerOutcome::kLost:
      text = "lost";
      break;
    case fabric::WorkerOutcome::kRejected:
      text = "rejected";
      break;
    case fabric::WorkerOutcome::kFaultStop:
      text = "fault-stop";
      break;
    case fabric::WorkerOutcome::kCancelled:
      text = "cancelled";
      break;
  }
  std::fprintf(stderr, "sweeprun: worker '%s' %s\n",
               cli.worker_name.c_str(), text);
  return fabric::worker_exit_code(outcome);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  install_signal_handlers();
  exp::Manifest manifest;
  try {
    manifest = exp::load_manifest(cli.manifest_path);
  } catch (const std::exception& error) {
    // Parse errors are already line-numbered; prefix the file so a cluster
    // log names which manifest was bad.
    std::fprintf(stderr, "sweeprun: %s: %s\n", cli.manifest_path.c_str(),
                 error.what());
    return 1;
  }
  if (cli.progress) {
    log::set_prefix(true);  // progress lines carry timestamp + thread id
  }
  if (!cli.trace_out.empty()) {
    obs::start_tracing();
    obs::set_trace_thread_name("main");
  }
  ProgressPrinter progress_printer;
  try {
    if (cli.reps > 0) {
      manifest.spec.replications = cli.reps;
      if (manifest.spec.adaptive.enabled() &&
          manifest.spec.adaptive.max_replications < cli.reps) {
        manifest.spec.adaptive.max_replications = cli.reps;
      }
    }
    if (!cli.csv.empty()) manifest.outputs.csv = cli.csv;
    if (!cli.json.empty()) manifest.outputs.json = cli.json;
    if (!cli.journal.empty()) manifest.outputs.journal = cli.journal;
    if (cli.no_table) manifest.outputs.table = false;
    const std::string shard_dir =
        cli.shard_dir.empty() ? manifest.shard.dir : cli.shard_dir;

    // The salt extends the journal fingerprint to the trace/planner/
    // experiment templates: editing them invalidates an old journal
    // instead of silently resuming the old configuration's results.
    const std::string salt = exp::manifest_journal_salt(manifest);
    const std::string fingerprint =
        exp::spec_fingerprint(manifest.spec, salt);

    if (cli.compact) {
      const int rc = run_compact(manifest, cli, fingerprint, shard_dir);
      if (rc == 0) write_obs_outputs(cli);
      return rc;
    }
    if (cli.merge) {
      const int rc = run_merge(manifest, cli, fingerprint, shard_dir);
      if (rc == 0) write_obs_outputs(cli);
      return rc;
    }
    if (!cli.controller.empty()) {
      const int rc = run_controller_mode(manifest, cli, fingerprint);
      if (rc == 0) write_obs_outputs(cli);
      return rc;
    }
    if (!cli.worker.empty()) {
      const int rc = run_worker_mode(manifest, cli, fingerprint);
      if (rc == 0) write_obs_outputs(cli);
      return rc;
    }

    exp::SweepOptions options;
    options.threads = cli.threads;
    options.journal = manifest.outputs.journal;
    options.journal_salt = salt;
    options.cancel = &g_cancel;
    if (cli.progress) {
      options.on_progress = [&progress_printer](
                                const exp::SweepProgress& progress) {
        progress_printer.report(progress);
      };
    }
    const bool sharded = cli.shard_count > 0;
    if (sharded) {
      options.shard.index = cli.shard_index;
      options.shard.count = cli.shard_count;
      // Each shard owns its journal inside the shared directory; the
      // manifest's [output] journal names the merge product instead.
      std::error_code ignored;
      std::filesystem::create_directories(shard_dir, ignored);
      options.journal = exp::shard_journal_path(
          shard_dir, manifest.spec.name, cli.shard_index, cli.shard_count);
    }
    if (cli.fresh && !options.journal.empty()) {
      std::remove(options.journal.c_str());
    }

    const std::size_t cells = manifest.spec.num_cells();
    const exp::ShardRange owned = shard_cell_range(cells, options.shard);
    std::size_t resumed = 0;
    if (!options.journal.empty()) {
      const auto contents = exp::read_journal(options.journal, fingerprint);
      if (contents.found && !contents.compatible) {
        std::fprintf(stderr,
                     "sweeprun: note: journal '%s' belongs to a different "
                     "sweep; starting fresh\n",
                     options.journal.c_str());
      }
      for (const auto& [cell, aggregate] : contents.cells) {
        resumed += owned.contains(cell) ? 1 : 0;
      }
    }

    std::printf("sweep '%s': %zu cells x %d replication(s)%s\n",
                manifest.spec.name.c_str(), cells,
                manifest.spec.replications,
                manifest.spec.adaptive.enabled() ? " (adaptive)" : "");
    if (manifest.spec.adaptive.enabled()) {
      std::printf("  adaptive: %s CI95 <= %g, batches of %d, cap %d\n",
                  manifest.spec.adaptive.metric.c_str(),
                  manifest.spec.adaptive.target_ci95,
                  manifest.spec.adaptive.batch,
                  manifest.spec.adaptive.max_replications);
    }
    if (sharded) {
      std::printf("  shard %zu/%zu: cells [%zu, %zu)\n",
                  cli.shard_index + 1, cli.shard_count, owned.begin,
                  owned.end);
    }
    if (resumed > 0) {
      std::printf("  resuming from journal: %zu/%zu cells already done\n",
                  resumed, owned.size());
    }

    const auto start = std::chrono::steady_clock::now();
    const exp::SweepResult result =
        exp::run_sweep(manifest.spec, exp::make_hooks(manifest), options);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf("  finished in %.3f s\n\n", seconds);

    if (sharded) {
      // Partial grids render no reports; --merge renders the full ones
      // once every shard journal is in the shared directory.
      std::printf("shard journal written to %s; run --merge once all %zu "
                  "shards are done\n",
                  options.journal.c_str(), cli.shard_count);
      write_obs_outputs(cli);
      return 0;
    }
    render_reports(result, manifest.outputs);
    write_obs_outputs(cli);
    return 0;
  } catch (const exp::SweepCancelled&) {
    // The engine stopped at a round barrier with every finished cell
    // journaled, flushed and fsynced; a rerun resumes from there.
    std::fprintf(stderr,
                 "sweeprun: interrupted; journal flushed and synced — rerun "
                 "to resume\n");
    return kInterruptedExit;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweeprun: %s\n", error.what());
    return 1;
  }
}
