// fabric_cells: an in-process fabric::run_controller thread on a unix
// socket with two fabric::run_worker threads, serving a grid of 256 tiny cells with
// on_cell wired to a journal (as `sweeprun --controller` does). Cells are
// cheap, so the wall time is lease/result round trips.
#include <cstdio>
#include <chrono>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cells.h"
#include "exp/checkpoint.h"
#include "exp/report.h"
#include "fabric/controller.h"
#include "fabric/worker.h"
#include "obs/trace.h"
#include "workloads.h"

namespace e2e {

namespace exp = chronos::exp;
namespace fabric = chronos::fabric;

namespace {

constexpr const char* kManifest = "e2ebench/fabric_cells.ini";
constexpr int kWorkers = 2;

struct FabricUnit {
  fabric::ControllerRunResult run;
  std::vector<fabric::WorkerOutcome> outcomes;
};

}  // namespace

Outcome run_fabric_cells(const Options& options) {
  Outcome out;
  Checks& checks = out.checks;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  const LoadedManifest loaded = load_seeded(kManifest, options.seed);
  const exp::SweepSpec& spec = loaded.manifest.spec;
  const std::size_t num_cells = spec.num_cells();
  HookProbe probe(num_cells);
  const exp::SweepHooks hooks = probe.instrument(loaded.hooks);
  // Side work: set-ups (load, seed, make_hooks, fingerprint) and the
  // setup hook's planning replayed through the planner service.
  ManifestSide side(kManifest, options.seed, loaded, probe);

  // Reference: every cell computed locally by exp::run_single_cell, outside
  // the timed region. The fabric's merged journal entries must match these
  // bytes exactly.
  std::vector<std::string> reference(num_cells);
  const double local_start = now_s();
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    reference[cell] = exp::encode_journal_entry(
        {cell, exp::run_single_cell(spec, loaded.hooks, cell)});
  }
  const double local_s = now_s() - local_start;

  fabric::ControllerConfig config;
  config.fingerprint = loaded.fingerprint;
  config.num_cells = num_cells;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    config.todo.push_back(cell);
  }

  const std::string journal = options.work_dir + "/fabric.journal";
  Samples rtt_ms;
  CellTotals first{};
  std::string first_csv;
  int unit_index = 0;
  auto unit = [&](int) {
    const std::string socket_path = options.work_dir + "/fabric-" +
                                    std::to_string(unit_index++) + ".sock";
    const std::string address = "unix:" + socket_path;
    probe.reset_stamps();
    std::vector<double> unit_rtt;
    unit_rtt.reserve(num_cells);
    FabricUnit fab;
    fab.outcomes.assign(kWorkers, fabric::WorkerOutcome::kLost);
    {
      exp::JournalWriter writer(journal, loaded.fingerprint, /*resume=*/false);
      std::vector<std::thread> workers;
      std::vector<std::exception_ptr> errors(kWorkers);
      std::exception_ptr controller_error;
      std::thread controller([&] {
        try {
          chronos::obs::set_trace_thread_name("controller");
          chronos::obs::TraceSpan span("fabric.run_controller", "fabric");
          fab.run = fabric::run_controller(
              address, config,
              [&](const exp::JournalEntry& entry) {
                writer.append(entry);
                const std::uint64_t first_ns =
                    probe.first_call_ns(entry.cell);
                unit_rtt.push_back(
                    first_ns == 0
                        ? -1.0
                        : static_cast<double>(now_ns() - first_ns) * 1e-6);
              },
              nullptr);
        } catch (...) {
          controller_error = std::current_exception();
        }
      });
      // Start the workers once the controller's socket exists, so both
      // join the sweep from its first lease instead of one of them finding
      // it already finished.
      const double deadline = now_s() + 10.0;
      while (!std::filesystem::exists(socket_path) && now_s() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
          try {
            fabric::WorkerOptions worker;
            worker.address = address;
            worker.fingerprint = loaded.fingerprint;
            worker.connect_attempts = 1000;
            worker.connect_backoff_ms = 1;
            worker.name = "worker-";
            worker.name += std::to_string(w);
            chronos::obs::set_trace_thread_name(worker.name);
            chronos::obs::TraceSpan span("fabric.run_worker", "fabric");
            fab.outcomes[w] = fabric::run_worker(spec, hooks, worker);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
      for (std::thread& thread : workers) {
        thread.join();
      }
      controller.join();
      writer.sync();
      if (controller_error) {
        std::rethrow_exception(controller_error);
      }
      for (const std::exception_ptr& error : errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
    }
    std::remove(socket_path.c_str());

    for (int w = 0; w < kWorkers; ++w) {
      checks.check(fab.outcomes[w] == fabric::WorkerOutcome::kDone,
                   "worker " + std::to_string(w) + " finished cleanly");
    }
    checks.check(fab.run.cells.size() == num_cells,
                 "controller merged every cell");
    for (const auto& [cell, aggregate] : fab.run.cells) {
      checks.check(exp::encode_journal_entry({cell, aggregate}) ==
                       reference[cell],
                   "fabric cell " + std::to_string(cell) +
                       " matches exp::run_single_cell bytes");
    }
    // Round trips are reported from untraced units only.
    const bool traced = chronos::obs::tracing_enabled();
    for (const double rtt : unit_rtt) {
      checks.check(rtt >= 0.0, "cell result preceded by a worker hook call");
      if (!traced) {
        rtt_ms.add(rtt);
      }
    }
    const std::string csv =
        exp::to_csv(exp::assemble_result(spec, fab.run.cells));
    const CellTotals t = totals(fab.run.cells);
    if (first_csv.empty()) {
      first_csv = csv;
      first = t;
    }
    checks.check(csv == first_csv, "same-seed fabric sweep reproduces CSV");
    return UnitOutput{t.jobs, t.events};
  };
  const Measured m = measure_workload(options, 5, unit, side);
  std::remove(journal.c_str());
  const Phase& p = m.untraced;
  side.finish(checks);
  const Samples& latency = side.latency_us();

  checks.check(rtt_ms.beyond(0.95) >= 10, "p95 has >= 10 samples beyond");

  e2e["setup_s"] = side.setup_s().median();
  e2e["wall_s"] = p.wall_s.median();
  e2e["sim_jobs_per_s"] = p.jobs_per_s.median();
  e2e["events_per_s"] = p.events_per_s.median();
  e2e["peak_rss_mb"] = p.first_unit_peak_rss_kb / 1024.0;
  e2e["pocd"] = first.pocd;
  e2e["cost_per_job"] = first.cost;
  out.end_to_end = end_to_end_metrics(e2e);
  out.determinism = fnv_hex(first_csv) + "/" + side.plans_fingerprint();

  const double cells_per_s = static_cast<double>(num_cells) / p.wall_s.median();
  std::printf("  untraced: %s; %zu cells, %d workers\n",
              describe(p).c_str(), num_cells, kWorkers);
  std::printf("  cells_per_s %.2f cells/s, cell_rtt_ms.p50 %.4f ms, "
              "cell_rtt_ms.p95 %.4f ms (%zu samples, %zu beyond p95)\n",
              cells_per_s, rtt_ms.median(), rtt_ms.quantile(0.95),
              rtt_ms.size(), rtt_ms.beyond(0.95));
  std::printf("  set-up: %zu samples; plan latency: %zu samples, p50 %.3f "
              "us, p99 %.3f us (%zu beyond)\n",
              side.setup_s().size(), latency.size(), latency.median(),
              latency.quantile(0.99), latency.beyond(0.99));

  if (options.trace) {
    const double cells = static_cast<double>(num_cells) * p.reps;
    const double sim_s = p.d("sim.run");
    layer["sim.des_self_s"] = sim_s / p.reps;
    layer["sim.ns_per_event"] = ratio(sim_s, first.events * p.reps) * 1e9;
    layer["sim.cancel_ratio"] =
        ratio(p.d("sim.events_cancelled"), p.d("sim.events_scheduled"));
    layer["sim.slot_reuse_ratio"] = ratio(
        p.d("sim.slots_reused"), p.d("sim.slots_reused") +
                                     p.d("sim.slots_allocated"));
    layer["serve.busy_share"] =
        ratio(p.d("serve.plan"), kWorkers * p.wall_s.sum());
    layer["core.evals_per_call"] = ratio(p.d("core.optimizer.evaluations"),
                                         p.d("core.optimizer.calls"));
    layer["mapreduce.attempts_per_job"] = ratio(first.attempts, first.jobs);
    layer["mapreduce.kill_ratio"] = ratio(first.killed, first.attempts);
    layer["exp.cell_setup_ms"] =
        ratio(probe.setup_seconds(),
              static_cast<double>(probe.setup_calls())) * 1e3;
    layer["exp.journal_append_us"] =
        ratio(p.d("exp.journal.flush"), p.d("exp.journal.flush#count")) * 1e6;
    layer["exp.manifest_load_ms"] = side.load_ms().median();
    layer["fabric.cells_per_s"] = cells_per_s;
    layer["fabric.cell_rtt_ms.p50"] = rtt_ms.median();
    layer["fabric.cell_rtt_ms.p95"] = rtt_ms.quantile(0.95);
    // Worker capacity the fabric spent on anything but computing cells.
    layer["fabric.overhead_ms_per_cell"] =
        (p.wall_s.sum() * kWorkers - local_s * p.reps) / cells * 1e3;
    layer["fabric.bytes_per_cell"] =
        ratio(p.d("fabric.bytes_sent") + p.d("fabric.bytes_received"), cells);
    layer["fabric.leases_per_cell"] =
        ratio(p.d("fabric.leases_granted"), cells);
    layer["fabric.reassigned"] = p.d("fabric.cells_reassigned");
    layer["fabric.duplicates"] = p.d("fabric.duplicates");
    layer["serve.plan_latency_us.p50"] = latency.median();
    layer["serve.plan_latency_us.p99"] = latency.quantile(0.99);
    layer["obs.trace_overhead"] = m.trace_overhead;
    out.per_layer = per_layer_metrics(layer);
  }
  return out;
}

}  // namespace e2e
