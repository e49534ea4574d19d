// sweep_fig3: the closed-system manifest sweep of manifests/fig3_theta.ini
// (Mantri / Clone / S-Restart / S-Resume x 4 theta over a 900-job trace)
// through exp::load_manifest -> make_hooks -> run_sweep on a 2-thread pool
// with a fresh journal, rendered to CSV and JSON.
#include <cstdio>
#include <string>

#include "cells.h"
#include "exp/report.h"
#include "obs/trace.h"
#include "workloads.h"

namespace e2e {

namespace exp = chronos::exp;

namespace {

constexpr const char* kManifest = "manifests/fig3_theta.ini";

/// Replications per cell, raised from the manifest's 3 so that one unit
/// is a ~4 s sweep in which the per-cell setup hook (planning) is the small
/// share (~2%) it is in long sweeps.
constexpr int kReplications = 4;
constexpr int kThreads = 2;

}  // namespace

Outcome run_sweep_fig3(const Options& options) {
  Outcome out;
  Checks& checks = out.checks;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  LoadedManifest loaded = load_seeded(kManifest, options.seed);
  loaded.manifest.spec.replications = kReplications;
  const exp::SweepSpec& spec = loaded.manifest.spec;
  HookProbe probe(spec.num_cells());
  const exp::SweepHooks hooks = probe.instrument(loaded.hooks);
  const std::string journal = options.work_dir + "/fig3.journal";
  // Side work: set-ups (load, seed, make_hooks, fingerprint) and the
  // setup hook's planning replayed through the planner service.
  ManifestSide side(kManifest, options.seed, loaded, probe);

  std::string first_csv;
  std::string first_json;
  CellTotals first{};
  Samples report_ms;
  auto unit = [&](int) {
    std::remove(journal.c_str());
    exp::SweepOptions sweep_options;
    sweep_options.threads = kThreads;
    sweep_options.journal = journal;
    sweep_options.journal_salt = loaded.salt;
    exp::SweepResult result;
    {
      chronos::obs::TraceSpan span("exp.run_sweep", "exp");
      result = exp::run_sweep(spec, hooks, sweep_options);
    }
    const double report_start = now_s();
    std::string csv;
    std::string json;
    {
      chronos::obs::TraceSpan span("exp.render_reports", "exp");
      csv = exp::to_csv(result);
      json = exp::to_json(result);
    }
    report_ms.add((now_s() - report_start) * 1e3);
    const CellTotals t = totals(result);
    if (first_csv.empty()) {
      first_csv = csv;
      first_json = json;
      first = t;
    }
    checks.check(csv == first_csv, "same-seed sweep reproduces CSV bytes");
    checks.check(json == first_json, "same-seed sweep reproduces JSON bytes");
    checks.check(result.cells.size() == spec.num_cells(),
                 "sweep returned every cell");
    return UnitOutput{t.jobs, t.events};
  };
  const Measured m = measure_workload(options, 3, unit, side);
  std::remove(journal.c_str());
  const Phase& p = m.untraced;
  side.finish(checks);
  const Samples& latency = side.latency_us();

  e2e["setup_s"] = side.setup_s().median();
  e2e["wall_s"] = p.wall_s.median();
  e2e["sim_jobs_per_s"] = p.jobs_per_s.median();
  e2e["events_per_s"] = p.events_per_s.median();
  e2e["peak_rss_mb"] = p.first_unit_peak_rss_kb / 1024.0;
  e2e["pocd"] = first.pocd;
  e2e["cost_per_job"] = first.cost;
  out.end_to_end = end_to_end_metrics(e2e);
  out.determinism = fnv_hex(first_csv) + "/" + side.plans_fingerprint();

  std::printf("  untraced: %s; %zu cells x %d replications on %d threads, "
              "%.0f jobs and %.0f events per sweep\n",
              describe(p).c_str(), spec.num_cells(), kReplications, kThreads,
              first.jobs, first.events);
  std::printf("  set-up: %zu samples; plan latency: %zu samples, p50 %.3f "
              "us, p99 %.3f us (%zu beyond)\n",
              side.setup_s().size(), latency.size(), latency.median(),
              latency.quantile(0.99), latency.beyond(0.99));

  if (options.trace) {
    const double reps = static_cast<double>(p.reps);
    const double sim_s = p.d("sim.run");
    layer["sim.des_self_s"] = sim_s / reps;
    layer["sim.ns_per_event"] = ratio(sim_s, first.events * reps) * 1e9;
    layer["sim.cancel_ratio"] =
        ratio(p.d("sim.events_cancelled"), p.d("sim.events_scheduled"));
    layer["sim.slot_reuse_ratio"] = ratio(
        p.d("sim.slots_reused"), p.d("sim.slots_reused") +
                                     p.d("sim.slots_allocated"));
    // The sweep plans in its setup hook, outside the serve layer.
    layer["serve.busy_share"] =
        ratio(p.d("serve.plan"), kThreads * p.wall_s.sum());
    layer["core.evals_per_call"] = ratio(p.d("core.optimizer.evaluations"),
                                         p.d("core.optimizer.calls"));
    layer["mapreduce.attempts_per_job"] = ratio(first.attempts, first.jobs);
    layer["mapreduce.kill_ratio"] = ratio(first.killed, first.attempts);
    layer["exp.replication_ms"] =
        ratio(p.d("exp.sweep.replication"),
              p.d("exp.sweep.replication#count")) * 1e3;
    // Share of the pool's thread capacity not running a task.
    layer["exp.pool_wait_share"] =
        1.0 - ratio(p.d("exp.pool.task_run"), kThreads * p.wall_s.sum());
    layer["exp.cell_setup_ms"] =
        ratio(probe.setup_seconds(),
              static_cast<double>(probe.setup_calls())) * 1e3;
    layer["exp.journal_append_us"] =
        ratio(p.d("exp.journal.flush"), p.d("exp.journal.flush#count")) * 1e6;
    layer["exp.report_ms"] = report_ms.median();
    layer["exp.manifest_load_ms"] = side.load_ms().median();
    layer["serve.plan_latency_us.p50"] = latency.median();
    layer["serve.plan_latency_us.p99"] = latency.quantile(0.99);
    layer["obs.trace_overhead"] = m.trace_overhead;
    out.per_layer = per_layer_metrics(layer);
  }
  return out;
}

}  // namespace e2e
