// The four benchmark workloads. Each takes the shared options (seed,
// measuring budget, trace mode) and returns its metrics, determinism
// fingerprint and correctness-check ledger.
#pragma once

#include "common.h"

namespace e2e {

/// Open-system engine, DES-heavy: Poisson arrivals at ~0.8 offered load,
/// fixed S-Resume, plan cache off.
Outcome run_open_sresume(const Options& options);

/// Open-system engine, planner-heavy: 3-stage DAG arrivals, per-job
/// strategy selection, quantized plan cache.
Outcome run_open_auto_dag(const Options& options);

/// Closed-system manifest sweep (manifests/fig3_theta.ini) on a 2-thread
/// pool with a fresh journal and rendered reports.
Outcome run_sweep_fig3(const Options& options);

/// In-process fabric controller plus two worker threads over a unix socket,
/// serving a grid of tiny cells.
Outcome run_fabric_cells(const Options& options);

}  // namespace e2e
