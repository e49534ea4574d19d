#include "cells.h"

#include <utility>

#include "common/rng.h"
#include "exp/checkpoint.h"
#include "obs/trace.h"
#include "serve/planner.h"
#include "trace/google_trace.h"
#include "trace/spot_price.h"

namespace e2e {

namespace exp = chronos::exp;
namespace trace = chronos::trace;
namespace serve = chronos::serve;

LoadedManifest load_seeded(const std::string& path, std::uint64_t seed) {
  LoadedManifest loaded;
  const double start = now_s();
  loaded.manifest = exp::load_manifest(path);
  loaded.load_s = now_s() - start;
  loaded.manifest.spec.seed = chronos::Rng(seed).split_seed();
  loaded.hooks = exp::make_hooks(loaded.manifest);
  loaded.salt = exp::manifest_journal_salt(loaded.manifest);
  loaded.fingerprint = exp::spec_fingerprint(loaded.manifest.spec, loaded.salt);
  return loaded;
}

HookProbe::HookProbe(std::size_t num_cells)
    : num_cells_(num_cells),
      first_ns_(new std::atomic<std::uint64_t>[num_cells]) {
  reset_stamps();
}

void HookProbe::reset_stamps() {
  for (std::size_t cell = 0; cell < num_cells_; ++cell) {
    first_ns_[cell].store(0, std::memory_order_release);
  }
}

void HookProbe::stamp(std::size_t cell) {
  std::uint64_t expected = 0;
  first_ns_[cell].compare_exchange_strong(expected, now_ns(),
                                          std::memory_order_acq_rel);
}

exp::SweepHooks HookProbe::instrument(const exp::SweepHooks& inner) {
  exp::SweepHooks hooks;
  hooks.setup = [this, inner](const exp::SweepPoint& point) {
    stamp(point.cell);
    const std::uint64_t start = now_ns();
    exp::SharedCell shared;
    {
      chronos::obs::TraceSpan span("exp.cell_setup", "exp");
      shared = inner.setup(point);
    }
    setup_ns_.fetch_add(now_ns() - start);
    setup_calls_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu_);
    if (points_.find(point.cell) == points_.end()) {
      points_.emplace(point.cell, point);
      plans_.emplace(point.cell, plan_fingerprint(shared));
    }
    return shared;
  };
  hooks.run = [this, inner](const exp::SweepPoint& point, std::uint64_t seed,
                            const exp::SharedCell& shared) {
    stamp(point.cell);
    chronos::obs::TraceSpan span("exp.cell_run", "exp");
    return inner.run(point, seed, shared);
  };
  return hooks;
}

std::map<std::size_t, exp::SweepPoint> HookProbe::points() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

std::map<std::size_t, std::string> HookProbe::plans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_;
}

namespace {

void append_plan(std::string& out, const chronos::mapreduce::JobSpec& spec) {
  out += fmt(spec.price) + ":";
  for (const auto& stage : spec.stages) {
    out += std::to_string(stage.r) + "," + fmt(stage.tau_est) + "," +
           fmt(stage.tau_kill) + ";";
  }
}

}  // namespace

std::string plan_fingerprint(const exp::SharedCell& shared) {
  std::string bytes;
  if (shared.jobs != nullptr) {
    for (const auto& job : *shared.jobs) {
      append_plan(bytes, job.spec);
    }
  }
  return fnv_hex(bytes);
}

CellReplay::CellReplay(const exp::Manifest& manifest,
                       std::map<std::size_t, exp::SweepPoint> points)
    : manifest_(manifest), points_(std::move(points)), next_(points_.begin()) {}

void CellReplay::advance(std::size_t cells) {
  for (std::size_t i = 0; i < cells; ++i) {
    step();
  }
}

void CellReplay::finish(std::size_t passes) {
  while (passes_.size() < passes) {
    step();
  }
}

void CellReplay::step() {
  if (next_ == points_.end()) {
    passes_.push_back(std::move(current_));
    current_.clear();
    next_ = points_.begin();
    return;
  }
  // Mirrors the manifest setup hook (exp/manifest.cpp): the cell's trace
  // template with its axis bindings, priced at each job's submit time.
  const auto& [cell, point] = *next_++;
  trace::TraceConfig config = manifest_.trace;
  if (manifest_.trace_beta.has_value()) {
    config.beta_lo = config.beta_hi = manifest_.trace_beta->resolve(point);
  }
  if (manifest_.trace_deadline_factor.has_value()) {
    config.deadline_factor_lo = config.deadline_factor_hi =
        manifest_.trace_deadline_factor->resolve(point);
  }
  std::vector<trace::TracedJob> jobs = trace::generate_trace(config);

  serve::PlannerServiceConfig service_config;
  service_config.planner.theta = manifest_.planner_theta.resolve(point);
  if (manifest_.planner_tau_est_factor.has_value()) {
    service_config.planner.tau_est_factor =
        manifest_.planner_tau_est_factor->resolve(point);
  }
  if (manifest_.planner_tau_kill_factor.has_value()) {
    service_config.planner.tau_kill_factor =
        manifest_.planner_tau_kill_factor->resolve(point);
  }
  serve::PlannerService service(service_config);
  const trace::SpotPriceModel prices;
  std::string bytes;
  for (auto& job : jobs) {
    serve::PlanRequest request;
    request.spec = &job.spec;
    request.price = prices.price_at(job.submit_time);
    request.policy = point.policy;
    const std::uint64_t start = now_ns();
    (void)service.plan(request);
    latency_us_.add(static_cast<double>(now_ns() - start) * 1e-3);
    append_plan(bytes, job.spec);
  }
  current_.emplace(cell, fnv_hex(bytes));
}

ManifestSide::ManifestSide(std::string path, std::uint64_t seed,
                           const LoadedManifest& loaded,
                           const HookProbe& probe)
    : path_(std::move(path)), seed_(seed), loaded_(loaded), probe_(probe) {}

void ManifestSide::set_up() {
  // A set-up takes microseconds, so each slice times a batch of them.
  for (int i = 0; i < 25; ++i) {
    const double start = now_s();
    const LoadedManifest loaded = load_seeded(path_, seed_);
    setup_s_.add(now_s() - start);
    load_ms_.add(loaded.load_s * 1e3);
  }
}

void ManifestSide::operator()(int rep) {
  set_up();
  if (rep == 0) {
    return;  // the cells are set up (and their points known) by unit 0
  }
  if (replay_ == nullptr) {
    replay_ = std::make_unique<CellReplay>(loaded_.manifest, probe_.points());
  }
  replay_->advance(8);  // ~50 ms of planning on fig3's 900-job cells
}

void ManifestSide::finish(Checks& checks) {
  while (setup_s_.size() < 100) {
    set_up();
  }
  if (replay_ == nullptr) {
    replay_ = std::make_unique<CellReplay>(loaded_.manifest, probe_.points());
  }
  replay_->finish(2);
  const auto& passes = replay_->passes();
  checks.check(probe_.points().size() == loaded_.manifest.spec.num_cells(),
               "every cell was set up");
  checks.check(passes[0] == probe_.plans(),
               "replayed plans match the setup hook's plans");
  checks.check(passes[0] == passes[1], "replayed plan decisions repeat");
  checks.check(replay_->latency_us().beyond(0.99) >= 10,
               "p99 has >= 10 samples beyond");
}

std::string ManifestSide::plans_fingerprint() const {
  std::string plans;
  for (const auto& [cell, plan] : replay_->passes()[0]) {
    plans += plan;
  }
  return fnv_hex(plans);
}

CellTotals totals(const std::map<std::size_t, exp::CellAggregate>& cells) {
  CellTotals t;
  for (const auto& [cell, a] : cells) {
    const double jobs = static_cast<double>(a.jobs);
    t.jobs += jobs;
    t.events += static_cast<double>(a.events_executed);
    t.pocd += a.pocd.mean * jobs;
    t.cost += a.cost.mean * jobs;
    t.attempts += static_cast<double>(a.attempts_launched);
    t.killed += static_cast<double>(a.attempts_killed);
    t.runs += static_cast<double>(a.runs);
  }
  t.pocd = ratio(t.pocd, t.jobs);
  t.cost = ratio(t.cost, t.jobs);
  return t;
}

CellTotals totals(const exp::SweepResult& result) {
  std::map<std::size_t, exp::CellAggregate> cells;
  for (const auto& cell : result.cells) {
    cells.emplace(cell.point.cell, cell.aggregate);
  }
  return totals(cells);
}

}  // namespace e2e
