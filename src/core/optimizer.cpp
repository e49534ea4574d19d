#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "core/thresholds.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronos::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The memoized search already counts unique evaluations and total lookups
// per call (OptimizationResult); the registry exposes the process-wide
// totals so a long-running planner's workload is visible without plumbing
// every result somewhere.
const obs::Counter c_calls = obs::counter("core.optimizer.calls");
const obs::Counter c_evaluations = obs::counter("core.optimizer.evaluations");
const obs::Counter c_lookups = obs::counter("core.optimizer.lookups");

/// Objective over a precomputed AnalyticContext. operator()(r) and pocd(r)
/// memoize the points the phase-1 searches probe, which they revisit;
/// scan(r) evaluates a point visited once (phase 2, brute force, the PoCD
/// staircase) without filling the memo. evaluations() counts distinct
/// evaluations, lookups() every query including memo hits. best() is the
/// smallest r among the highest utilities seen, so it is the smallest
/// maximiser whatever order the points were visited in.
class Objective {
 public:
  explicit Objective(const AnalyticContext& context) : context_(context) {
    memo_.reserve(32);
  }

  double operator()(long long r) { return probe(r).utility; }
  double pocd(long long r) { return probe(r).pocd; }

  void scan(long long r) {
    ++lookups_;
    if (find(r) == nullptr) {
      evaluate(r);
    }
  }

  const UtilityPoint& best() const { return best_; }
  std::int64_t evaluations() const { return evaluations_; }
  std::int64_t lookups() const { return lookups_; }

 private:
  struct Memo {
    long long r;
    double utility;
    double pocd;
  };

  const Memo* find(long long r) const {
    for (const Memo& memo : memo_) {
      if (memo.r == r) {
        return &memo;
      }
    }
    return nullptr;
  }

  const Memo& probe(long long r) {
    ++lookups_;
    if (const Memo* hit = find(r)) {
      return *hit;
    }
    const UtilityPoint point = evaluate(r);
    return memo_.emplace_back(Memo{r, point.utility, point.pocd});
  }

  UtilityPoint evaluate(long long r) {
    const auto point = context_.evaluate(static_cast<double>(r));
    if (evaluations_++ == 0 || point.utility > best_.utility ||
        (point.utility == best_.utility && point.r < best_.r)) {
      best_ = point;
    }
    return point;
  }

  const AnalyticContext& context_;
  /// Probed points; a typical call probes about 10, so one reservation
  /// serves the whole search.
  std::vector<Memo> memo_;
  UtilityPoint best_{};
  std::int64_t evaluations_ = 0;
  std::int64_t lookups_ = 0;
};

/// First r in [lo, hi] where `pred` holds, or hi + 1 if none; `pred` must
/// be false then true along [lo, hi].
template <typename Pred>
long long first_true(long long lo, long long hi, Pred pred) {
  long long end = hi + 1;
  while (lo < end) {
    const long long mid = lo + (end - lo) / 2;
    if (pred(mid)) {
      end = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The PoCD kernels compute R = (1 - task_fail)^N with 1 - task_fail
/// rounded to the 2^-53 grid below 1, so near 1 the computed R moves in
/// steps of about N * 2^-53 and stalls for several r between steps. While
/// 1 - R_min spans only a few such steps, lg(R(r) - R_min) is a staircase
/// rather than Theorem 8's concave curve, and comparing neighbours can stop
/// a climb on a stair. Random grids show climbs misled up to ~2^17 steps;
/// the bound below is 2^27 steps, i.e. 1 - R_min <= N * 2^-26.
bool pocd_is_quantized(const AnalyticContext& context) {
  return 1.0 - context.econ().r_min <=
         std::ldexp(static_cast<double>(context.params().num_tasks), -26);
}

/// Climbs the unimodal stretch [from, max_r]: U is concave there except for
/// a -infinity prefix (R(r) <= R_min) through which it counts as rising, so
/// rises(r, s) holds exactly when the smallest maximiser m lies past r.
void climb(Objective& objective, long long from, long long max_r) {
  const auto rises = [&objective](long long r, long long s) {
    const double u = objective(r);
    return u == kNegInf || objective(s) > u;
  };
  // Gallop: probe from, from+1, from+3, from+7, ... until U stops rising,
  // narrowing m to [lo, hi]. The work is log(m - from), not log(max_r).
  long long lo = from;
  long long hi = max_r;
  long long step = 1;
  for (long long prev = from; prev < max_r;) {
    const long long probe = prev + std::min(step, max_r - prev);
    if (!rises(prev, probe)) {
      hi = probe - 1;
      break;
    }
    lo = prev + 1;
    prev = probe;
    if (step < max_r - prev) {
      step *= 2;
    }
  }
  // Bisect for the first r in the bracket where U stops rising.
  objective(first_true(lo, hi - 1, [&](long long r) {
    return !rises(r, r + 1);
  }));
}

OptimizationResult finish(const Objective& objective,
                          const AnalyticContext& context) {
  OptimizationResult result;
  result.best = objective.best();
  result.r_opt = static_cast<long long>(std::llround(result.best.r));
  result.gamma = context.gamma();
  result.evaluations = objective.evaluations();
  result.lookups = objective.lookups();
  result.feasible = std::isfinite(result.best.utility);
  if (!result.feasible) {
    result.r_opt = 0;
  }
  c_calls.add();
  c_evaluations.add(static_cast<std::uint64_t>(result.evaluations));
  c_lookups.add(static_cast<std::uint64_t>(result.lookups));
  return result;
}

}  // namespace

OptimizationResult optimize(const AnalyticContext& context,
                            const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");

  Objective objective(context);
  const long long start = concave_start(context.gamma());
  const long long max_r = options.max_r;

  // Phase 2 of Algorithm 1 (run first here; order does not matter): the
  // non-concave prefix 0 .. ceil(Gamma)-1 is scanned exhaustively.
  for (long long r = 0; r < std::min(start, max_r + 1); ++r) {
    objective.scan(r);
  }

  // Phase 1: the concave region [ceil(Gamma), max_r].
  long long from = start;
  if (from <= max_r && pocd_is_quantized(context)) {
    // Scan the feasible stairs exhaustively, from the first r with
    // R(r) > R_min up to the first with R(r) == 1.0. From there R is
    // constant, U = lg(1 - R_min) - theta * C * E(T) is concave again, and
    // the climb resumes.
    const long long feasible = first_true(from, max_r, [&](long long r) {
      return objective(r) != kNegInf;
    });
    const long long saturated = first_true(feasible, max_r, [&](long long r) {
      return objective.pocd(r) == 1.0;
    });
    for (long long r = feasible; r < saturated; ++r) {
      objective.scan(r);
    }
    from = saturated;
  }
  if (from <= max_r) {
    climb(objective, from, max_r);
  }

  return finish(objective, context);
}

OptimizationResult optimize(Strategy strategy, const JobParams& params,
                            const Economics& econ,
                            const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");
  const AnalyticContext context(strategy, params, econ);
  return optimize(context, options);
}

OptimizationResult brute_force_optimize(Strategy strategy,
                                        const JobParams& params,
                                        const Economics& econ,
                                        const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");
  const AnalyticContext context(strategy, params, econ);
  Objective objective(context);
  for (long long r = 0; r <= options.max_r; ++r) {
    objective.scan(r);
  }
  return finish(objective, context);
}

BestStrategy optimize_all(const JobParams& params, const Economics& econ,
                          const OptimizerOptions& options) {
  // One SharedAnalytics instance computes the constants every strategy's
  // context needs (P(T > D) and the truncated Pareto means) exactly once;
  // the three contexts borrow them instead of recomputing per strategy.
  const SharedAnalytics shared(params);
  return optimize_all(shared, econ, options);
}

BestStrategy optimize_all(const SharedAnalytics& shared, const Economics& econ,
                          const OptimizerOptions& options) {
  obs::TraceSpan span("core.optimize_all", "core");
  BestStrategy best;
  bool first = true;
  for (const Strategy strategy :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    const AnalyticContext context(strategy, shared, econ);
    auto result = optimize(context, options);
    if (first || result.best.utility > best.result.best.utility) {
      best.strategy = strategy;
      best.result = result;
      first = false;
    }
  }
  span.note("r_opt", static_cast<double>(best.result.r_opt));
  span.note("evaluations", static_cast<double>(best.result.evaluations));
  return best;
}

}  // namespace chronos::core
