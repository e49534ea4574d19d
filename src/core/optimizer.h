// Algorithm 1 — the unifying optimization algorithm of §V-B.
//
// Maximizes U(r) = lg(R(r) - R_min) - theta * C * E(T) over integer r >= 0.
// Phase 1 searches the provably concave region r >= ceil(Gamma) (Theorem 8):
// it gallops out from ceil(Gamma) (offsets 0, 1, 3, 7, ...) until U stops
// rising, then bisects the last bracket for the first r where U(r+1) <= U(r).
// Phase 2 exhaustively checks the handful of integers below ceil(Gamma).
// Theorem 9: the combination returns a global optimum. The phase-1 work is
// O(log(r_opt - ceil(Gamma))), independent of max_r.
//
// One floating-point exception: when R_min lies within a few rounding steps
// of 1 (1 - R_min <= N * 2^-26), the computed PoCD is a staircase and
// lg(R(r) - R_min) is not concave. Phase 1 then scans the feasible stairs
// below the first r with R(r) == 1.0 and climbs from there, so the result
// still equals brute_force_optimize bit for bit.
#pragma once

#include <cstdint>

#include "core/analytic_context.h"
#include "core/model.h"
#include "core/utility.h"

namespace chronos::core {

struct OptimizerOptions {
  /// Upper bound on r. The objective decays like -theta*C*E(T) for large r,
  /// so the optimum is far below this, and the galloping search stops near
  /// the optimum: raising max_r costs nothing unless U still rises there
  /// (or R_min is on the PoCD staircase, which costs O(log max_r) probes).
  long long max_r = 4096;
};

struct OptimizationResult {
  long long r_opt = 0;       ///< optimal number of extra attempts
  UtilityPoint best;         ///< objective components at r_opt
  double gamma = 0.0;        ///< concavity threshold used (Theorem 8)
  std::int64_t evaluations = 0;  ///< number of UNIQUE U(r) evaluations
                                 ///< actually computed (memoized)
  std::int64_t lookups = 0;  ///< total objective queries, incl. memo hits
  bool feasible = false;     ///< true when U(r_opt) is finite
                             ///< (R(r_opt) > R_min is attainable)
};

/// Runs Algorithm 1 for `strategy`. Requires valid params/econ. When no
/// integer r in [0, max_r] achieves R(r) > R_min, the result has
/// feasible == false and r_opt == 0 with utility == -infinity. r_opt is the
/// smallest maximiser, as brute_force_optimize reports it; at theta == 0 U
/// is flat once R(r) rounds to 1.0, and r_opt may then be any maximiser.
///
/// Internally builds an AnalyticContext so every r-independent constant is
/// computed once, and memoizes U(r) in a small inline table so the bracket
/// search never evaluates the same integer twice and never allocates.
OptimizationResult optimize(Strategy strategy, const JobParams& params,
                            const Economics& econ,
                            const OptimizerOptions& options = {});

/// As above, but evaluates through a caller-supplied context (lets callers
/// amortize the context across searches and instrument evaluation counts).
OptimizationResult optimize(const AnalyticContext& context,
                            const OptimizerOptions& options = {});

/// Reference implementation: linear scan of U(r) for r in [0, max_r].
/// Exponential-time-free but O(max_r); used to validate `optimize`.
OptimizationResult brute_force_optimize(Strategy strategy,
                                        const JobParams& params,
                                        const Economics& econ,
                                        const OptimizerOptions& options = {});

/// Runs `optimize` for all three strategies and returns the strategy/result
/// pair with the highest net utility. The strategy-independent constants
/// (straggler probability, truncated Pareto means) are computed once in a
/// SharedAnalytics and borrowed by every strategy's context, so the batched
/// search does strictly less r-independent work than three optimize() calls
/// while returning bit-identical results.
struct BestStrategy {
  Strategy strategy = Strategy::kClone;
  OptimizationResult result;
};
BestStrategy optimize_all(const JobParams& params, const Economics& econ,
                          const OptimizerOptions& options = {});

/// As above, but borrows an already-built SharedAnalytics (whose params are
/// the job's S-Resume-style params). Lets a batch planner amortize the
/// strategy-independent constants across many economics (price / theta)
/// values for the same job shape; bit-identical to the params overload.
BestStrategy optimize_all(const SharedAnalytics& shared, const Economics& econ,
                          const OptimizerOptions& options = {});

}  // namespace chronos::core
