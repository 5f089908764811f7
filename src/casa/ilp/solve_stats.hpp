// Exploration statistics every exact solver reports.
//
// Returned unconditionally (no metrics registry required) so callers and
// tests can reason about solver effort — e.g. asserting that the
// specialized CASA branch & bound explores no more nodes than the generic
// ILP on the same instance. Fields that a solver has no notion of stay 0
// (the combinatorial solver never solves LPs, so simplex_iterations = 0).
#pragma once

#include <cstdint>

namespace casa::ilp {

struct SolveStats {
  std::uint64_t nodes = 0;              ///< branch & bound nodes expanded
  std::uint64_t max_depth = 0;          ///< deepest node expanded
  std::uint64_t incumbent_updates = 0;  ///< times the best solution improved
  /// Subtrees cut by the dual bound, or by a bound box that holds none of
  /// the near-optimal points (BranchAndBoundOptions::near_optimal_set).
  std::uint64_t bound_prunes = 0;
  std::uint64_t infeasible_prunes = 0;  ///< subtrees cut by LP infeasibility
  std::uint64_t simplex_iterations = 0; ///< pivots across all LP solves
  /// Variables fixed before search by bound-box presolve (0 for solvers
  /// without a presolve stage).
  std::uint64_t presolve_fixed = 0;
  /// Nodes whose LP relaxation hit its iteration limit and were re-solved
  /// with a raised budget (see BranchAndBoundOptions::lp_retry_factor).
  std::uint64_t lp_limit_retries = 0;
  /// Independent subtrees the root was fanned into (0 = plain DFS).
  std::uint64_t subtrees = 0;
  /// Binaries fixed at the root by reduced-cost fixing against the
  /// warm-start incumbent (requires warm_start_used).
  std::uint64_t rc_fixed = 0;
  /// True when a warm-start incumbent (caller hint or rounded root LP)
  /// seeded the search before the first node.
  bool warm_start_used = false;
  /// Gap between the warm-start incumbent and the root relaxation bound,
  /// in minimization-key space (>= 0; 0 when no warm start or the root
  /// already proved the incumbent optimal).
  double root_gap = 0.0;

  friend bool operator==(const SolveStats&, const SolveStats&) = default;
};

}  // namespace casa::ilp
