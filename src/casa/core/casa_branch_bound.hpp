// Specialized exact solver for the CASA savings problem.
//
// The presolved problem is a quadratic-knapsack variant: choose items under
// a capacity so that linear values plus once-per-edge bonuses are maximized.
// This branch & bound explores items in optimistic-density order and
// prunes with a fractional-knapsack bound over optimistic values (value +
// every uncovered incident edge weight — an upper bound on any completion,
// so pruning is sound and the search is exact). On searches past a few
// hundred nodes, a Lagrangian bound of LP strength prunes where that one
// fails (docs/solver.md, "Lagrangian bound").
//
// enumerate() runs the same search in a second mode that lists every mask
// within a window of the optimum; the allocator hands that near-optimal set
// to the generic engine, which then walks only the paths that lead to it
// (docs/solver.md, "Near-optimal set").
//
// The generic ilp::BranchAndBound solves the same instances through the
// paper's LP formulation; this solver exists because it is orders of
// magnitude faster on the larger benchmarks (mpeg) while provably returning
// the same optimum — the test suite cross-checks the two.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/core/problem.hpp"
#include "casa/ilp/solve_stats.hpp"

namespace casa::core {

struct CasaBranchBoundOptions {
  std::uint64_t max_nodes = 50'000'000;
  double eps = 1e-9;  ///< pruning slack on energy comparisons (nJ)
};

struct CasaBranchBoundResult {
  std::vector<bool> chosen;  ///< per presolved item
  Energy saving = 0;
  std::uint64_t nodes = 0;   ///< == stats.nodes (kept for existing callers)
  bool exact = true;  ///< false when max_nodes aborted the proof
  /// Exploration statistics (simplex_iterations stays 0 — no LPs here).
  /// stats.bound_prunes counts the prunes of both bounds.
  ilp::SolveStats stats;
  /// Prunes made by the Lagrangian bound where the knapsack bound failed.
  std::uint64_t lagrangian_prunes = 0;
  /// enumerate() only: the near-optimal masks (per presolved item), in the
  /// order the search reached them.
  std::vector<std::vector<bool>> near_optimal;
};

class CasaBranchBound {
 public:
  using Options = CasaBranchBoundOptions;

  explicit CasaBranchBound(Options opt = {}) : opt_(opt) {}

  [[nodiscard]] CasaBranchBoundResult solve(const SavingsProblem& sp) const;

  /// solve()'s search in enumeration mode: it prunes only subtrees that
  /// cannot hold a mask within `window` of the incumbent, and returns in
  /// `near_optimal` every mask M with saving_for(M) >= saving - window in
  /// which each chosen item adds a positive saving to the rest of M (for a
  /// presolved CASA problem: every such mask that leaves the zero-fetch
  /// items cached). The list is complete only when `exact`; a search that
  /// exhausts max_nodes returns what it reached. `chosen` is the best mask
  /// found, which may differ from solve()'s among near-ties.
  [[nodiscard]] CasaBranchBoundResult enumerate(const SavingsProblem& sp,
                                                Energy window) const;

 private:
  Options opt_;
};

}  // namespace casa::core
