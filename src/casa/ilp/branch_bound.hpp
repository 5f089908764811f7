// Exact 0/1 ILP solver: branch & bound over the simplex relaxation.
//
// Depth-first search (good incumbents early, O(depth) memory) with
// most-fractional branching and bound pruning against the incumbent. This
// plays the role of the paper's commercial ILP solver (CPLEX) for the CASA
// formulation; instances there solved "in under a second", i.e. they are
// small — exactness matters, scalability to industrial MIP does not.
//
// The search is preceded by a bound-box presolve (presolve.hpp) and a warm
// start (caller hint and/or rounded root LP), can prune against a caller's
// objective cutoff and skip every box that holds none of the caller's
// near-optimal points, and can fan the first `subtree_depth` branching
// levels into 2^depth independent subtrees executed on a
// support::ThreadPool. See docs/solver.md for the status-code, cutoff and
// determinism contracts.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/ilp/model.hpp"
#include "casa/ilp/simplex.hpp"
#include "casa/ilp/solve_stats.hpp"

namespace casa::ilp {

struct BranchAndBoundOptions {
  double int_tol = 1e-6;      ///< |x - round(x)| below this is integral
  double gap_tol = 1e-9;      ///< prune when bound cannot beat incumbent
  std::uint64_t max_nodes = 2'000'000;
  SimplexOptions lp;
  /// Optional per-variable branching priority (higher branches first; empty
  /// = uniform). Among the highest-priority fractional binaries the most
  /// fractional one is chosen. Derived variables (e.g. the CASA paper
  /// formulation's L = l_i*l_j) should get lower priority than the decision
  /// variables that determine them.
  std::vector<int> branch_priority;

  /// Run bound-box presolve before the search (SolveStats::presolve_fixed).
  bool presolve = true;
  /// Seed the incumbent before node 1 from `warm_hint` (when valid) and a
  /// rounded root-LP completion, keeping the better of the two.
  bool warm_start = true;
  /// Optional caller-provided full assignment (sized var_count()); it is
  /// validated against the model's bounds, integrality and constraints and
  /// silently ignored when invalid or when `warm_start` is false.
  std::vector<double> warm_hint;
  /// Optional caller-provided feasible assignment (sized var_count()) whose
  /// objective, plus a slack of 1e-7·(1+|objective|), bounds the subtree
  /// search: a node whose relaxation cannot beat it is pruned. Validated
  /// like `warm_hint` and silently ignored when invalid. It is never
  /// returned and never feeds the incumbent, reduced-cost fixing or
  /// `root_gap`, so it shortens the search without choosing the answer:
  /// the returned Solution is the uncut search's (docs/solver.md,
  /// "Objective cutoff"). Only the effort counters can change.
  std::vector<double> cutoff_point;
  /// Optional feasible assignments (each sized var_count()) that, by the
  /// caller's promise, include every integer point whose objective lies
  /// within the cutoff's slack: every incumbent the cutoff search could
  /// accept. A node whose bound box holds none of their binary parts is
  /// then pruned before its LP solve, which leaves the returned Solution
  /// and the root statistics unchanged and only removes nodes
  /// (docs/solver.md, "Near-optimal set"). Used only with a valid
  /// `cutoff_point`; each point is validated like it, and one invalid
  /// point makes the solver ignore the whole set.
  std::vector<std::vector<double>> near_optimal_set;
  /// Worker threads for the subtree fan-out (0 = hardware concurrency,
  /// 1 = serial). Thread count never changes results or counters — only
  /// `subtree_depth` does.
  unsigned threads = 1;
  /// Fan the first `subtree_depth` free binaries (priority-desc, index-asc)
  /// into 2^depth independent subtrees. 0 = derive from `threads`
  /// (ceil(log2(threads)); 0 when serial). Pin this explicitly to make
  /// solutions and merged SolveStats invariant across thread counts.
  unsigned subtree_depth = 0;
  /// A node whose LP relaxation hits its iteration limit is re-solved once
  /// with max_iters scaled by this factor before the truncation is recorded
  /// (SolveStats::lp_limit_retries).
  double lp_retry_factor = 8.0;
};

class BranchAndBound {
 public:
  using Options = BranchAndBoundOptions;

  explicit BranchAndBound(Options opt = {}) : opt_(opt) {}

  /// Solves `m` with all kBinary variables integral.
  ///
  /// Status contract:
  ///  * kOptimal    — search ran to completion; the returned solution is a
  ///                  true optimum.
  ///  * kInfeasible — search ran to completion and no feasible point exists.
  ///                  Never returned for a truncated search.
  ///  * kLimit      — the search was truncated (max_nodes, or an LP
  ///                  relaxation that stayed at kLimit after one retry). The
  ///                  best incumbent found so far is returned if one exists;
  ///                  otherwise the solution carries empty values and proves
  ///                  nothing about feasibility.
  ///  * kUnbounded  — the relaxation is unbounded through continuous vars.
  [[nodiscard]] Solution solve(const Model& m) const;

  /// Nodes explored by the most recent solve() (observability hook).
  std::uint64_t last_node_count() const { return last_stats_.nodes; }

  /// Full exploration statistics of the most recent solve().
  const SolveStats& last_stats() const { return last_stats_; }

 private:
  Options opt_;
  mutable SolveStats last_stats_;
};

}  // namespace casa::ilp
