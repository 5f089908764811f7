#include "casa/ilp/branch_bound.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "casa/ilp/presolve.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/error.hpp"
#include "casa/support/thread_pool.hpp"

namespace casa::ilp {

namespace {

/// Feasibility tolerance for validating externally supplied assignments
/// (warm hints); looser than the LP pivot tolerance on purpose.
constexpr double kFeasTol = 1e-6;

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  std::uint64_t depth = 0;
};

double key_of(bool maximize, double obj) { return maximize ? -obj : obj; }

/// Relative slack on an objective key: reduced-cost fixing keeps a column
/// free within it of the incumbent gap, and a cutoff prunes only beyond it.
double key_slack(double key) { return 1e-7 * (1.0 + std::abs(key)); }

double objective_value(const Model& m, const std::vector<double>& x) {
  double v = m.objective().constant();
  for (const Term& t : m.objective().terms()) {
    v += t.coef * x[t.var.index()];
  }
  return v;
}

/// True when `x` satisfies the model's bounds, binary integrality and every
/// constraint within kFeasTol.
bool satisfies(const Model& m, const std::vector<double>& x) {
  if (x.size() != m.var_count()) return false;
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    const Variable& v = m.var(VarId(static_cast<std::uint32_t>(j)));
    if (x[j] < v.lower - kFeasTol || x[j] > v.upper + kFeasTol) return false;
    if (v.type == VarType::kBinary &&
        std::abs(x[j] - std::round(x[j])) > kFeasTol) {
      return false;
    }
  }
  for (std::size_t r = 0; r < m.constraint_count(); ++r) {
    const Constraint& c =
        m.constraint(ConstraintId(static_cast<std::uint32_t>(r)));
    double lhs = c.expr.constant();
    for (const Term& t : c.expr.terms()) {
      lhs += t.coef * x[t.var.index()];
    }
    switch (c.rel) {
      case Rel::kLessEq:
        if (lhs > c.rhs + kFeasTol) return false;
        break;
      case Rel::kGreaterEq:
        if (lhs < c.rhs - kFeasTol) return false;
        break;
      case Rel::kEqual:
        if (std::abs(lhs - c.rhs) > kFeasTol) return false;
        break;
    }
  }
  return true;
}

/// `x` with every binary rounded to its nearest integer — the point a
/// satisfies()-validated caller assignment stands for.
std::vector<double> rounded_binaries(const Model& m, std::vector<double> x) {
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    if (m.var(VarId(static_cast<std::uint32_t>(j))).type ==
        VarType::kBinary) {
      x[j] = std::round(x[j]);
    }
  }
  return x;
}

/// The binary parts of the caller's near-optimal points, for the box test
/// that prunes a node none of them lies in. Empty: no test.
struct NearOptimalBoxes {
  std::vector<std::size_t> binaries;  ///< the model's binary columns
  std::vector<double> values;  ///< rounded binaries, point after point

  bool empty() const { return values.empty(); }

  /// True when every binary of some point lies within the node's bounds.
  bool hold_a_point(const Node& node) const {
    const std::size_t n = binaries.size();
    for (std::size_t at = 0; at < values.size(); at += n) {
      std::size_t i = 0;
      while (i < n && values[at + i] >= node.lower[binaries[i]] &&
             values[at + i] <= node.upper[binaries[i]]) {
        ++i;
      }
      if (i == n) return true;
    }
    return false;
  }
};

struct SubtreeResult {
  Solution best;  ///< best.values empty when the subtree found no incumbent
  double best_key = kInfinity;
  bool hit_limit = false;
  bool unbounded = false;
  SolveStats stats;
};

/// Serial DFS over one bound box — the classic node loop, parameterized by
/// the pruning key it starts from (warm start), the caller's cutoff key,
/// which joins the prune test but never becomes the incumbent (kInfinity =
/// no cutoff), and the near-optimal points a node's box must hold.
SubtreeResult explore_subtree(const Model& m, const BranchAndBoundOptions& opt,
                              Node root, std::uint64_t node_budget,
                              double seed_key, double cutoff_key,
                              const NearOptimalBoxes& near) {
  const bool maximize = m.sense() == Sense::kMaximize;
  obs::Tracer* const tracer = obs::Tracer::current();
  const SimplexSolver lp(opt.lp);
  SimplexOptions retry_opt = opt.lp;
  retry_opt.max_iters = static_cast<std::uint64_t>(
      static_cast<double>(opt.lp.max_iters) *
      std::max(1.0, opt.lp_retry_factor));
  const SimplexSolver retry_lp(retry_opt);

  SubtreeResult out;
  double incumbent_key = seed_key;

  std::vector<Node> stack;
  stack.push_back(std::move(root));

  while (!stack.empty()) {
    if (out.stats.nodes >= node_budget) {
      out.hit_limit = true;
      break;
    }
    ++out.stats.nodes;
    if (tracer != nullptr && (out.stats.nodes & 1023u) == 0) {
      // Sampled search-progress counters: one pair of samples per 1024
      // nodes keeps the timeline readable on million-node solves.
      tracer->counter(obs::trace_names::kIlpNodes,
                      static_cast<double>(out.stats.nodes));
      tracer->counter(obs::trace_names::kIlpPrunes,
                      static_cast<double>(out.stats.bound_prunes +
                                          out.stats.infeasible_prunes));
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    if (node.depth > out.stats.max_depth) {
      out.stats.max_depth = node.depth;
    }
    if (!near.empty() && !near.hold_a_point(node)) {
      // No incumbent the cutoff lets through lies in this box.
      ++out.stats.bound_prunes;
      continue;
    }

    Solution relax = lp.solve_relaxation(m, node.lower, node.upper);
    out.stats.simplex_iterations += relax.iterations;
    if (relax.status == SolveStatus::kLimit) {
      // One retry with a raised pivot budget before giving up on the node.
      ++out.stats.lp_limit_retries;
      relax = retry_lp.solve_relaxation(m, node.lower, node.upper);
      out.stats.simplex_iterations += relax.iterations;
    }
    if (relax.status == SolveStatus::kInfeasible) {
      ++out.stats.infeasible_prunes;
      continue;
    }
    if (relax.status == SolveStatus::kUnbounded) {
      // A bounded-binary model relaxation can be unbounded only through
      // continuous vars; integrality cannot repair that.
      out.unbounded = true;
      return out;
    }
    if (relax.status == SolveStatus::kLimit) {
      // Still truncated after the retry: the subtree's bound is unknown, so
      // the overall search result must report kLimit, never optimality.
      out.hit_limit = true;
      continue;
    }
    const double prune_key = std::min(incumbent_key, cutoff_key);
    if (key_of(maximize, relax.objective) >= prune_key - opt.gap_tol) {
      ++out.stats.bound_prunes;
      continue;
    }

    // Find the most fractional binary among the highest-priority tier.
    int branch_var = -1;
    int best_prio = 0;
    double worst = opt.int_tol;
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      if (m.var(VarId(static_cast<std::uint32_t>(j))).type !=
          VarType::kBinary) {
        continue;
      }
      const double x = relax.values[j];
      const double frac = std::abs(x - std::round(x));
      if (frac <= opt.int_tol) continue;
      const int prio =
          opt.branch_priority.empty() ? 0 : opt.branch_priority[j];
      if (branch_var < 0 || prio > best_prio ||
          (prio == best_prio && frac > worst)) {
        worst = frac;
        best_prio = prio;
        branch_var = static_cast<int>(j);
      }
    }

    if (branch_var < 0) {
      // Integral: new incumbent.
      if (tracer != nullptr) {
        tracer->instant(obs::trace_names::kIlpIncumbent, relax.objective,
                        obs::trace_names::kCatIlp);
      }
      incumbent_key = key_of(maximize, relax.objective);
      out.best = std::move(relax);
      out.best_key = incumbent_key;
      ++out.stats.incumbent_updates;
      continue;
    }

    const auto b = static_cast<std::size_t>(branch_var);
    const double x = relax.values[b];
    Node down = node;  // x_b = 0 side (floor)
    down.upper[b] = std::floor(x);
    down.lower[b] = node.lower[b];
    ++down.depth;
    Node up = std::move(node);  // x_b = 1 side (ceil)
    up.lower[b] = std::ceil(x);
    ++up.depth;

    // DFS explores the rounding-toward x side first for faster incumbents.
    if (x - std::floor(x) > 0.5) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }
  if (tracer != nullptr) {
    // Final per-subtree totals, so prune pressure is visible even on
    // subtrees too small to hit a 1024-node sample.
    tracer->instant(obs::trace_names::kIlpPrunes,
                    static_cast<double>(out.stats.bound_prunes +
                                        out.stats.infeasible_prunes),
                    obs::trace_names::kCatIlp);
  }
  return out;
}

unsigned ceil_log2(unsigned n) {
  unsigned d = 0;
  while ((1u << d) < n) ++d;
  return d;
}

}  // namespace

Solution BranchAndBound::solve(const Model& m) const {
  const bool maximize = m.sense() == Sense::kMaximize;
  obs::Tracer* const tracer = obs::Tracer::current();
  last_stats_ = SolveStats{};

  Node root;
  root.lower.resize(m.var_count());
  root.upper.resize(m.var_count());
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    const Variable& v = m.var(VarId(static_cast<std::uint32_t>(j)));
    root.lower[j] = v.lower;
    root.upper[j] = v.upper;
  }

  if (opt_.presolve) {
    const PresolveResult pre = presolve_box(m, root.lower, root.upper);
    last_stats_.presolve_fixed = pre.fixed;
    if (tracer != nullptr) {
      tracer->instant(obs::trace_names::kIlpPresolve, static_cast<double>(pre.fixed),
                      obs::trace_names::kCatIlp);
    }
    if (!pre.feasible) {
      // Presolve infeasibility is a complete proof, not a truncation.
      Solution s;
      s.status = SolveStatus::kInfeasible;
      return s;
    }
  }

  // Warm-start candidate 1: the caller's hint, validated against the full
  // model (not the presolved box — duality fixing may discard alternative
  // optima the hint happens to pick; a feasible hint still prunes soundly).
  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_key = kInfinity;
  if (opt_.warm_start && !opt_.warm_hint.empty() &&
      satisfies(m, opt_.warm_hint)) {
    incumbent.values = rounded_binaries(m, opt_.warm_hint);
    incumbent.objective = objective_value(m, incumbent.values);
    incumbent.status = SolveStatus::kOptimal;
    incumbent_key = key_of(maximize, incumbent.objective);
    last_stats_.warm_start_used = true;
  }

  // Root relaxation (with one retried pivot budget, like any node).
  const SimplexSolver lp(opt_.lp);
  Solution root_relax = lp.solve_relaxation(m, root.lower, root.upper);
  last_stats_.simplex_iterations += root_relax.iterations;
  if (root_relax.status == SolveStatus::kLimit) {
    ++last_stats_.lp_limit_retries;
    SimplexOptions retry_opt = opt_.lp;
    retry_opt.max_iters = static_cast<std::uint64_t>(
        static_cast<double>(opt_.lp.max_iters) *
        std::max(1.0, opt_.lp_retry_factor));
    root_relax =
        SimplexSolver(retry_opt).solve_relaxation(m, root.lower, root.upper);
    last_stats_.simplex_iterations += root_relax.iterations;
  }
  if (root_relax.status == SolveStatus::kLimit) {
    // Cannot even bound the root: truncated, never "infeasible".
    incumbent.status = SolveStatus::kLimit;
    return incumbent;
  }
  if (root_relax.status == SolveStatus::kInfeasible) {
    Solution s;
    s.status = SolveStatus::kInfeasible;
    return s;
  }
  if (root_relax.status == SolveStatus::kUnbounded) {
    Solution s;
    s.status = SolveStatus::kUnbounded;
    return s;
  }
  const double root_key = key_of(maximize, root_relax.objective);

  // Is the root already integral?
  bool root_integral = true;
  for (std::size_t j = 0; j < m.var_count() && root_integral; ++j) {
    if (m.var(VarId(static_cast<std::uint32_t>(j))).type != VarType::kBinary) {
      continue;
    }
    const double x = root_relax.values[j];
    if (std::abs(x - std::round(x)) > opt_.int_tol) root_integral = false;
  }
  if (root_integral) {
    root_relax.status = SolveStatus::kOptimal;
    return root_relax;
  }

  // Warm-start candidate 2: round the root relaxation's binaries and let the
  // LP complete the continuous variables over the rounded box.
  if (opt_.warm_start) {
    std::vector<double> lo = root.lower;
    std::vector<double> hi = root.upper;
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      if (m.var(VarId(static_cast<std::uint32_t>(j))).type !=
          VarType::kBinary) {
        continue;
      }
      const double v =
          std::clamp(std::round(root_relax.values[j]), lo[j], hi[j]);
      lo[j] = v;
      hi[j] = v;
    }
    const Solution rounded = lp.solve_relaxation(m, lo, hi);
    last_stats_.simplex_iterations += rounded.iterations;
    if (rounded.status == SolveStatus::kOptimal &&
        key_of(maximize, rounded.objective) < incumbent_key) {
      incumbent = rounded;
      incumbent_key = key_of(maximize, rounded.objective);
      last_stats_.warm_start_used = true;
    }
  }
  if (last_stats_.warm_start_used) {
    last_stats_.root_gap = std::max(0.0, incumbent_key - root_key);
    if (tracer != nullptr) {
      tracer->instant(obs::trace_names::kIlpWarmStart, last_stats_.root_gap,
                      obs::trace_names::kCatIlp);
    }
    if (incumbent_key <= root_key + opt_.gap_tol) {
      // The warm incumbent already meets the root bound: proven optimal.
      incumbent.status = SolveStatus::kOptimal;
      return incumbent;
    }
  }

  // Reduced-cost fixing against the warm incumbent: a nonbasic binary whose
  // root reduced cost exceeds the incumbent gap cannot move off its bound in
  // any solution at least as good as the incumbent, so it is fixed for the
  // whole search. (The incumbent itself is kept aside and merged at the end,
  // so discarding its alternative optima is sound.)
  if (std::isfinite(incumbent_key) &&
      root_relax.reduced_costs.size() == m.var_count()) {
    const double gap = incumbent_key - root_key;
    const double fix_tol = key_slack(incumbent_key);
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      if (m.var(VarId(static_cast<std::uint32_t>(j))).type !=
          VarType::kBinary) {
        continue;
      }
      if (root.upper[j] - root.lower[j] <= opt_.int_tol) continue;
      const double rc = root_relax.reduced_costs[j];
      if (rc > gap + fix_tol) {
        root.upper[j] = root.lower[j];  // pinned at its lower bound
        ++last_stats_.rc_fixed;
      } else if (-rc > gap + fix_tol) {
        root.lower[j] = root.upper[j];  // pinned at its upper bound
        ++last_stats_.rc_fixed;
      }
    }
    if (tracer != nullptr) {
      tracer->instant(obs::trace_names::kIlpRcFixed,
                      static_cast<double>(last_stats_.rc_fixed),
                      obs::trace_names::kCatIlp);
    }
  }

  // Objective cutoff: the caller's feasible point joins the subtree prune
  // test only. It is priced after every root decision above, so it never
  // seeds the incumbent, proves the root optimal, fixes a column or enters
  // root_gap; pruning only nodes that cannot come within the slack of it
  // leaves the returned solution that of the uncut search.
  double cutoff_key = kInfinity;
  if (!opt_.cutoff_point.empty() && satisfies(m, opt_.cutoff_point)) {
    const double key = key_of(
        maximize, objective_value(m, rounded_binaries(m, opt_.cutoff_point)));
    cutoff_key = key + key_slack(key);
  }

  // Near-optimal set: the caller's promise that these points include every
  // incumbent the cutoff lets through, so a box that holds none of them
  // holds no incumbent. Fixed here, before the fan-out, and only read.
  NearOptimalBoxes near;
  if (std::isfinite(cutoff_key) &&
      std::all_of(opt_.near_optimal_set.begin(), opt_.near_optimal_set.end(),
                  [&](const std::vector<double>& x) {
                    return satisfies(m, x);
                  })) {
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      if (m.var(VarId(static_cast<std::uint32_t>(j))).type ==
          VarType::kBinary) {
        near.binaries.push_back(j);
      }
    }
    for (const std::vector<double>& x : opt_.near_optimal_set) {
      for (const std::size_t j : near.binaries) {
        near.values.push_back(std::round(x[j]));
      }
    }
  }

  // Subtree decomposition over the first `depth` free binaries, ordered by
  // branch priority (desc) then index (asc). The fan-out depends only on
  // `subtree_depth`, never on the thread count, so solutions and merged
  // counters are thread-count-invariant.
  unsigned depth = opt_.subtree_depth;
  if (depth == 0 && opt_.threads != 1) {
    depth = ceil_log2(support::ThreadPool::resolve(opt_.threads));
  }
  depth = std::min(depth, 6u);  // at most 64 subtrees
  std::vector<std::size_t> fan_vars;
  if (depth > 0) {
    std::vector<std::size_t> free_bins;
    for (std::size_t j = 0; j < m.var_count(); ++j) {
      if (m.var(VarId(static_cast<std::uint32_t>(j))).type ==
              VarType::kBinary &&
          root.upper[j] - root.lower[j] > opt_.int_tol) {
        free_bins.push_back(j);
      }
    }
    std::stable_sort(free_bins.begin(), free_bins.end(),
                     [&](std::size_t a, std::size_t b) {
                       const int pa = opt_.branch_priority.empty()
                                          ? 0
                                          : opt_.branch_priority[a];
                       const int pb = opt_.branch_priority.empty()
                                          ? 0
                                          : opt_.branch_priority[b];
                       return pa > pb;
                     });
    depth = std::min<unsigned>(depth,
                               static_cast<unsigned>(free_bins.size()));
    fan_vars.assign(free_bins.begin(), free_bins.begin() + depth);
  }

  const std::size_t n_subtrees = std::size_t{1} << depth;
  const std::uint64_t budget =
      std::max<std::uint64_t>(1, opt_.max_nodes / n_subtrees);

  std::vector<SubtreeResult> results(n_subtrees);
  // Each subtree runs inside an "ilp.subtree" trace span, flow-linked back
  // to the span that launched the fan-out (flow tails are emitted here, on
  // the solving thread, before any subtree starts).
  std::vector<std::uint64_t> subtree_flows;
  if (tracer != nullptr && depth > 0) {
    subtree_flows.reserve(n_subtrees);
    for (std::size_t i = 0; i < n_subtrees; ++i) {
      subtree_flows.push_back(tracer->flow_begin(obs::trace_names::kIlpSubtree, obs::trace_names::kCatIlp));
    }
  }
  const auto run_subtree = [&](std::size_t i) {
    const obs::TraceSpan scope(
        depth > 0 ? tracer : nullptr, obs::trace_names::kIlpSubtree, obs::trace_names::kCatIlp,
        subtree_flows.empty() ? 0 : subtree_flows[i]);
    Node sub = root;
    sub.depth = depth;
    for (unsigned k = 0; k < depth; ++k) {
      const std::size_t j = fan_vars[k];
      const double v = static_cast<double>((i >> k) & 1u);
      sub.lower[j] = v;
      sub.upper[j] = v;
    }
    results[i] = explore_subtree(m, opt_, std::move(sub), budget,
                                 incumbent_key, cutoff_key, near);
  };

  const unsigned workers = support::ThreadPool::resolve(opt_.threads);
  if (workers > 1 && n_subtrees > 1) {
    // Every worker gets its named track, even one that draws no subtree.
    support::ThreadPool pool(workers, "ilp", [tracer] {
      if (tracer != nullptr) tracer->ensure_track();
    });
    for (std::size_t i = 0; i < n_subtrees; ++i) {
      pool.submit([&run_subtree, i] { run_subtree(i); });
    }
    pool.wait();
  } else {
    for (std::size_t i = 0; i < n_subtrees; ++i) run_subtree(i);
  }

  // Deterministic merge in subtree index order: counters sum, the best
  // strictly-improving incumbent wins, ties keep the earliest subtree.
  last_stats_.subtrees = depth > 0 ? n_subtrees : 0;
  bool hit_limit = false;
  for (std::size_t i = 0; i < n_subtrees; ++i) {
    SubtreeResult& r = results[i];
    if (r.unbounded) {
      Solution s;
      s.status = SolveStatus::kUnbounded;
      return s;
    }
    last_stats_.nodes += r.stats.nodes;
    last_stats_.max_depth = std::max(last_stats_.max_depth, r.stats.max_depth);
    last_stats_.incumbent_updates += r.stats.incumbent_updates;
    last_stats_.bound_prunes += r.stats.bound_prunes;
    last_stats_.infeasible_prunes += r.stats.infeasible_prunes;
    last_stats_.simplex_iterations += r.stats.simplex_iterations;
    last_stats_.lp_limit_retries += r.stats.lp_limit_retries;
    hit_limit = hit_limit || r.hit_limit;
    if (!r.best.values.empty() && r.best_key < incumbent_key) {
      incumbent = std::move(r.best);
      incumbent_key = r.best_key;
    }
  }

  if (incumbent.values.empty()) {
    incumbent.status =
        hit_limit ? SolveStatus::kLimit : SolveStatus::kInfeasible;
  } else {
    incumbent.status = hit_limit ? SolveStatus::kLimit : SolveStatus::kOptimal;
  }
  return incumbent;
}

}  // namespace casa::ilp
