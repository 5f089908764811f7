#include "casa/ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "casa/support/error.hpp"

namespace casa::ilp {

namespace {

/// Dense two-phase bounded-variable simplex working state.
class Tableau {
 public:
  Tableau(const Model& m, const std::vector<double>& lower,
          const std::vector<double>& upper, const SimplexSolver::Options& opt)
      : model_(m), opt_(opt) {
    build(lower, upper);
  }

  Solution run();

 private:
  enum class StepResult { kOptimal, kUnbounded, kIterLimit, kProgress };

  void build(const std::vector<double>& lower,
             const std::vector<double>& upper);
  void compute_reduced_costs();
  void refresh_eligible(std::size_t j);
  StepResult iterate();
  int price() const;
  void pivot(std::size_t r, std::size_t q);
  Solution extract(SolveStatus status);
  double phase1_infeasibility() const;

  double at(std::size_t r, std::size_t c) const { return t_[r * n_ + c]; }
  double& at(std::size_t r, std::size_t c) { return t_[r * n_ + c]; }

  const Model& model_;
  const SimplexSolver::Options& opt_;

  std::size_t m_ = 0;        // rows
  std::size_t n_ = 0;        // total columns (struct + slack + artificial)
  std::size_t n_struct_ = 0; // structural columns

  std::vector<double> t_;        // m_ x n_ tableau, row-major
  std::vector<double> xb_;       // right-hand side: basic values, length m_
  std::vector<double> d_;        // reduced costs, length n_
  std::vector<double> elig_;     // d_ where the column may enter, else +inf
  std::vector<double> col_;      // entering column's nonzeros, in row order
  std::vector<std::size_t> col_rows_;  // their rows
  std::size_t col_nnz_ = 0;
  std::vector<std::size_t> nz_;  // pivot row's nonzero columns
  std::vector<double> cost_;     // tableau-space phase cost, length n_
  std::vector<double> cost2_;    // tableau-space phase-2 cost, length n_
  std::vector<double> ubound_;   // tableau-space upper bounds (U_j)
  std::vector<double> shift_;    // original lower bound per struct var
  std::vector<char> complemented_;
  std::vector<char> is_artificial_;
  std::vector<int> basis_;       // basic var per row, -1 none
  std::vector<int> row_of_;      // row of basic var, -1 if nonbasic
  bool phase1_ = true;
  unsigned degenerate_streak_ = 0;
  std::uint64_t iters_ = 0;
  bool maximize_ = false;
};

void Tableau::build(const std::vector<double>& lower,
                    const std::vector<double>& upper) {
  const std::size_t nv = model_.var_count();
  const std::size_t nc = model_.constraint_count();
  maximize_ = model_.sense() == Sense::kMaximize;

  shift_.resize(nv);
  std::vector<double> ub(nv);
  for (std::size_t j = 0; j < nv; ++j) {
    const Variable& v = model_.var(VarId(static_cast<std::uint32_t>(j)));
    const double lo = lower.empty() ? v.lower : lower[j];
    const double hi = upper.empty() ? v.upper : upper[j];
    CASA_CHECK(std::isfinite(lo), "simplex requires finite lower bounds");
    CASA_CHECK(lo <= hi, "variable bounds crossed in override");
    shift_[j] = lo;
    ub[j] = hi - lo;
  }

  // Row preprocessing: shifted rhs, sign normalization, slack layout.
  struct RowInfo {
    Rel rel;
    double rhs;
    bool negated;
  };
  std::vector<RowInfo> rows(nc);
  std::size_t n_slack = 0, n_art = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    const Constraint& c =
        model_.constraint(ConstraintId(static_cast<std::uint32_t>(i)));
    double rhs = c.rhs - c.expr.constant();
    for (const Term& term : c.expr.terms()) {
      rhs -= term.coef * shift_[term.var.index()];
    }
    Rel rel = c.rel;
    bool neg = rhs < 0.0;
    if (neg) {
      rhs = -rhs;
      if (rel == Rel::kLessEq) {
        rel = Rel::kGreaterEq;
      } else if (rel == Rel::kGreaterEq) {
        rel = Rel::kLessEq;
      }
    }
    rows[i] = RowInfo{rel, rhs, neg};
    if (rel != Rel::kEqual) ++n_slack;
    if (rel != Rel::kLessEq) ++n_art;
  }

  m_ = nc;
  n_struct_ = nv;
  n_ = nv + n_slack + n_art;
  t_.assign(m_ * n_, 0.0);
  xb_.assign(m_, 0.0);
  ubound_.assign(n_, kInfinity);
  for (std::size_t j = 0; j < nv; ++j) ubound_[j] = ub[j];
  complemented_.assign(n_, 0);
  is_artificial_.assign(n_, 0);
  basis_.assign(m_, -1);
  row_of_.assign(n_, -1);
  cost_.assign(n_, 0.0);
  cost2_.assign(n_, 0.0);
  elig_.resize(n_);
  col_.resize(m_);
  col_rows_.resize(m_);
  nz_.resize(n_);

  // Structural coefficients.
  for (std::size_t i = 0; i < nc; ++i) {
    const Constraint& c =
        model_.constraint(ConstraintId(static_cast<std::uint32_t>(i)));
    const double sign = rows[i].negated ? -1.0 : 1.0;
    for (const Term& term : c.expr.terms()) {
      at(i, term.var.index()) += sign * term.coef;
    }
    xb_[i] = rows[i].rhs;
  }

  // Slack / artificial columns and the starting basis.
  std::size_t next = nv;
  for (std::size_t i = 0; i < nc; ++i) {
    switch (rows[i].rel) {
      case Rel::kLessEq: {
        at(i, next) = 1.0;
        basis_[i] = static_cast<int>(next);
        row_of_[next] = static_cast<int>(i);
        ++next;
        break;
      }
      case Rel::kGreaterEq: {
        at(i, next) = -1.0;  // surplus
        ++next;
        break;
      }
      case Rel::kEqual:
        break;
    }
  }
  for (std::size_t i = 0; i < nc; ++i) {
    if (rows[i].rel == Rel::kLessEq) continue;
    at(i, next) = 1.0;  // artificial
    is_artificial_[next] = 1;
    cost_[next] = 1.0;
    basis_[i] = static_cast<int>(next);
    row_of_[next] = static_cast<int>(i);
    ++next;
  }
  CASA_CHECK(next == n_, "column accounting bug");

  // Phase-2 cost in tableau space (minimization).
  for (const Term& term : model_.objective().terms()) {
    cost2_[term.var.index()] += maximize_ ? -term.coef : term.coef;
  }

  phase1_ = true;
  compute_reduced_costs();
}

void Tableau::compute_reduced_costs() {
  const std::vector<double>& c = phase1_ ? cost_ : cost2_;
  d_.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) d_[j] = c[j];
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = c[static_cast<std::size_t>(basis_[i])];
    if (cb == 0.0) continue;
    for (std::size_t j = 0; j < n_; ++j) d_[j] -= cb * at(i, j);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    d_[static_cast<std::size_t>(basis_[i])] = 0.0;
  }
  for (std::size_t j = 0; j < n_; ++j) refresh_eligible(j);
}

/// Basic, fixed (U_j <= 0) and, in phase 2, artificial columns never enter;
/// pricing sees them as +inf so it needs no per-column branches.
void Tableau::refresh_eligible(std::size_t j) {
  const bool eligible = row_of_[j] < 0 && !(ubound_[j] <= 0.0) &&
                        (phase1_ || !is_artificial_[j]);
  elig_[j] = eligible ? d_[j] : std::numeric_limits<double>::infinity();
}

// Dantzig: the first column holding the most negative eligible reduced cost
// below -tol. The minimum is an exact reduction (ties and NaNs resolve the
// same in any order), so the multi-lane scan returns what a strict-< left to
// right scan would. Bland: the first eligible column below -tol.
int Tableau::price() const {
  const double* e = elig_.data();
  const double limit = -opt_.tol;
  if (degenerate_streak_ >= opt_.bland_trigger) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (e[j] < limit) return static_cast<int>(j);
    }
    return -1;
  }
  // Eight independent minimum chains keep the scan throughput-bound.
  constexpr std::size_t kLanes = 8;
  double m[kLanes];
  for (double& x : m) x = std::numeric_limits<double>::infinity();
  std::size_t j = 0;
  for (; j + kLanes <= n_; j += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      m[l] = e[j + l] < m[l] ? e[j + l] : m[l];
    }
  }
  for (; j < n_; ++j) m[0] = e[j] < m[0] ? e[j] : m[0];
  double best = m[0];
  for (std::size_t l = 1; l < kLanes; ++l) best = m[l] < best ? m[l] : best;
  if (!(best < limit)) return -1;
  std::size_t first = 0;
  while (e[first] != best) ++first;
  return static_cast<int>(first);
}

Tableau::StepResult Tableau::iterate() {
  if (iters_ >= opt_.max_iters) return StepResult::kIterLimit;
  ++iters_;

  const int enter = price();
  if (enter < 0) return StepResult::kOptimal;
  const auto q = static_cast<std::size_t>(enter);

  // Gather the entering column's nonzero rows once (branch-free): the ratio
  // test, a bound flip and the pivot visit only those rows, in row order. A
  // zero row never blocks the ratio test and is left unchanged by both.
  col_nnz_ = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double a = at(i, q);
    col_[col_nnz_] = a;
    col_rows_[col_nnz_] = i;
    col_nnz_ += a != 0.0 ? 1 : 0;
  }

  // Ratio test.
  double t_best = ubound_[q];  // bound flip distance (may be +inf)
  int leave_row = -1;
  bool leave_at_upper = false;
  for (std::size_t k = 0; k < col_nnz_; ++k) {
    const std::size_t i = col_rows_[k];
    const double a = col_[k];
    const double xb = xb_[i];
    const auto vb = static_cast<std::size_t>(basis_[i]);
    if (a > opt_.tol) {
      const double t = xb / a;
      if (t < t_best - opt_.tol ||
          (t < t_best + opt_.tol && leave_row >= 0 &&
           basis_[i] < basis_[static_cast<std::size_t>(leave_row)])) {
        t_best = t;
        leave_row = static_cast<int>(i);
        leave_at_upper = false;
      }
    } else if (a < -opt_.tol && std::isfinite(ubound_[vb])) {
      const double t = (ubound_[vb] - xb) / (-a);
      if (t < t_best - opt_.tol ||
          (t < t_best + opt_.tol && leave_row >= 0 &&
           basis_[i] < basis_[static_cast<std::size_t>(leave_row)])) {
        t_best = t;
        leave_row = static_cast<int>(i);
        leave_at_upper = true;
      }
    }
  }

  if (leave_row < 0) {
    if (!std::isfinite(t_best)) return StepResult::kUnbounded;
    // Bound flip: the entering variable travels to its upper bound. Rows
    // where the column is zero would only change the sign of a zero.
    for (std::size_t k = 0; k < col_nnz_; ++k) {
      const std::size_t i = col_rows_[k];
      xb_[i] -= col_[k] * t_best;
      at(i, q) = -col_[k];
    }
    d_[q] = -d_[q];
    refresh_eligible(q);
    cost_[q] = -cost_[q];
    cost2_[q] = -cost2_[q];
    complemented_[q] ^= 1;
    degenerate_streak_ = t_best < opt_.tol ? degenerate_streak_ + 1 : 0;
    return StepResult::kProgress;
  }

  const auto r = static_cast<std::size_t>(leave_row);
  if (leave_at_upper) {
    // Substitute the leaving basic variable by its complement so it exits at
    // zero: negate its row and reposition the basic value.
    const auto vb = static_cast<std::size_t>(basis_[r]);
    const double u = ubound_[vb];
    for (std::size_t j = 0; j < n_; ++j) at(r, j) = -at(r, j);
    at(r, vb) = 1.0;
    xb_[r] = u - xb_[r];
    cost_[vb] = -cost_[vb];
    cost2_[vb] = -cost2_[vb];
    complemented_[vb] ^= 1;
    // Note: a_rq became -a_rq > 0 — pivot below proceeds normally.
  }

  pivot(r, q);
  degenerate_streak_ = t_best < opt_.tol ? degenerate_streak_ + 1 : 0;
  return StepResult::kProgress;
}

/// Pivots on (r, q). Only the pivot row's nonzero columns and the rows whose
/// entering-column entry is nonzero change: every skipped update would
/// subtract an exact zero, which can at most flip the sign of a zero entry,
/// and a signed zero never feeds a decision (docs/solver.md, "Bit-exact
/// kernel contract").
void Tableau::pivot(std::size_t r, std::size_t q) {
  double* const prow = &t_[r * n_];
  const double p = prow[q];
  CASA_CHECK(std::abs(p) > opt_.tol, "pivot element vanished");
  const double inv = 1.0 / p;
  // Branch-free compaction of the pivot row's nonzero columns.
  std::size_t* const nz = nz_.data();
  std::size_t count = 0;
  for (std::size_t j = 0; j < n_; ++j) {
    nz[count] = j;
    count += prow[j] != 0.0 ? 1 : 0;
  }
  for (std::size_t k = 0; k < count; ++k) prow[nz[k]] *= inv;
  prow[q] = 1.0;
  if (xb_[r] != 0.0) xb_[r] *= inv;
  const double xr = xb_[r];
  for (std::size_t c = 0; c < col_nnz_; ++c) {
    const std::size_t i = col_rows_[c];
    if (i == r) continue;
    const double f = col_[c];
    double* const row = &t_[i * n_];
    for (std::size_t k = 0; k < count; ++k) row[nz[k]] -= f * prow[nz[k]];
    row[q] = 0.0;
    if (xr != 0.0) xb_[i] -= f * xr;
  }
  const double dq = d_[q];
  if (dq != 0.0) {
    for (std::size_t k = 0; k < count; ++k) d_[nz[k]] -= dq * prow[nz[k]];
  }
  d_[q] = 0.0;

  row_of_[static_cast<std::size_t>(basis_[r])] = -1;
  basis_[r] = static_cast<int>(q);
  row_of_[q] = static_cast<int>(r);
  // The leaving column and q are both nonzero in the pivot row, as is every
  // column whose reduced cost moved.
  for (std::size_t k = 0; k < count; ++k) refresh_eligible(nz[k]);
}

double Tableau::phase1_infeasibility() const {
  double total = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (is_artificial_[static_cast<std::size_t>(basis_[i])]) {
      total += std::max(0.0, xb_[i]);
    }
  }
  return total;
}

Solution Tableau::extract(SolveStatus status) {
  Solution sol;
  sol.status = status;
  sol.iterations = iters_;
  if (status != SolveStatus::kOptimal) return sol;

  sol.values.assign(model_.var_count(), 0.0);
  sol.reduced_costs.assign(model_.var_count(), 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    double y = 0.0;
    if (row_of_[j] >= 0) {
      y = xb_[static_cast<std::size_t>(row_of_[j])];
    }
    if (complemented_[j]) y = ubound_[j] - y;
    sol.values[j] = shift_[j] + y;
    // d_ holds phase-2 reduced costs in tableau space at termination; a
    // complemented column prices the variable's complement, so flip the
    // sign to report the original orientation (at upper bound => <= 0).
    sol.reduced_costs[j] =
        row_of_[j] >= 0 ? 0.0 : (complemented_[j] ? -d_[j] : d_[j]);
  }

  double obj = model_.objective().constant();
  for (const Term& term : model_.objective().terms()) {
    obj += term.coef * sol.values[term.var.index()];
  }
  sol.objective = obj;
  return sol;
}

Solution Tableau::run() {
  // Phase 1: minimize artificial infeasibility.
  bool need_phase1 = false;
  for (std::size_t j = 0; j < n_; ++j) {
    if (is_artificial_[j]) {
      need_phase1 = true;
      break;
    }
  }
  if (need_phase1) {
    for (;;) {
      const StepResult r = iterate();
      if (r == StepResult::kProgress) continue;
      if (r == StepResult::kIterLimit) return extract(SolveStatus::kLimit);
      if (r == StepResult::kUnbounded) {
        // Phase-1 objective is bounded below by zero; an unbounded ray here
        // indicates numeric trouble. Treat as limit.
        return extract(SolveStatus::kLimit);
      }
      break;  // optimal
    }
    if (phase1_infeasibility() > 1e-7) {
      return extract(SolveStatus::kInfeasible);
    }
    // Freeze artificials at zero and switch cost rows.
    for (std::size_t j = 0; j < n_; ++j) {
      if (is_artificial_[j]) ubound_[j] = 0.0;
    }
  }

  phase1_ = false;
  degenerate_streak_ = 0;
  compute_reduced_costs();
  for (;;) {
    const StepResult r = iterate();
    if (r == StepResult::kProgress) continue;
    if (r == StepResult::kIterLimit) return extract(SolveStatus::kLimit);
    if (r == StepResult::kUnbounded) return extract(SolveStatus::kUnbounded);
    break;
  }
  return extract(SolveStatus::kOptimal);
}

}  // namespace

Solution SimplexSolver::solve_relaxation(const Model& m) const {
  return solve_relaxation(m, {}, {});
}

Solution SimplexSolver::solve_relaxation(const Model& m,
                                         const std::vector<double>& lower,
                                         const std::vector<double>& upper) const {
  CASA_CHECK(lower.empty() || lower.size() == m.var_count(),
             "lower override size mismatch");
  CASA_CHECK(upper.empty() || upper.size() == m.var_count(),
             "upper override size mismatch");
  Tableau tab(m, lower, upper, opt_);
  return tab.run();
}

}  // namespace casa::ilp
