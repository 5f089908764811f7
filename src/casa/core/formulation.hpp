// The paper's ILP formulation (eq. 12-17) over the presolved problem.
//
// Two linearizations of L(x_i,x_j) = l_i * l_j are provided:
//  * kPaper — constraints (13)-(15) with *binary* L. (With continuous L the
//    paper's constraint set admits L = 1/2 at l_i = l_j = 1, so integrality
//    of L is required for correctness; see DESIGN.md.)
//  * kTight — the standard linearization for minimization with positive
//    coefficients: continuous L >= l_i + l_j - 1, L >= 0. Fewer integer
//    variables, identical integer optima.
#pragma once

#include <vector>

#include "casa/core/problem.hpp"
#include "casa/ilp/model.hpp"

namespace casa::core {

enum class Linearization { kPaper, kTight };

struct CasaModel {
  ilp::Model model;
  std::vector<VarId> l_vars;  ///< per item: l = 1 cached, l = 0 scratchpad
  std::vector<VarId> L_vars;  ///< per presolved edge
  /// predicted energy = objective_offset + ILP objective value.
  Energy objective_offset = 0;
};

/// Builds the ILP for `sp`.
CasaModel build_casa_model(const SavingsProblem& sp, Linearization lin);

/// Extracts the per-item scratchpad choice from a solved model.
std::vector<bool> choice_from_solution(const CasaModel& cm,
                                       const ilp::Solution& sol);

/// Lifts a per-item scratchpad choice into a full model assignment
/// (l_k = 0 when chosen, 1 when cached; L_p = l_a * l_b), sized
/// cm.model.var_count(). Any capacity-feasible choice yields a feasible
/// point of either linearization, so the result is a sound warm-start hint
/// for ilp::BranchAndBound.
std::vector<double> warm_assignment(const CasaModel& cm,
                                    const SavingsProblem& sp,
                                    const std::vector<bool>& chosen);

/// The window of the near-optimal set that goes with a lifted cutoff
/// (CasaBranchBound::enumerate, ilp::BranchAndBoundOptions::
/// near_optimal_set): 2e-7 (1 + sum of |value| and |edge weight|). The
/// generic search accepts an incumbent only below the cutoff's objective
/// plus a slack of 1e-7 (1 + |objective|), and every objective of either
/// linearization lies within that sum, so twice the slack covers it with
/// room for the rounding of both engines' sums.
Energy near_optimal_window(const SavingsProblem& sp);

}  // namespace casa::core
