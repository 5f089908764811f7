#include "casa/core/formulation.hpp"

#include <cmath>
#include <string>

#include "casa/support/error.hpp"

namespace casa::core {

CasaModel build_casa_model(const SavingsProblem& sp, Linearization lin) {
  CasaModel cm;
  ilp::Model& m = cm.model;

  // Location variables l_k (eq. 7): 1 = cached, 0 = scratchpad.
  cm.l_vars.reserve(sp.item_count());
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    cm.l_vars.push_back(m.add_binary("l_" + std::to_string(k)));
  }

  // Linearization variables L_p = l_a * l_b (eq. 12).
  cm.L_vars.reserve(sp.edges.size());
  for (std::size_t p = 0; p < sp.edges.size(); ++p) {
    const auto& e = sp.edges[p];
    const std::string name = "L_" + std::to_string(e.a) + "_" +
                             std::to_string(e.b);
    if (lin == Linearization::kPaper) {
      const VarId L = m.add_binary(name);
      cm.L_vars.push_back(L);
      // (13) l_a - L >= 0
      m.add_constraint("lin13_" + std::to_string(p),
                       ilp::LinExpr().add(cm.l_vars[e.a], 1.0).add(L, -1.0),
                       ilp::Rel::kGreaterEq, 0.0);
      // (14) l_b - L >= 0
      m.add_constraint("lin14_" + std::to_string(p),
                       ilp::LinExpr().add(cm.l_vars[e.b], 1.0).add(L, -1.0),
                       ilp::Rel::kGreaterEq, 0.0);
      // (15) l_a + l_b - 2L <= 1
      m.add_constraint("lin15_" + std::to_string(p),
                       ilp::LinExpr()
                           .add(cm.l_vars[e.a], 1.0)
                           .add(cm.l_vars[e.b], 1.0)
                           .add(L, -2.0),
                       ilp::Rel::kLessEq, 1.0);
    } else {
      const VarId L = m.add_continuous(name, 0.0, 1.0);
      cm.L_vars.push_back(L);
      // L >= l_a + l_b - 1 (minimization with positive weight pushes L down
      // to the max of this and zero, which equals l_a * l_b at integer l).
      m.add_constraint("lin_" + std::to_string(p),
                       ilp::LinExpr()
                           .add(cm.l_vars[e.a], 1.0)
                           .add(cm.l_vars[e.b], 1.0)
                           .add(L, -1.0),
                       ilp::Rel::kLessEq, 1.0);
    }
  }

  // Capacity (eq. 17): sum of sizes of scratchpad objects <= capacity.
  // Over items: sum w_k (1 - l_k) <= C  <=>  sum w_k l_k >= W - C.
  double total_w = 0.0;
  ilp::LinExpr cap;
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    cap.add(cm.l_vars[k], static_cast<double>(sp.weight[k]));
    total_w += static_cast<double>(sp.weight[k]);
  }
  m.add_constraint("capacity", std::move(cap), ilp::Rel::kGreaterEq,
                   total_w - static_cast<double>(sp.capacity));

  // Objective (eq. 12/16): variable part only; the constant is carried in
  // objective_offset.
  ilp::LinExpr obj;
  Energy var_total = 0;
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    obj.add(cm.l_vars[k], sp.value[k]);
    var_total += sp.value[k];
  }
  for (std::size_t p = 0; p < sp.edges.size(); ++p) {
    obj.add(cm.L_vars[p], sp.edges[p].weight);
    var_total += sp.edges[p].weight;
  }
  m.set_objective(ilp::Sense::kMinimize, std::move(obj));
  cm.objective_offset = sp.all_cached_energy - var_total;
  return cm;
}

std::vector<double> warm_assignment(const CasaModel& cm,
                                    const SavingsProblem& sp,
                                    const std::vector<bool>& chosen) {
  CASA_CHECK(chosen.size() == cm.l_vars.size(),
             "warm assignment needs one choice per item");
  std::vector<double> x(cm.model.var_count(), 0.0);
  for (std::size_t k = 0; k < cm.l_vars.size(); ++k) {
    x[cm.l_vars[k].index()] = chosen[k] ? 0.0 : 1.0;
  }
  for (std::size_t p = 0; p < cm.L_vars.size(); ++p) {
    const auto& e = sp.edges[p];
    x[cm.L_vars[p].index()] =
        x[cm.l_vars[e.a].index()] * x[cm.l_vars[e.b].index()];
  }
  return x;
}

Energy near_optimal_window(const SavingsProblem& sp) {
  Energy total = 0;
  for (const Energy v : sp.value) total += std::abs(v);
  for (const SavingsProblem::Edge& e : sp.edges) total += std::abs(e.weight);
  return 2e-7 * (1 + total);
}

std::vector<bool> choice_from_solution(const CasaModel& cm,
                                       const ilp::Solution& sol) {
  CASA_CHECK(sol.status == ilp::SolveStatus::kOptimal ||
                 sol.status == ilp::SolveStatus::kLimit,
             "no usable ILP solution");
  std::vector<bool> chosen(cm.l_vars.size());
  for (std::size_t k = 0; k < cm.l_vars.size(); ++k) {
    chosen[k] = !sol.value_as_bool(cm.l_vars[k]);  // l = 0 -> scratchpad
  }
  return chosen;
}

}  // namespace casa::core
