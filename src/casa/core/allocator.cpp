#include "casa/core/allocator.hpp"

#include <algorithm>
#include <chrono>

#include "casa/baseline/steinke.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/core/greedy.hpp"
#include "casa/ilp/branch_bound.hpp"
#include "casa/support/error.hpp"

namespace casa::core {

namespace {

/// Node budget of the specialized enumeration whose best mask becomes the
/// generic engine's objective cutoff and whose near-optimal set prunes its
/// boxes. Every bundled Table 1 instance the generic engine solves is
/// enumerated within 1,933 nodes (jpeg@1024); a run that exhausts the
/// budget still returns a feasible mask, just a looser cutoff, and no set.
constexpr std::uint64_t kCutoffNodeBudget = 1u << 14;

}  // namespace

const char* to_string(CasaEngine e) {
  switch (e) {
    case CasaEngine::kAuto:
      return "auto";
    case CasaEngine::kSpecializedBnB:
      return "specialized-bnb";
    case CasaEngine::kGenericIlp:
      return "generic-ilp";
    case CasaEngine::kGreedy:
      return "greedy";
  }
  return "?";
}

AllocationResult CasaAllocator::allocate(const CasaProblem& p) const {
  const auto start = std::chrono::steady_clock::now();
  const SavingsProblem sp = presolve(p);

  CasaEngine engine = opt_.engine;
  if (engine == CasaEngine::kAuto) {
    engine = sp.edges.size() <= opt_.generic_ilp_max_edges
                 ? CasaEngine::kGenericIlp
                 : CasaEngine::kSpecializedBnB;
  }

  AllocationResult result;
  result.engine_used = engine;
  result.presolved_items = sp.item_count();
  result.presolved_edges = sp.edges.size();
  std::vector<bool> chosen;

  switch (engine) {
    case CasaEngine::kGenericIlp: {
      const CasaModel cm = build_casa_model(sp, opt_.linearization);
      ilp::BranchAndBoundOptions bopt;
      bopt.max_nodes = opt_.max_nodes;
      bopt.threads = opt_.ilp_threads;
      // Pin the fan-out depth to a thread-count-independent constant so the
      // allocation is bit-identical whatever ilp_threads is (the B&B derives
      // depth from the thread count when left at 0, which would tie results
      // to the machine).
      bopt.subtree_depth =
          opt_.ilp_subtree_depth != 0 ? opt_.ilp_subtree_depth : 3;
      bopt.presolve = opt_.ilp_presolve;
      bopt.warm_start = opt_.ilp_warm_start;
      if (opt_.ilp_warm_start && sp.item_count() > 0) {
        // Steinke's knapsack over the linear savings is capacity-feasible
        // for the full model (edges only add savings), so its lift is a
        // sound incumbent before node 1.
        bopt.warm_hint = warm_assignment(
            cm, sp, baseline::knapsack_seed(sp.weight, sp.value, sp.capacity));
        // The specialized engine's best mask bounds the search, and every
        // mask near it lists the boxes the search still has to walk. Both
        // only prune nodes that hold no incumbent the cutoff lets through,
        // so the generic engine still chooses among tied optima exactly as
        // an uncut search does (docs/solver.md, "Objective cutoff" and
        // "Near-optimal set").
        CasaBranchBoundOptions cut;
        cut.max_nodes = kCutoffNodeBudget;
        const CasaBranchBoundResult near =
            CasaBranchBound(cut).enumerate(sp, near_optimal_window(sp));
        bopt.cutoff_point = warm_assignment(cm, sp, near.chosen);
        // The set leaves every zero-fetch item cached, where presolve
        // fixes it. Without presolve the search may place one at no cost,
        // off the set, so the cutoff then goes alone.
        const bool free_zero_items =
            !opt_.ilp_presolve &&
            std::any_of(sp.value.begin(), sp.value.end(),
                        [](Energy v) { return v <= 0; });
        if (near.exact && !free_zero_items) {
          for (const std::vector<bool>& mask : near.near_optimal) {
            bopt.near_optimal_set.push_back(warm_assignment(cm, sp, mask));
          }
        }
      }
      // Location variables decide the allocation; the linearization
      // variables L are implied once the l are fixed — branch l first.
      bopt.branch_priority.assign(cm.model.var_count(), 0);
      for (const VarId l : cm.l_vars) bopt.branch_priority[l.index()] = 1;
      ilp::BranchAndBound solver(bopt);
      const ilp::Solution sol = solver.solve(cm.model);
      // The all-cached point always satisfies (13)-(17), so a well-formed
      // CASA model can never be infeasible or unbounded.
      CASA_CHECK(sol.status == ilp::SolveStatus::kOptimal ||
                     sol.status == ilp::SolveStatus::kLimit,
                 "CASA ILP did not produce a solution");
      result.solver_status = sol.status;
      if (sol.values.empty()) {
        // Truncated with no incumbent: the search proved nothing. Report
        // the all-cached assignment, but keep the kLimit status so
        // downstream consumers refuse to present it as an allocation.
        chosen.assign(sp.item_count(), false);
      } else {
        chosen = choice_from_solution(cm, sol);
      }
      result.exact = sol.status == ilp::SolveStatus::kOptimal;
      result.solver_stats = solver.last_stats();
      result.solver_nodes = result.solver_stats.nodes;
      break;
    }
    case CasaEngine::kSpecializedBnB: {
      CasaBranchBoundOptions bopt;
      bopt.max_nodes = opt_.max_nodes;
      const CasaBranchBound solver(bopt);
      CasaBranchBoundResult r = solver.solve(sp);
      chosen = std::move(r.chosen);
      result.exact = r.exact;
      result.solver_status =
          r.exact ? ilp::SolveStatus::kOptimal : ilp::SolveStatus::kLimit;
      result.solver_stats = r.stats;
      result.solver_nodes = r.nodes;
      break;
    }
    case CasaEngine::kGreedy: {
      GreedyResult r = solve_greedy(sp);
      chosen = std::move(r.chosen);
      result.exact = false;
      break;
    }
    case CasaEngine::kAuto:
      CASA_CHECK(false, "unreachable");
  }

  result.predicted_saving = sp.saving_for(chosen);
  result.predicted_energy = sp.energy_for(chosen);
  result.on_spm = expand_choice(p, sp, chosen);
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    if (chosen[k]) result.used_bytes += sp.weight[k];
  }
  CASA_CHECK(result.used_bytes <= p.capacity,
             "allocation exceeds scratchpad capacity");
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace casa::core
