// CasaAllocator — the public entry point for the paper's algorithm.
//
// Pipeline position (paper fig. 3): after trace generation and conflict
// graph construction, the allocator picks the subset of memory objects to
// copy onto the scratchpad. Engines:
//  * kGenericIlp     — the literal paper path: build the ILP (eq. 12-17) and
//                      solve it exactly with the generic branch & bound over
//                      the simplex relaxation (the repo's CPLEX stand-in).
//  * kSpecializedBnB — exact combinatorial branch & bound on the presolved
//                      savings problem; same optimum, much faster on large
//                      conflict graphs.
//  * kGreedy         — polynomial heuristic (no optimality guarantee).
//  * kAuto           — generic ILP for small instances, specialized B&B
//                      beyond `generic_ilp_max_edges` edges.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/core/formulation.hpp"
#include "casa/core/problem.hpp"
#include "casa/ilp/model.hpp"
#include "casa/ilp/solve_stats.hpp"

namespace casa::core {

enum class CasaEngine { kAuto, kSpecializedBnB, kGenericIlp, kGreedy };

const char* to_string(CasaEngine e);

struct CasaOptions {
  CasaEngine engine = CasaEngine::kAuto;
  /// kTight by default: identical integer optima to the paper's (13)-(15)
  /// with far smaller branch & bound trees (Ablation B in EXPERIMENTS.md
  /// verifies the equivalence). Set kPaper for the literal formulation.
  Linearization linearization = Linearization::kTight;
  /// kAuto switches from the generic ILP to the specialized solver when the
  /// presolved edge count exceeds this.
  std::size_t generic_ilp_max_edges = 120;
  std::uint64_t max_nodes = 50'000'000;
  /// Generic-ILP engine tuning (ignored by the specialized/greedy engines).
  /// Worker threads for the branch & bound subtree fan-out (0 = hardware
  /// concurrency, 1 = serial). Results are thread-count-invariant; see
  /// docs/solver.md.
  unsigned ilp_threads = 1;
  /// Pin the subtree fan-out depth explicitly (0 = allocator default of 3,
  /// deliberately independent of ilp_threads so the allocation never
  /// depends on the machine's core count).
  unsigned ilp_subtree_depth = 0;
  /// Seed the incumbent from the Steinke knapsack selection and a rounded
  /// root LP before node 1 (SolveStats::warm_start_used), and bound the
  /// search with the specialized engine's mask as an objective cutoff.
  /// false gives the unassisted search.
  bool ilp_warm_start = true;
  /// Run the bound-box presolve before search (SolveStats::presolve_fixed).
  bool ilp_presolve = true;

  friend bool operator==(const CasaOptions&, const CasaOptions&) = default;
};

struct AllocationResult {
  std::vector<bool> on_spm;    ///< per memory object
  Bytes used_bytes = 0;        ///< unpadded bytes placed on the scratchpad
  Energy predicted_energy = 0; ///< paper model (eq. 16; cold misses excl.)
  Energy predicted_saving = 0; ///< vs. the all-cached assignment
  std::uint64_t solver_nodes = 0;  ///< == solver_stats.nodes (convenience)
  bool exact = true;
  /// Termination status of the engine that ran. kOptimal means the search
  /// ran to completion (for greedy: the heuristic finished — `exact` stays
  /// false there, status only reports termination); kLimit means the search
  /// was truncated (max_nodes / LP iteration limit) and the allocation is a
  /// best-effort incumbent, or empty when none was found. Downstream
  /// reporting (Workbench, check_allocation) refuses truncated results
  /// rather than presenting them as "nothing fits".
  ilp::SolveStatus solver_status = ilp::SolveStatus::kOptimal;
  double solve_seconds = 0.0;
  CasaEngine engine_used = CasaEngine::kAuto;
  /// Exploration statistics of the engine that ran (all 0 for greedy).
  ilp::SolveStats solver_stats;
  /// Presolve reductions: items/edges that survived into the solved form.
  std::size_t presolved_items = 0;
  std::size_t presolved_edges = 0;

  /// Result equality. Every field the solve *determines* is compared
  /// exactly (bit-level for the doubles, not tolerance-based) — two runs
  /// of the same problem must compare equal, which is what the svc result
  /// cache's sampled hit-verification and the casa-result round-trip tests
  /// assert. solve_seconds is deliberately excluded: it is wall-clock
  /// telemetry, the one field an identical re-solve does not reproduce.
  friend bool operator==(const AllocationResult& a,
                         const AllocationResult& b) {
    return a.on_spm == b.on_spm && a.used_bytes == b.used_bytes &&
           a.predicted_energy == b.predicted_energy &&
           a.predicted_saving == b.predicted_saving &&
           a.solver_nodes == b.solver_nodes && a.exact == b.exact &&
           a.solver_status == b.solver_status &&
           a.engine_used == b.engine_used &&
           a.solver_stats == b.solver_stats &&
           a.presolved_items == b.presolved_items &&
           a.presolved_edges == b.presolved_edges;
  }
};

class CasaAllocator {
 public:
  using Options = CasaOptions;

  explicit CasaAllocator(Options opt = {}) : opt_(opt) {}

  [[nodiscard]] AllocationResult allocate(const CasaProblem& p) const;

 private:
  Options opt_;
};

}  // namespace casa::core
