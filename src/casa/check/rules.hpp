// Semantic invariant rules over the CASA pipeline's inter-stage artifacts.
//
// Each function analyzes one artifact kind and reports violations into a
// CheckRunner; none of them throws on a bad artifact (collection is the
// runner's job, escalation the caller's). The rules encode what the paper's
// formulation guarantees only implicitly:
//
//  * check_casa_model       — ILP well-formedness: every linearization
//    variable L(x_i,x_j) carries its constraints (13)-(15) (paper mode) or
//    the tight single-row form, the capacity row (17) is present and
//    consistent with the memory-object sizes, no orphan variables or
//    degenerate rows.
//  * check_conflict_graph   — edges only between objects that can actually
//    alias in the cache (share a set under the layout), m_ij <= f_i,
//    self-edges only on objects long enough to evict their own lines,
//    hit/cold/conflict-miss bookkeeping sums back to the fetch count, and
//    vertex weights agree with the trace profile.
//  * check_trace_program /  — placement legality: cache-line-aligned
//    check_layout             padding, no address overlap, span containment.
//  * check_allocation       — scratchpad capacity (17) respected by the
//    final mask; used-byte accounting consistent.
//  * check_energy_table /   — E_miss > E_hit > E_SP_hit ordering, finite
//    check_energy_scaling     non-negative entries, monotone SRAM-array
//                             scaling of the analytical models.
//
// Rule ids, severities and paper anchors are catalogued in docs/checks.md.
#pragma once

#include "casa/cachesim/cache.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/conflict_graph.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/core/problem.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/energy/technology.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/memory_object.hpp"

namespace casa::check {

/// Trace-formation output: every memory object NOP-padded to a whole number
/// of `line_size`-byte cache lines, raw sizes positive and never larger
/// than the pad.
void check_trace_program(const traceopt::TraceProgram& tp, Bytes line_size,
                         CheckRunner& runner);

/// Layout legality: placed objects line-aligned, mutually non-overlapping,
/// and contained in the layout's [base, base + span) window.
void check_layout(const traceopt::TraceProgram& tp,
                  const traceopt::Layout& layout, Bytes line_size,
                  CheckRunner& runner);

/// Conflict-graph invariants under the layout it was built from.
void check_conflict_graph(const traceopt::TraceProgram& tp,
                          const traceopt::Layout& layout,
                          const conflict::ConflictGraph& graph,
                          const cachesim::CacheConfig& cache,
                          CheckRunner& runner);

/// ILP well-formedness of a built CasaModel against its SavingsProblem.
void check_casa_model(const core::CasaModel& cm,
                      const core::SavingsProblem& sp, core::Linearization lin,
                      CheckRunner& runner);

/// Final allocation legality against the problem it solved: mask size,
/// capacity constraint (17) over unpadded sizes, used-byte accounting.
void check_allocation(const core::CasaProblem& problem,
                      const core::AllocationResult& result,
                      CheckRunner& runner);

/// As above for any plain scratchpad selection mask (Steinke baseline).
void check_spm_selection(const std::vector<Bytes>& sizes, Bytes capacity,
                         const std::vector<bool>& on_spm, Bytes used_bytes,
                         CheckRunner& runner);

/// Energy-table sanity: finite non-negative entries, E_miss > E_hit, and
/// (when a scratchpad / loop cache is configured) E_hit > E_SP_hit and
/// positive loop-cache energies.
void check_energy_table(const energy::EnergyTable& table, bool has_spm,
                        bool has_lc, CheckRunner& runner);

/// Analytical-model scaling: scratchpad and cache per-access energies must
/// grow monotonically with capacity (the SRAM-array decomposition adds
/// rows, never removes cost). Configuration-independent; run once per
/// check invocation, not per flow.
void check_energy_scaling(const energy::TechnologyParams& tech,
                          CheckRunner& runner);

/// What a fault-contained batch run produced, reduced to the counts the
/// run.partial_failure rule needs (plain values so the rule stays free of
/// report-layer types; report::batch_summary_of builds one from JobResults).
struct BatchSummary {
  std::size_t jobs = 0;     ///< total jobs requested
  std::size_t failed = 0;   ///< jobs whose final attempt still failed
  std::size_t retried = 0;  ///< jobs that succeeded only after retries
  /// One "job N: kind: message" line per failed job, in job order.
  std::vector<std::string> failures;
};

/// Degraded-batch reporting: a batch where some jobs failed is a warning
/// (the healthy outcomes are still usable data — the DSE workflow treats
/// per-point failure as data, not a crash), a batch where *every* job
/// failed is an error.
void check_batch(const BatchSummary& batch, CheckRunner& runner);

/// One sampled cache-hit verification from the evaluation service, reduced
/// to plain values (same layering rationale as BatchSummary): the service
/// re-evaluates a sampled hit from scratch and reports whether the cached
/// Outcome still compares equal — Outcome::operator== is bit-exact on
/// every solve-determined field, so any inequality means the cache served
/// a result the pipeline would no longer produce.
struct CachedResultSample {
  std::string key;             ///< canonical cache key of the sampled entry
  bool outcomes_equal = true;  ///< cached Outcome == freshly recomputed one
};

/// A stale or corrupted cached result is always an error: serving it would
/// silently misreport the paper's numbers, so the service fails the
/// request instead.
void check_cached_result(const CachedResultSample& sample,
                         CheckRunner& runner);

}  // namespace casa::check
