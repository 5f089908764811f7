// Central registry of every casa::check rule id.
//
// Rule ids are stable API: docs/checks.md catalogues each with its
// paper-equation anchor, CI greps assert on them, and tests corrupt one
// artifact per id. Rule code refers to these constants, never to ad-hoc
// literals — a typo would mint a brand-new rule id that no catalogue, test
// or downstream grep knows about. casa_lint enforces this both ways
// (`names.unregistered` for stray literals, `names.undocumented` for
// registry entries missing from docs/checks.md).
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

namespace casa::check::rule_ids {

// ---- trace program (check_trace_program) ----
inline constexpr std::string_view kTraceSizeZero = "trace.size.zero";
inline constexpr std::string_view kTracePadMisaligned = "trace.pad.misaligned";
inline constexpr std::string_view kTracePadInconsistent =
    "trace.pad.inconsistent";

// ---- layout (check_layout) ----
inline constexpr std::string_view kLayoutAlignment = "layout.alignment";
inline constexpr std::string_view kLayoutSpanInconsistent =
    "layout.span.inconsistent";
inline constexpr std::string_view kLayoutOverlap = "layout.overlap";

// ---- conflict graph (check_conflict_graph) ----
inline constexpr std::string_view kConflictCacheDegenerate =
    "conflict.cache.degenerate";
inline constexpr std::string_view kConflictNodesCount = "conflict.nodes.count";
inline constexpr std::string_view kConflictFetchesProfileMismatch =
    "conflict.fetches.profile-mismatch";
inline constexpr std::string_view kConflictCountsInconsistent =
    "conflict.counts.inconsistent";
inline constexpr std::string_view kConflictEdgeExceedsFetches =
    "conflict.edge.exceeds-fetches";
inline constexpr std::string_view kConflictEdgeSelf = "conflict.edge.self";
inline constexpr std::string_view kConflictEdgeCrossSet =
    "conflict.edge.cross-set";

// ---- ILP model (check_casa_model) ----
inline constexpr std::string_view kIlpVarCountMismatch =
    "ilp.var.count-mismatch";
inline constexpr std::string_view kIlpRowDegenerate = "ilp.row.degenerate";
inline constexpr std::string_view kIlpTermBadVar = "ilp.term.bad-var";
inline constexpr std::string_view kIlpVarOrphan = "ilp.var.orphan";
inline constexpr std::string_view kIlpLinMissing = "ilp.lin.missing";
inline constexpr std::string_view kIlpLinMalformed = "ilp.lin.malformed";
inline constexpr std::string_view kIlpCapacityMissing = "ilp.capacity.missing";
inline constexpr std::string_view kIlpCapacityMismatch =
    "ilp.capacity.mismatch";

// ---- allocation (check_allocation / check_spm_selection) ----
inline constexpr std::string_view kAllocMaskSize = "alloc.mask.size";
inline constexpr std::string_view kAllocCapacityExceeded =
    "alloc.capacity.exceeded";
inline constexpr std::string_view kAllocUsedBytesMismatch =
    "alloc.used-bytes.mismatch";
inline constexpr std::string_view kAllocSolverTruncated =
    "alloc.solver.truncated";

// ---- energy table and models (check_energy_table / check_energy_scaling) --
inline constexpr std::string_view kEnergyValueInvalid = "energy.value.invalid";
inline constexpr std::string_view kEnergyOrderMissHit =
    "energy.order.miss-hit";
inline constexpr std::string_view kEnergyOrderHitSpm = "energy.order.hit-spm";
inline constexpr std::string_view kEnergySramNonMonotone =
    "energy.sram.non-monotone";

// ---- stack sweep (check_stack_sweep) ----
inline constexpr std::string_view kSweepStackMismatch = "sweep.stack.mismatch";

// ---- batch containment (check_batch) ----
inline constexpr std::string_view kRunPartialFailure = "run.partial_failure";

// ---- evaluation service (check_cached_result) ----
inline constexpr std::string_view kSvcCacheMismatch = "svc.cache.mismatch";

/// Every registered rule id, docs-sync-checked against docs/checks.md by
/// casa_lint.
inline constexpr std::string_view kAll[] = {
    kTraceSizeZero,
    kTracePadMisaligned,
    kTracePadInconsistent,
    kLayoutAlignment,
    kLayoutSpanInconsistent,
    kLayoutOverlap,
    kConflictCacheDegenerate,
    kConflictNodesCount,
    kConflictFetchesProfileMismatch,
    kConflictCountsInconsistent,
    kConflictEdgeExceedsFetches,
    kConflictEdgeSelf,
    kConflictEdgeCrossSet,
    kIlpVarCountMismatch,
    kIlpRowDegenerate,
    kIlpTermBadVar,
    kIlpVarOrphan,
    kIlpLinMissing,
    kIlpLinMalformed,
    kIlpCapacityMissing,
    kIlpCapacityMismatch,
    kAllocMaskSize,
    kAllocCapacityExceeded,
    kAllocUsedBytesMismatch,
    kAllocSolverTruncated,
    kEnergyValueInvalid,
    kEnergyOrderMissHit,
    kEnergyOrderHitSpm,
    kEnergySramNonMonotone,
    kSweepStackMismatch,
    kRunPartialFailure,
    kSvcCacheMismatch,
};

namespace detail {
constexpr bool all_unique(const std::string_view* names, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (names[i] == names[j]) return false;
    }
  }
  return true;
}
}  // namespace detail

static_assert(detail::all_unique(kAll, std::size(kAll)),
              "duplicate rule id in check::rule_ids::kAll");

constexpr bool is_registered(std::string_view id) {
  for (std::string_view n : kAll) {
    if (n == id) return true;
  }
  return false;
}

}  // namespace casa::check::rule_ids
