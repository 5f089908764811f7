// Central registry of every metric name the pipeline records.
//
// Instrumented code refers to these constants, never to ad-hoc string
// literals: a typo in a dotted name silently creates a *new* counter and
// drops the real one from every artifact, which is exactly the drift this
// registry exists to kill. casa_lint enforces the contract both ways —
// any dotted-name literal in src/ outside the registry headers is a
// `names.unregistered` diagnostic, and any entry below that is missing
// from the docs/metrics.md catalogue is a `names.undocumented` one
// (tools/lint_check.sh gates both in ctest and CI).
//
// Adding a metric: add the constant, add it to kAll, document it in
// docs/metrics.md. The static_assert keeps kAll duplicate-free.
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

namespace casa::obs::metric_names {

// ---- simulation counters (memsim, one record per simulated run) ----
inline constexpr std::string_view kSimFetches = "sim.fetches";
inline constexpr std::string_view kSimSpmAccesses = "sim.spm_accesses";
inline constexpr std::string_view kSimLcAccesses = "sim.lc_accesses";
inline constexpr std::string_view kSimMainmemWords = "sim.mainmem_words";
inline constexpr std::string_view kSimCycles = "sim.cycles";
inline constexpr std::string_view kCacheAccesses = "cache.accesses";
inline constexpr std::string_view kCacheHits = "cache.hits";
inline constexpr std::string_view kCacheMisses = "cache.misses";
inline constexpr std::string_view kCacheEvictions = "cache.evictions";

// ---- compiled fetch stream (line-grained simulation path) ----
inline constexpr std::string_view kStreamCompiledRuns = "stream.compiled_runs";
inline constexpr std::string_view kStreamReplayedRuns = "stream.replayed_runs";
inline constexpr std::string_view kStreamReplayedWords =
    "stream.replayed_words";
inline constexpr std::string_view kStreamSkippedBlocks =
    "stream.skipped_blocks";

// ---- conflict graph (run_casa flow) ----
inline constexpr std::string_view kConflictNodes = "conflict.nodes";
inline constexpr std::string_view kConflictEdges = "conflict.edges";

// ---- allocation / solvers ----
inline constexpr std::string_view kSolverNodes = "solver.nodes";
inline constexpr std::string_view kSolverIncumbentUpdates =
    "solver.incumbent_updates";
inline constexpr std::string_view kSolverBoundPrunes = "solver.bound_prunes";
inline constexpr std::string_view kSolverInfeasiblePrunes =
    "solver.infeasible_prunes";
inline constexpr std::string_view kSolverSimplexIterations =
    "solver.simplex_iterations";
inline constexpr std::string_view kSolverPresolvedItems =
    "solver.presolved_items";
inline constexpr std::string_view kSolverPresolvedEdges =
    "solver.presolved_edges";
inline constexpr std::string_view kSolverMaxDepth = "solver.max_depth";
inline constexpr std::string_view kSolverSeconds = "solver.seconds";
inline constexpr std::string_view kAllocSpmUsedBytes = "alloc.spm_used_bytes";
inline constexpr std::string_view kLcRegions = "lc.regions";

// ---- exact-solver search telemetry (ilp::BranchAndBound) ----
inline constexpr std::string_view kIlpPresolveFixed = "ilp.presolve.fixed";
inline constexpr std::string_view kIlpWarmstartUsed = "ilp.warmstart.used";
inline constexpr std::string_view kIlpWarmstartRcFixed =
    "ilp.warmstart.rc_fixed";
inline constexpr std::string_view kIlpWarmstartRootGap =
    "ilp.warmstart.root_gap";
inline constexpr std::string_view kIlpLpLimitRetries = "ilp.lp_limit_retries";
inline constexpr std::string_view kIlpSubtrees = "ilp.subtrees";

// ---- batch runner / sweep ----
inline constexpr std::string_view kRunnerJobs = "runner.jobs";
inline constexpr std::string_view kRunnerThreads = "runner.threads";
inline constexpr std::string_view kRunnerJobsFailed = "runner.jobs_failed";
inline constexpr std::string_view kRunnerJobsRetried = "runner.jobs_retried";
inline constexpr std::string_view kSweepDedupHits = "sweep.dedup_hits";
/// Unrecorded since the stack pass went; perfbench reads it (ROADMAP item 8).
inline constexpr std::string_view kSweepStackHits = "sweep.stack_hits";
/// Unrecorded since the stack pass went; perfbench reads it (ROADMAP item 8).
inline constexpr std::string_view kSweepFallbackConfigs =
    "sweep.fallback_configs";

// ---- artifact analyzer (casa::check) ----
inline constexpr std::string_view kCheckDiagnostics = "check.diagnostics";
inline constexpr std::string_view kCheckErrors = "check.errors";
inline constexpr std::string_view kCheckWarnings = "check.warnings";
inline constexpr std::string_view kCheckRulesEvaluated =
    "check.rules_evaluated";

// ---- fault injection / containment (casa::fault consumers) ----
inline constexpr std::string_view kFaultInjected = "fault.injected";
inline constexpr std::string_view kFaultArmedSites = "fault.armed_sites";
inline constexpr std::string_view kIoArtifactRetries = "io.artifact_retries";

// ---- evaluation service (svc::EvalService / casa_serve) ----
inline constexpr std::string_view kSvcRequests = "svc.requests";
inline constexpr std::string_view kSvcHits = "svc.hits";
inline constexpr std::string_view kSvcMisses = "svc.misses";
inline constexpr std::string_view kSvcInflightJoins = "svc.inflight_joins";
inline constexpr std::string_view kSvcEvictions = "svc.evictions";
inline constexpr std::string_view kSvcBytes = "svc.bytes";
inline constexpr std::string_view kSvcQueueDepth = "svc.queue_depth";
inline constexpr std::string_view kSvcRejections = "svc.rejections";
inline constexpr std::string_view kSvcPersistLoads = "svc.persist_loads";
inline constexpr std::string_view kSvcPersistErrors = "svc.persist_errors";
inline constexpr std::string_view kSvcVerifiedHits = "svc.verified_hits";

/// Every registered metric name, docs-sync-checked against
/// docs/metrics.md by casa_lint.
inline constexpr std::string_view kAll[] = {
    kSimFetches,
    kSimSpmAccesses,
    kSimLcAccesses,
    kSimMainmemWords,
    kSimCycles,
    kCacheAccesses,
    kCacheHits,
    kCacheMisses,
    kCacheEvictions,
    kStreamCompiledRuns,
    kStreamReplayedRuns,
    kStreamReplayedWords,
    kStreamSkippedBlocks,
    kConflictNodes,
    kConflictEdges,
    kSolverNodes,
    kSolverIncumbentUpdates,
    kSolverBoundPrunes,
    kSolverInfeasiblePrunes,
    kSolverSimplexIterations,
    kSolverPresolvedItems,
    kSolverPresolvedEdges,
    kSolverMaxDepth,
    kSolverSeconds,
    kAllocSpmUsedBytes,
    kLcRegions,
    kIlpPresolveFixed,
    kIlpWarmstartUsed,
    kIlpWarmstartRcFixed,
    kIlpWarmstartRootGap,
    kIlpLpLimitRetries,
    kIlpSubtrees,
    kRunnerJobs,
    kRunnerThreads,
    kRunnerJobsFailed,
    kRunnerJobsRetried,
    kSweepDedupHits,
    kSweepStackHits,
    kSweepFallbackConfigs,
    kCheckDiagnostics,
    kCheckErrors,
    kCheckWarnings,
    kCheckRulesEvaluated,
    kFaultInjected,
    kFaultArmedSites,
    kIoArtifactRetries,
    kSvcRequests,
    kSvcHits,
    kSvcMisses,
    kSvcInflightJoins,
    kSvcEvictions,
    kSvcBytes,
    kSvcQueueDepth,
    kSvcRejections,
    kSvcPersistLoads,
    kSvcPersistErrors,
    kSvcVerifiedHits,
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
              "duplicate metric name in obs::metric_names::kAll");

constexpr bool is_registered(std::string_view name) {
  for (std::string_view n : kAll) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace casa::obs::metric_names
