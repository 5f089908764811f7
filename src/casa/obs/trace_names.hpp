// Central registry of every span / trace-event name the pipeline emits.
//
// Span names double as metric phase-path components ("run_casa/allocation")
// and as trace track slices, so a misspelled name fractures both views of
// the same run. Instrumented code uses these constants; casa_lint flags
// ad-hoc dotted-name literals (`names.unregistered`) and registry entries
// missing from the docs/tracing.md / docs/metrics.md catalogues
// (`names.undocumented`).
//
// Adding an event: add the constant, add it to kAll, document it in
// docs/tracing.md (dotted event names) or the docs/metrics.md phases table
// (flow/stage span names).
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

#include "casa/obs/metric_names.hpp"

namespace casa::obs::trace_names {

// ---- flow spans (one per Workbench entry point) ----
inline constexpr std::string_view kProfiling = "profiling";
inline constexpr std::string_view kRunCasa = "run_casa";
inline constexpr std::string_view kRunSteinke = "run_steinke";
inline constexpr std::string_view kRunLoopcache = "run_loopcache";
inline constexpr std::string_view kRunCacheOnly = "run_cache_only";

// ---- stage spans (nested inside a flow span) ----
inline constexpr std::string_view kTraceFormation = "trace_formation";
inline constexpr std::string_view kLayout = "layout";
inline constexpr std::string_view kConflictGraph = "conflict_graph";
inline constexpr std::string_view kAllocation = "allocation";
inline constexpr std::string_view kSimulation = "simulation";

// ---- batch / sweep spans ----
inline constexpr std::string_view kTask = "task";
inline constexpr std::string_view kSweep = "sweep";
/// Unrecorded since the stack pass went; perfbench reads it (ROADMAP item 8).
inline constexpr std::string_view kSweepStackPass = "sweep.stack_pass";

// ---- exact-solver spans, instants, counter tracks ----
inline constexpr std::string_view kIlpSubtree = "ilp.subtree";
inline constexpr std::string_view kIlpIncumbent = "ilp.incumbent";
inline constexpr std::string_view kIlpPresolve = "ilp.presolve";
inline constexpr std::string_view kIlpWarmStart = "ilp.warm_start";
inline constexpr std::string_view kIlpRcFixed = "ilp.rc_fixed";
inline constexpr std::string_view kIlpNodes = "ilp.nodes";
inline constexpr std::string_view kIlpPrunes = "ilp.prunes";
/// Counter: the specialized engine's tuned root Lagrangian bound (saving).
inline constexpr std::string_view kIlpLagrangianBound = "ilp.lagrangian_bound";

// ---- fault injection / containment instants ----
/// Emitted by the injection hook on every fired fault (value 1).
inline constexpr std::string_view kFaultInjected = metric_names::kFaultInjected;
/// Emitted before each transient retry re-runs (value = 1-based attempt).
inline constexpr std::string_view kRunnerRetry = "runner.retry";

// ---- evaluation service (svc::EvalService) ----
/// Span around one admitted request; tail of the request→compute flow.
inline constexpr std::string_view kSvcRequest = "svc.request";
/// Span around a cache-miss computation; head of the request→compute flow.
inline constexpr std::string_view kSvcCompute = "svc.compute";

// ---- event categories ("cat" field; not docs-sync-checked) ----
inline constexpr std::string_view kCatPhase = "phase";
inline constexpr std::string_view kCatInstant = "instant";
inline constexpr std::string_view kCatFlow = "flow";
inline constexpr std::string_view kCatSim = "sim";
inline constexpr std::string_view kCatIlp = "ilp";
inline constexpr std::string_view kCatFault = "fault";

/// Every registered span/event name, docs-sync-checked against
/// docs/tracing.md + docs/metrics.md by casa_lint.
inline constexpr std::string_view kAll[] = {
    kProfiling,    kRunCasa,      kRunSteinke,
    kRunLoopcache, kRunCacheOnly, kTraceFormation,
    kLayout,       kConflictGraph, kAllocation,
    kSimulation,   kTask,
    kSweep,        kSweepStackPass, kIlpSubtree,
    kIlpIncumbent, kIlpPresolve,  kIlpWarmStart,
    kIlpRcFixed,   kIlpNodes,     kIlpPrunes,
    kIlpLagrangianBound,
    kFaultInjected, kRunnerRetry,  kSvcRequest,
    kSvcCompute,
};

static_assert(metric_names::detail::all_unique(kAll, std::size(kAll)),
              "duplicate trace name in obs::trace_names::kAll");

constexpr bool is_registered(std::string_view name) {
  for (std::string_view n : kAll) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace casa::obs::trace_names
