// Central registry of every fault-injection site in the pipeline.
//
// A site is a named failure point (fault::at / fault::corrupt_payload call)
// at a simulation, solver, or artifact-I/O boundary. Specs reference sites
// by these dotted names, so a typo would silently arm nothing; exactly like
// the metric/trace/rule registries, instrumented code uses these constants
// and casa_lint enforces the contract both ways — ad-hoc dotted literals
// are `names.unregistered`, and entries missing from the docs/faults.md
// catalogue are `names.undocumented`.
//
// Adding a site: add the constant, add it to kAll, place the fault::at call,
// document it in docs/faults.md, and cover it in the fault-matrix test.
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

namespace casa::fault::site_names {

// ---- simulation pipeline (Workbench batch jobs) ----
/// Start of prepare_job: trace formation / layout / allocation stages.
inline constexpr std::string_view kSimPrepare = "fault.sim.prepare";
/// Start of finish_job / finish_with_counters: the hierarchy replay.
inline constexpr std::string_view kSimFinish = "fault.sim.finish";

// ---- solvers ----
/// Immediately before core::Allocator::allocate in the CASA flow.
inline constexpr std::string_view kSolverAllocate = "fault.solver.allocate";

// ---- one-pass sweep engine ----
/// Start of a shared evaluate_batch stack pass (arg = representative job).
inline constexpr std::string_view kSweepStackPass = "fault.sweep.stack_pass";

// ---- artifact I/O (guarded writes; see obs::write_artifact_guarded) ----
inline constexpr std::string_view kIoMetricsWrite = "fault.io.metrics_write";
inline constexpr std::string_view kIoTraceWrite = "fault.io.trace_write";
inline constexpr std::string_view kIoCheckWrite = "fault.io.check_write";

// ---- evaluation service (svc::EvalService) ----
/// Request admission, before the cache lookup. A fired fault fails that
/// one request (contained in its response); the service loop survives.
inline constexpr std::string_view kSvcAdmit = "fault.svc.admit";
/// Persisted-artifact load on a cache miss. A fired fault (or a corrupted
/// artifact) degrades the miss to a recompute, never a crash.
inline constexpr std::string_view kSvcCacheLoad = "fault.svc.cache_load";

/// Every registered site, docs-sync-checked against docs/faults.md by
/// casa_lint and iterated by the fault-matrix test.
inline constexpr std::string_view kAll[] = {
    kSimPrepare,   kSimFinish,    kSolverAllocate, kSweepStackPass,
    kIoMetricsWrite, kIoTraceWrite, kIoCheckWrite,  kSvcAdmit,
    kSvcCacheLoad,
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
              "duplicate site name in fault::site_names::kAll");

constexpr bool is_registered(std::string_view name) {
  for (std::string_view n : kAll) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace casa::fault::site_names
