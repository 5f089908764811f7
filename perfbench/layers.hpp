// The traced run: one untraced and one traced pass of a workload, and the
// per-layer metrics derived from the traced pass's timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/tracer.hpp"

namespace perfbench {

/// What the traced pass reports besides its timeline and registry.
struct LayerTally {
  double generic_solve_s = 0.0;      ///< solve_seconds of kGenericIlp jobs
  double specialized_solve_s = 0.0;  ///< solve_seconds of kSpecializedBnB jobs
  std::uint64_t profiled_blocks = 0;
  /// One flag per "evaluate_batch" span, in request order: true when every
  /// job of that request was a cache hit.
  std::vector<bool> request_all_hit;
  std::uint64_t svc_hits = 0;
  std::uint64_t svc_misses = 0;
  std::uint64_t svc_evictions = 0;

  /// Adds the allocation solve time of a job computed in this pass.
  void computed(const casa::report::JobResult& res);
};

/// One pass of a workload. Tracer and registry are null on the untraced
/// pass and set on the traced one, as is the tally. Returns the pass's
/// wall time in seconds.
using TracedPass = std::function<double(
    casa::obs::Tracer*, casa::obs::MetricsRegistry*, LayerTally*)>;

/// Runs `pass` untraced and then traced, and adds every per-layer metric
/// to `r`. `workers` is the batch engine's thread count.
void trace_layers(RunResult& r, const TracedPass& pass, unsigned workers);

}  // namespace perfbench
