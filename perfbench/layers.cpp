#include "layers.hpp"

#include <cstdio>
#include <map>
#include <string>

#include "casa/obs/metric_names.hpp"
#include "casa/obs/trace_analysis.hpp"
#include "casa/obs/trace_names.hpp"

namespace perfbench {

namespace {

namespace tn = casa::obs::trace_names;
namespace mn = casa::obs::metric_names;

/// A closed span with its same-thread parent, rebuilt from begin/end pairs.
struct SpanRec {
  std::string name;
  std::string parent;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Spans in the order they close, per the trace's begin/end discipline.
std::vector<SpanRec> closed_spans(const casa::obs::TraceData& data) {
  struct Open {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::vector<SpanRec> out;
  for (const casa::obs::TraceEvent& e : data.events) {
    std::vector<Open>& stack = stacks[e.tid];
    if (e.kind == casa::obs::TraceEventKind::kBegin) {
      stack.push_back({e.name, e.ts_ns, 0});
    } else if (e.kind == casa::obs::TraceEventKind::kEnd && !stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts_ns - top.start;
      if (!stack.empty()) stack.back().child_ns += dur;
      out.push_back({top.name, stack.empty() ? "" : stack.back().name, dur,
                     dur - std::min(dur, top.child_ns)});
    }
  }
  return out;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void LayerTally::computed(const casa::report::JobResult& res) {
  if (!res.ok() || res.outcome.flow() != casa::report::FlowKind::kCasa) {
    return;
  }
  const casa::core::AllocationResult& a = res.outcome.alloc();
  if (a.engine_used == casa::core::CasaEngine::kGenericIlp) {
    generic_solve_s += a.solve_seconds;
  } else if (a.engine_used == casa::core::CasaEngine::kSpecializedBnB) {
    specialized_solve_s += a.solve_seconds;
  }
}

void trace_layers(RunResult& r, const TracedPass& pass, unsigned workers) {
  const double untraced_s = pass(nullptr, nullptr, nullptr);

  casa::obs::TracerOptions topt;
  topt.buffer_capacity = std::size_t{1} << 18;
  casa::obs::Tracer tracer(topt);
  casa::obs::MetricsRegistry reg;
  LayerTally tally;
  casa::obs::Tracer::set_current(&tracer);
  const double traced_s = pass(&tracer, &reg, &tally);
  casa::obs::Tracer::set_current(nullptr);

  const casa::obs::TraceData data = tracer.drain();
  if (data.dropped > 0) {
    r.fail("trace dropped " + std::to_string(data.dropped) + " events");
  }
  const casa::obs::TraceAnalysis an = casa::obs::analyze_trace(data);
  std::map<std::string, casa::obs::PhaseStat> phase;
  for (const casa::obs::PhaseStat& p : an.phases) phase[p.name] = p;
  const auto self_ms = [&](std::string_view name) {
    const auto it = phase.find(std::string(name));
    return it == phase.end() ? 0.0 : ms(it->second.self_ns);
  };
  const auto total_ms = [&](std::string_view name) {
    const auto it = phase.find(std::string(name));
    return it == phase.end() ? 0.0 : ms(it->second.total_ns);
  };

  double baseline_ms = 0.0;
  double batch_wall_ms = 0.0;
  double hit_ms = 0.0;
  std::size_t request = 0;
  for (const SpanRec& s : closed_spans(data)) {
    if (s.name == tn::kAllocation &&
        (s.parent == tn::kRunSteinke || s.parent == tn::kRunLoopcache)) {
      baseline_ms += ms(s.self_ns);
    } else if (s.name == "run_jobs" || s.name == tn::kSvcCompute) {
      batch_wall_ms += ms(s.dur_ns);
    } else if (s.name == "evaluate_batch") {
      if (request < tally.request_all_hit.size() &&
          tally.request_all_hit[request]) {
        hit_ms += ms(s.dur_ns);
      }
      ++request;
    }
  }

  const casa::obs::MetricsSnapshot snap = reg.snapshot();
  const auto count = [&](std::string_view name) {
    const auto it = snap.counters.find(std::string(name));
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  r.add("profiling.ms", self_ms(tn::kProfiling), "ms");
  r.add("profiling.blocks", static_cast<double>(tally.profiled_blocks),
        "count");
  r.add("traceopt.ms", self_ms(tn::kTraceFormation) + self_ms(tn::kLayout),
        "ms");
  r.add("conflict_graph.ms", self_ms(tn::kConflictGraph), "ms");
  r.add("conflict.edges", count(mn::kConflictEdges), "count");
  r.add("stream.replayed_words", count(mn::kStreamReplayedWords), "count");
  r.add("allocation.ms", self_ms(tn::kAllocation) + self_ms(tn::kIlpSubtree),
        "ms");
  r.add("allocation.generic_ms", tally.generic_solve_s * 1e3, "ms");
  r.add("allocation.specialized_ms", tally.specialized_solve_s * 1e3, "ms");
  r.add("allocation.baseline_ms", baseline_ms, "ms");
  r.add("solver.nodes", count(mn::kSolverNodes), "count");
  r.add("solver.simplex_iterations", count(mn::kSolverSimplexIterations),
        "count");
  r.add("simulation.ms", self_ms(tn::kSimulation), "ms");
  r.add("sweep.stack_pass.ms", self_ms(tn::kSweepStackPass), "ms");
  r.add("sweep.stack_hits", count(mn::kSweepStackHits), "count");
  r.add("sweep.fallback_configs", count(mn::kSweepFallbackConfigs), "count");
  r.add("sweep.dedup_hits", count(mn::kSweepDedupHits), "count");
  r.add("batch.busy_frac",
        batch_wall_ms > 0.0 ? total_ms(tn::kTask) / (workers * batch_wall_ms)
                            : 0.0,
        "ratio");
  r.add("batch.critical_path_ms", ms(an.critical_path_ns), "ms");
  r.add("svc.parse_ms", self_ms("parse_request"), "ms");
  r.add("svc.hit_ms", hit_ms, "ms");
  r.add("svc.render_ms", self_ms("write_response"), "ms");
  r.add("svc.compute_ms", total_ms(tn::kSvcCompute), "ms");
  r.add("svc.hits", static_cast<double>(tally.svc_hits), "count");
  r.add("svc.misses", static_cast<double>(tally.svc_misses), "count");
  r.add("svc.evictions", static_cast<double>(tally.svc_evictions), "count");
  const std::uint64_t lookups = tally.svc_hits + tally.svc_misses;
  r.add("svc.hit_ratio",
        lookups > 0 ? static_cast<double>(tally.svc_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio");
  r.add("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");

  // Self time per span name, for the layer shares in README.md.
  char line[160];
  std::snprintf(line, sizeof line,
                "traced pass %.3f s (untraced %.3f s); critical path %.3f ms",
                traced_s, untraced_s, ms(an.critical_path_ns));
  r.notes.push_back(line);
  for (const casa::obs::PhaseStat& p : an.phases) {
    std::snprintf(line, sizeof line, "  self %-18s %10.3f ms  x%llu",
                  p.name.c_str(), ms(p.self_ns),
                  static_cast<unsigned long long>(p.count));
    r.notes.push_back(line);
  }
}

}  // namespace perfbench
