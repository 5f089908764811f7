// Structured run artifacts: JSON (machines, jq) and CSV (spreadsheets).
//
// One artifact = one run. The JSON layout ("casa-metrics v1", documented
// key-by-key in docs/metrics.md) is:
//
//   {
//     "schema": "casa-metrics v1",
//     "run":    { "tool", "git", "build_type", "cxx_flags", "compiler" },
//     "config": { "workload": "mpeg", ... },
//     "phases": { "run_casa/allocation": {"count","seconds","min","max"} },
//     "counters": { "cache.hits": 123, ... },
//     "gauges":   { "runner.threads": 4.0, ... },
//     "distributions": { "job.seconds": {"count","sum","min","max"} },
//     "tasks": [ { per-task phases/counters... } ]   // only when provided
//   }
//
// Doubles are written with round-trip precision so that
// io::read_metrics_json(write) reproduces the snapshot bit-for-bit. Maps
// iterate in sorted order, so artifacts are byte-stable across runs with
// equal contents.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "casa/fault/fault.hpp"
#include "casa/obs/metrics.hpp"

namespace casa::obs {

struct ArtifactOptions {
  /// Name of the producing binary, written to run.tool.
  std::string tool = "casa";
  /// Optional per-task snapshots (e.g. one per evaluate_batch job); exported as
  /// the "tasks" array in index order.
  const std::vector<MetricsSnapshot>* tasks = nullptr;
};

/// Writes the full "casa-metrics v1" artifact.
void write_artifact_json(std::ostream& os, const MetricsSnapshot& snap,
                         const ArtifactOptions& opt = {});

/// Writes one flat `kind,name,value` row per metric (distribution and span
/// summaries expand to .count/.sum/.min/.max rows). Leads with the same
/// run.* provenance block the JSON artifact carries (run.tool from `opt`,
/// the rest from build_info()), so CSV artifacts are self-describing too.
void write_artifact_csv(std::ostream& os, const MetricsSnapshot& snap,
                        const ArtifactOptions& opt = {});

/// JSON string escaping (shared with io::serialize's reader tests).
std::string json_escape(std::string_view s);

/// Shortest decimal representation that parses back to the same double
/// (shared by the metrics and trace writers).
std::string format_double(double v);

/// Where `casa_cli` should write the metrics artifact, resolved from the
/// `--metrics-json` value and the `--metrics-stdout` flag. `-` is an alias
/// for stdout; each distinct sink is written exactly once, and `note` (when
/// non-empty) is a diagnostic the caller should surface on stderr.
struct ArtifactSinkPlan {
  bool to_stdout = false;
  std::string file;  ///< empty = no file sink
  std::string note;  ///< redundant/overlapping flag combination, or empty

  friend bool operator==(const ArtifactSinkPlan&,
                         const ArtifactSinkPlan&) = default;
};

ArtifactSinkPlan plan_artifact_sinks(const std::string& json_arg,
                                     bool stdout_flag);

/// Fault-contained artifact commit: renders via `render` into a buffer,
/// passes the fault site `site` (throw / transient / delay actions fire
/// here), verifies the rendered payload against in-flight corruption (a
/// checksum mismatch after fault::corrupt_payload classifies as
/// TransientError), and only then writes the verified payload to `sink`.
/// Transient failures re-render and retry under `policy` with
/// deterministic backoff, emitting a "runner.retry" trace instant per
/// retry. Returns the number of attempts that ran (1 = clean first try);
/// with injection disarmed the guard is one relaxed load plus the render.
unsigned write_artifact_guarded(std::ostream& sink, std::string_view site,
                                const std::function<void(std::ostream&)>& render,
                                const fault::RetryPolicy& policy = {});

}  // namespace casa::obs
