// One-pass design-space sweeps over the Workbench.
//
// A sweep hands run_many one job per cache configuration, and each job
// replays the whole fetch stream against its own cachesim::Cache — N
// configurations, N replays of the same stream. SweepPlanner removes that
// redundancy without changing a single counter:
//
//  1. deduplicate identical jobs (repeated sweep points share one Outcome);
//  2. build the conflict graphs of each CASA geometry family — LRU CASA
//     jobs with one line size and trace budget, hence one trace program
//     and layout — from ONE stack replay (conflict::build_conflict_graphs),
//     one task per family with two or more distinct geometries;
//  3. run every unique job's pipeline stages up to — but not including —
//     the hierarchy replay, in parallel (Workbench::prepare_job: trace
//     formation, layout, conflict graph + ILP where the flow has one),
//     handing each family member its precomputed graph;
//  4. group the prepared jobs by what the cache actually sees: line size,
//     replacement policy, trace-formation budget, layout mode, and the
//     scratchpad mask. Jobs in one group provably feed the cache the same
//     line-run sequence — only the cache geometry differs;
//  5. for LRU groups with two or more members, replay that sequence ONCE
//     through cachesim::StackSimulator and read exact per-configuration
//     counters off the stack-distance histograms; every other job (non-LRU
//     policies, loop-cache flows, singleton groups) finishes through the
//     ordinary per-config simulation (Workbench::finish_job);
//  6. finish each job from its counters (Workbench::finish_with_counters),
//     which derives energies through the same arithmetic a direct replay
//     uses — Outcomes and per-job sim.* / cache.* / stream.* telemetry come
//     out bit-identical to run_many's.
//
// When artifact checking is on (WorkbenchOptions::check_artifacts), each
// stack group cross-validates its first member against a direct simulation
// through check::check_stack_sweep, and each graph family its first
// member's graph against build_conflict_graph through
// check::check_graph_sweep, so an engine regression fails the sweep
// instead of skewing every configuration in the group.
//
// run_jobs is the fault-contained entry point (mirrors
// Workbench::run_jobs): per-job failures are captured as JobResults,
// transients retry with deterministic backoff, and — in containment mode —
// a failing stack pass degrades its group to per-configuration direct
// simulation, and a failing family graph build its members to per-job
// builds (both counted in sweep.degraded_groups), instead of poisoning the
// member jobs. run() is run_jobs with fail_fast semantics.
//
// docs/sweep.md covers the algorithm, the LRU-only exactness argument, the
// fallback rules, and the sweep.* metrics; docs/faults.md covers the
// containment and degradation model.
#pragma once

#include <vector>

#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"

namespace casa::sim {

class SweepPlanner {
 public:
  using Job = report::Workbench::Job;

  /// The workbench must outlive the planner.
  explicit SweepPlanner(const report::Workbench& bench) : bench_(&bench) {}

  /// Drop-in replacement for Workbench::run_many: evaluates every job,
  /// fanning out across `threads` workers (0 = hardware concurrency), and
  /// returns Outcomes in job order, identical for any thread count and
  /// bit-identical to run_many. With `shards` (size == jobs.size()), job i
  /// records into shards->shard(i) exactly as run_many's jobs do;
  /// duplicates record nothing. The merged view folds into
  /// options().metrics when that is set, plus the sweep.* planning metrics:
  ///   sweep.groups           stream-sharing groups formed
  ///   sweep.stack_passes     groups replayed once through the stack engine
  ///   sweep.stack_hits       jobs whose counters came from a stack pass
  ///   sweep.graph_passes     CASA families whose graphs came from one pass
  ///   sweep.graph_hits       CASA jobs that took a family-built graph
  ///   sweep.fallback_configs jobs finished by direct per-config simulation
  ///   sweep.dedup_hits       duplicate jobs that shared an Outcome
  ///   sweep.configs_per_pass distribution of stack-group sizes
  std::vector<report::Outcome> run(const std::vector<Job>& jobs,
                                   unsigned threads = 0,
                                   MetricsShards* shards = nullptr) const;

  /// Fault-contained sweep: like run(), but failures stay per-job. Every
  /// healthy job completes and its JobResult carries the Outcome; a failed
  /// job carries its classified error instead. Transient failures retry up
  /// to opt.max_retries times with deterministic backoff. When the shared
  /// stack pass of a group fails in containment mode (opt.fail_fast ==
  /// false), the group degrades to per-configuration direct simulation —
  /// the surviving members' Outcomes stay bit-identical to a healthy
  /// sweep's — and the sweep.degraded_groups counter records it. With
  /// opt.fail_fast the lowest-indexed failure rethrows after the batch
  /// drains (run()'s historical contract; a stack/direct divergence fails
  /// the whole sweep). Shards merge per job only on that job's success.
  std::vector<report::JobResult> run_jobs(const std::vector<Job>& jobs,
                                          const report::BatchOptions& opt = {},
                                          MetricsShards* shards = nullptr) const;

 private:
  const report::Workbench* bench_;
};

}  // namespace casa::sim
