// Workbench: the paper's experimental workflow (fig. 3) as one object.
//
// Construction runs the program once (profiling + dynamic walk). Each
// evaluated Job then executes the full flow for one configuration:
//   trace formation -> layout -> [conflict graph] -> allocation ->
//   hierarchy simulation -> energy report.
// Benches, examples and integration tests all drive experiments through
// this type so the methodology is identical everywhere. The whole surface
// is two calls: evaluate(job) for one configuration, evaluate_batch(jobs)
// for a fault-contained fan-out. evaluate_batch is also the sweep engine:
// it deduplicates the batch and runs each distinct job's whole flow as one
// task, with Outcomes bit-identical to evaluating every job alone
// (docs/sweep.md).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "casa/baseline/steinke.hpp"
#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/loopcache/ross_allocator.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/prog/program.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"

namespace casa::check {
class CheckRunner;
struct BatchSummary;
}  // namespace casa::check


namespace casa::sim {
class MetricsShards;
}  // namespace casa::sim

namespace casa::report {

struct WorkbenchOptions {
  std::uint64_t exec_seed = 42;
  double fuse_ratio = 0.5;
  /// Steinke moves objects (paper-faithful). Setting this to false gives
  /// Steinke CASA's copy semantics — the move-vs-copy ablation.
  bool steinke_moves = true;
  /// Telemetry sink. When set, every evaluated job records per-stage spans
  /// (trace_formation / layout / conflict_graph / allocation / simulation)
  /// and pipeline counters here; evaluate_batch records per job into a
  /// private shard and folds the shards in job order, so merged counters
  /// are thread-count invariant. Null (the default) disables all recording
  /// — the instrumented paths cost nothing beyond a pointer test.
  obs::MetricsRegistry* metrics = nullptr;
  /// Run the casa::check artifact analyzer between pipeline stages in every
  /// flow: trace padding and layout legality after layout, conflict-graph
  /// invariants after the build, ILP well-formedness plus capacity/energy
  /// sanity around allocation. Any error-severity diagnostic throws
  /// check::CheckError (fatal); diagnostics and evaluated rules are counted
  /// into `metrics` under "check.*" when that is set. On by default — the
  /// rules are linear scans over artifacts the stages just produced.
  bool check_artifacts = true;
};

/// Which pipeline flow produced an Outcome. Doubles as Workbench::Job::Kind
/// (the job selects the flow, the outcome records which one ran).
enum class FlowKind {
  kCasa,       ///< conflict-graph ILP allocation, copy semantics
  kSteinke,    ///< Steinke DATE'02 knapsack, move semantics
  kLoopCache,  ///< Gordon-Ross/Vahid preloaded loop cache
  kCacheOnly,  ///< reference: I-cache only
};

std::string_view to_string(FlowKind kind);

/// Thrown by Outcome's flow-gated accessors on wrong-flow access: reading
/// alloc() off a Steinke outcome is a caller bug, not a missing value, so
/// it fails loudly with both sides of the mismatch instead of handing back
/// a default-constructed field. Structured so drivers can report the
/// accessor and the flow separately.
class FlowError : public Error {
 public:
  FlowError(std::string_view accessor, FlowKind flow);

  /// Accessor that was misused, e.g. "alloc".
  const std::string& accessor() const { return accessor_; }
  /// Flow the outcome actually came from.
  FlowKind flow() const { return flow_; }

 private:
  std::string accessor_;
  FlowKind flow_;
};

/// One scratchpad (or loop-cache) experiment outcome, tagged with the flow
/// that produced it. Fields meaningful in every flow (the simulation
/// report, object count, bytes placed) are plain members; flow-specific
/// results sit behind accessors that throw FlowError when read off the
/// wrong flow — the flow tag replaces the old "engaged only for some
/// flows" optionals with an explicit contract.
class Outcome {
 public:
  memsim::SimReport sim;
  std::size_t object_count = 0;
  Bytes spm_used = 0;  ///< scratchpad or loop-cache bytes actually placed

  Outcome() = default;
  explicit Outcome(FlowKind flow) : flow_(flow) {}

  FlowKind flow() const { return flow_; }

  /// Conflict-graph edge count — CASA flow only (the only flow that builds
  /// the graph). A value of 0 means the graph was built and genuinely has
  /// no edges.
  std::size_t conflict_edges() const;
  /// Regions preloaded into the loop cache — loop-cache flow only.
  unsigned lc_regions() const;
  /// Full allocation result — CASA flow only.
  const core::AllocationResult& alloc() const;

  /// Flow-gated setters (same FlowError contract as the accessors); used
  /// by the pipeline stages and by io::read_result_json when rebuilding an
  /// Outcome from a casa-result artifact.
  void set_conflict_edges(std::size_t edges);
  void set_lc_regions(unsigned regions);
  void set_alloc(core::AllocationResult alloc);

  /// Field-wise equality — exact, including every double (flows are
  /// deterministic; the svc cache's bit-identical-hit contract and the
  /// casa-result round-trip tests both rest on this).
  friend bool operator==(const Outcome&, const Outcome&) = default;

 private:
  FlowKind flow_ = FlowKind::kCacheOnly;
  std::size_t conflict_edges_ = 0;
  unsigned lc_regions_ = 0;
  core::AllocationResult alloc_;
};

/// How one job of a contained batch ended up.
enum class JobStatus {
  kOk,         ///< succeeded on the first attempt
  kRetriedOk,  ///< succeeded after transient-failure retries
  kFailed,     ///< final attempt still failed; `error` holds the exception
};

std::string_view to_string(JobStatus status);

/// Structured per-job outcome of Workbench::evaluate / evaluate_batch.
/// Healthy jobs carry their Outcome; failed jobs carry the original
/// exception plus a stable classification so batch drivers can report
/// per-point failures as data instead of crashing.
struct JobResult {
  JobStatus status = JobStatus::kOk;
  Outcome outcome;           ///< valid only when ok()
  std::string error_kind;    ///< "transient", "fault", "check",
                             ///< "precondition", "solve", "casa", "std"
  std::string message;       ///< the exception's what() (failed jobs)
  unsigned attempts = 1;     ///< attempts that ran (1 = no retry)
  std::exception_ptr error;  ///< original exception (failed jobs only)

  bool ok() const { return status != JobStatus::kFailed; }

  /// The Outcome, or — for failed jobs — the original exception rethrown.
  /// `evaluate(job).value()` is the throwing spelling of evaluate.
  const Outcome& value() const {
    if (!ok()) std::rethrow_exception(error);
    return outcome;
  }
};

/// Batch execution policy for the fault-contained entry points.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  unsigned threads = 0;
  /// Rethrow the lowest-indexed failed job's original exception after the
  /// whole batch finishes. False keeps every failure contained in its
  /// JobResult.
  bool fail_fast = true;
  /// Per-job retry budget for transient-classed failures (fault::
  /// TransientError); non-transient errors never retry.
  unsigned max_retries = 0;
  /// Base backoff before the first retry, doubled per further retry —
  /// deterministic, no jitter (see fault::backoff_sleep).
  std::uint64_t retry_backoff_us = 200;
};

class Workbench {
 public:
  Workbench(const prog::Program& program, WorkbenchOptions opt = {});

  const prog::Program& program() const { return *program_; }
  const trace::ExecutionResult& execution() const { return exec_; }

  /// One point of a batched sweep: which flow to run and its parameters.
  /// Every entry point checks a job's fields once, before any stage runs:
  /// a power-of-two cache of at most 1 MiB with lines from one word to the
  /// cache size; for the scratchpad and loop-cache flows a word-multiple
  /// `size` from 8 B to 1 MiB; for the loop-cache flow 1 to 64 regions. A
  /// failure is a PreconditionError naming the key as the serve protocol
  /// spells it (the cache's "size", "line_size" and "associativity", the
  /// job's "size" and "max_regions").
  struct Job {
    using Kind = FlowKind;
    Kind kind = Kind::kCasa;
    cachesim::CacheConfig cache;
    Bytes size = 0;  ///< scratchpad (CASA/Steinke) or loop-cache capacity
    unsigned max_regions = 4;  ///< loop-cache flow only
    core::CasaOptions casa;    ///< CASA flow only

    static Job casa_job(const cachesim::CacheConfig& c, Bytes spm,
                        const core::CasaOptions& o = {}) {
      return Job{Kind::kCasa, c, spm, 4, o};
    }
    static Job steinke_job(const cachesim::CacheConfig& c, Bytes spm) {
      return Job{Kind::kSteinke, c, spm, 4, {}};
    }
    static Job loopcache_job(const cachesim::CacheConfig& c, Bytes lc,
                             unsigned regions = 4) {
      return Job{Kind::kLoopCache, c, lc, regions, {}};
    }
    static Job cache_only_job(const cachesim::CacheConfig& c) {
      return Job{Kind::kCacheOnly, c, 0, 4, {}};
    }

    /// Field-wise equality — two equal jobs provably produce the same
    /// Outcome (every flow is deterministic given its parameters), which is
    /// what lets evaluate_batch deduplicate repeated sweep points.
    friend bool operator==(const Job&, const Job&) = default;
  };

  /// A job carried through every pipeline stage except the final hierarchy
  /// replay: trace formation, layout, energy table, conflict graph +
  /// allocation (flow permitting) — with the same artifact checks and
  /// per-stage spans evaluate records. `partial` holds every Outcome field
  /// but `.sim`. It serves callers that need a job's artifacts themselves,
  /// such as a benchmark that replays them through a reference simulator
  /// or times the allocation's ILP on its own.
  struct PreparedJob {
    Job job;
    std::shared_ptr<const traceopt::TraceProgram> tp;
    std::shared_ptr<const traceopt::Layout> layout;
    energy::EnergyTable energies;
    /// Scratchpad mask over tp's objects. Loop-cache flows leave it empty
    /// and carry `regions` instead.
    std::vector<bool> on_spm;
    std::shared_ptr<const loopcache::RegionSet> regions;
    Outcome partial;
  };

  /// Runs every stage of `job`'s flow except the hierarchy replay,
  /// recording the flow's spans and stage counters into `reg` (null = no
  /// telemetry), exactly as evaluate(job) runs them.
  PreparedJob prepare_job(const Job& job, obs::MetricsRegistry* reg) const;

  const WorkbenchOptions& options() const { return opt_; }

  /// Evaluates one job through its full flow, fault-contained: the result
  /// always comes back as a JobResult (never throws), with failures
  /// classified and the original exception preserved. Telemetry records
  /// into options().metrics when that is set, under one flow span.
  JobResult evaluate(const Job& job) const;

  /// Fault-contained batch evaluation, and the sweep engine
  /// (docs/sweep.md). Every healthy job completes no matter how many others
  /// fail; failed jobs come back as structured JobResults (in job order,
  /// thread-count invariant), and transient failures retry per
  /// `opt.max_retries` with deterministic backoff. Work fans out across
  /// opt.threads workers (0 = hardware concurrency, 1 = serial).
  ///
  /// Every Outcome is bit-identical to evaluate(job). Identical jobs run
  /// once (duplicates record nothing of their own); every distinct job
  /// runs its whole flow as one task, as evaluate does, on the tag model
  /// cachesim::with_line_model picks for its cache.
  ///
  /// Jobs record into a fresh per-attempt registry that merges into their
  /// shard only on success, so merged counters reflect completed jobs only;
  /// per-shard merging in job order keeps them identical for any thread
  /// count. The merged view plus the runner.* and sweep.* batch counters
  /// fold into options().metrics when that is set. With opt.fail_fast (the
  /// default) the lowest-indexed failure is rethrown after the batch
  /// drains, otherwise a run.partial_failure check diagnostic reports
  /// degraded batches through options().metrics. When `shards` is
  /// non-null, job i records into shards->shard(i) (shards->size() must
  /// equal jobs.size()) and the caller keeps the per-task breakdown.
  std::vector<JobResult> evaluate_batch(
      std::span<const Job> jobs, const BatchOptions& opt = {},
      sim::MetricsShards* shards = nullptr) const;

 private:
  /// The trace program `job`'s flow forms: with a 1 KiB budget in the
  /// cache-only flow, with the scratchpad / loop-cache capacity in every
  /// other flow, never below one cache line.
  traceopt::TraceProgram form(const Job& job) const;
  /// The whole flow of `job`: the prepare stages, then the hierarchy
  /// replay, under one flow span.
  Outcome run(const Job& job, obs::MetricsRegistry* reg) const;
  PreparedJob prepare_core(const Job& job, obs::MetricsRegistry* reg,
                           check::CheckRunner* chk) const;

  const prog::Program* program_;
  WorkbenchOptions opt_;
  trace::ExecutionResult exec_;
};

/// Reduces a batch's JobResults to the counts the run.partial_failure
/// check rule consumes (callers include casa/check/rules.hpp for the
/// complete BatchSummary type).
check::BatchSummary batch_summary_of(const std::vector<JobResult>& results);

/// Builds a kFailed JobResult from `error`: stable kind classification,
/// what() message, attempt count. Shared by evaluate, evaluate_batch and
/// svc::EvalService so failures classify identically everywhere.
JobResult failed_job_result(std::exception_ptr error, unsigned attempts);

}  // namespace casa::report
