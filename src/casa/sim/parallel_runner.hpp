// Parallel evaluation engine for independent simulation points.
//
// Design-space sweeps evaluate many (config, workload, allocation) points
// that share nothing but read-only inputs, so they parallelize trivially.
// ParallelRunner::map fans `count` indexed tasks out across a ThreadPool
// and returns results **in index order** regardless of completion order,
// so a sweep's output is byte-identical on 1 thread and on N.
//
// Stochastic tasks must not share an RNG stream across threads (the
// interleaving would be schedule-dependent). Each task instead receives a
// private seed derived from (base seed, index) via task_seed() — a
// SplitMix64 mix, so consecutive indices get well-separated streams.
//
// When a Tracer is attached (obs::Tracer::set_current), every task runs
// inside a "task" trace span, and pooled tasks are flow-linked back to the
// span that called map() — the submitting thread emits a flow tail per
// task, the worker emits the head — so worker timelines connect to their
// parent flow instead of starting at their own roots.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/thread_pool.hpp"

namespace casa::sim {

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  unsigned threads = 0;
  /// Base seed mixed into every task's private seed.
  std::uint64_t seed = 1;
};

/// Deterministic per-task seed: SplitMix64 of base ^ index. Never 0.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t index);

/// One metrics registry per parallel task.
///
/// Tasks record into their own shard with no cross-thread contention; after
/// the fan-out completes, merged() folds the shards together **in index
/// order**, so the merged counters are identical for any thread count (the
/// same invariance ParallelRunner::map gives results). Span timings merge
/// too — their sums depend on wall time, not on the merge, so only the
/// counter part of the merged view is schedule-invariant.
class MetricsShards {
 public:
  explicit MetricsShards(std::size_t count) : shards_(count) {}

  std::size_t size() const { return shards_.size(); }
  obs::MetricsRegistry& shard(std::size_t i) { return shards_[i]; }

  /// Per-shard snapshots, in index order (the artifact "tasks" array).
  std::vector<obs::MetricsSnapshot> snapshots() const;

  /// All shards folded together in index order.
  obs::MetricsSnapshot merged() const;

 private:
  // deque: MetricsRegistry is not movable, and shard addresses must stay
  // stable while worker threads hold them.
  std::deque<obs::MetricsRegistry> shards_;
};

/// One contained task failure from map_collect: the task's map index and
/// the exception it raised.
struct TaskFailure {
  std::size_t index = 0;
  std::exception_ptr error;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerOptions opt = {});

  unsigned threads() const { return threads_; }

  /// Evaluates fn(index, seed) for index in [0, count) and returns the
  /// results in index order. R must be default-constructible and movable.
  /// Task exceptions are contained per index: every failure lands in
  /// `failures` sorted by index (the slot keeps its default-constructed R),
  /// every healthy task still completes, and nothing is rethrown.
  template <typename R, typename F>
  std::vector<R> map_collect(std::size_t count, F&& fn,
                             std::vector<TaskFailure>& failures) const {
    std::vector<R> results(count);
    obs::Tracer* const tracer = obs::Tracer::current();
    if (threads_ == 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) {
        const obs::TraceSpan task(tracer, obs::trace_names::kTask,
                                  obs::trace_names::kCatSim);
        try {
          results[i] = fn(i, task_seed(opt_.seed, i));
        } catch (...) {
          failures.push_back(TaskFailure{i, std::current_exception()});
        }
      }
      return results;
    }
    // Flow tails are emitted on this thread, inside whatever span encloses
    // the map() call; each worker's "task" span carries the matching head.
    std::vector<std::uint64_t> flows;
    if (tracer != nullptr) {
      flows.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        flows.push_back(tracer->flow_begin(obs::trace_names::kTask,
                                           obs::trace_names::kCatSim));
      }
    }
    // The pool numbers a batch's submissions from 0, so each captured
    // failure's submission index is its task index, in index order
    // whatever the schedule.
    for (std::size_t i = 0; i < count; ++i) {
      pool_->submit([&results, &fn, &flows, tracer, this, i] {
        const obs::TraceSpan task(tracer, obs::trace_names::kTask,
                                  obs::trace_names::kCatSim,
                                  flows.empty() ? 0 : flows[i]);
        results[i] = fn(i, task_seed(opt_.seed, i));
      });
    }
    for (const support::TaskError& e : pool_->wait_collect()) {
      failures.push_back(TaskFailure{e.task_index, e.error});
    }
    return results;
  }

  /// map_collect with batch-level rethrow: the lowest-indexed task
  /// exception (if any) is rethrown after all tasks finish, so one poisoned
  /// point still fails the whole fan-out deterministically.
  template <typename R, typename F>
  std::vector<R> map(std::size_t count, F&& fn) const {
    std::vector<TaskFailure> failures;
    std::vector<R> results =
        map_collect<R>(count, static_cast<F&&>(fn), failures);
    if (!failures.empty()) std::rethrow_exception(failures.front().error);
    return results;
  }

 private:
  RunnerOptions opt_;
  unsigned threads_ = 1;
  std::unique_ptr<support::ThreadPool> pool_;  ///< null when threads_ == 1
};

}  // namespace casa::sim
