// Parallel evaluation engine for independent simulation points.
//
// Design-space sweeps evaluate many (config, workload, allocation) points
// that share nothing but read-only inputs, so they parallelize trivially.
// ParallelRunner::map fans `count` indexed tasks out across a ThreadPool
// and returns results **in index order** regardless of completion order,
// so a sweep's output is byte-identical on 1 thread and on N.
//
// When a Tracer is attached (obs::Tracer::set_current), every task runs
// inside a "task" trace span, and pooled tasks are flow-linked back to the
// span that called map() — the submitting thread emits a flow tail per
// task, the worker emits the head — so worker timelines connect to their
// parent flow instead of starting at their own roots.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/thread_pool.hpp"

namespace casa::sim {

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  unsigned threads = 0;
};

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

class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerOptions opt = {});

  unsigned threads() const { return threads_; }

  /// Evaluates fn(index) for index in [0, count) and returns the results in
  /// index order. R must be default-constructible and movable. Every task
  /// runs even when others throw; the lowest-indexed task exception is then
  /// rethrown, so one poisoned point fails the whole fan-out
  /// deterministically.
  template <typename R, typename F>
  std::vector<R> map(std::size_t count, F&& fn) const {
    std::vector<R> results(count);
    obs::Tracer* const tracer = obs::Tracer::current();
    if (threads_ == 1 || count <= 1) {
      std::exception_ptr first_error;
      for (std::size_t i = 0; i < count; ++i) {
        const obs::TraceSpan task(tracer, obs::trace_names::kTask,
                                  obs::trace_names::kCatSim);
        try {
          results[i] = fn(i);
        } catch (...) {
          if (first_error == nullptr) first_error = std::current_exception();
        }
      }
      if (first_error != nullptr) std::rethrow_exception(first_error);
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
    // The pool numbers a batch's submissions from 0, so the failure wait()
    // rethrows is the lowest task index's, whatever the schedule.
    for (std::size_t i = 0; i < count; ++i) {
      pool_->submit([&results, &fn, &flows, tracer, i] {
        const obs::TraceSpan task(tracer, obs::trace_names::kTask,
                                  obs::trace_names::kCatSim,
                                  flows.empty() ? 0 : flows[i]);
        results[i] = fn(i);
      });
    }
    pool_->wait();
    return results;
  }

 private:
  unsigned threads_ = 1;
  std::unique_ptr<support::ThreadPool> pool_;  ///< null when threads_ == 1
};

}  // namespace casa::sim
