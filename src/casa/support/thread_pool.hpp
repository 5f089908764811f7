// Minimal fixed-size worker pool.
//
// The simulation layer's unit of work is coarse (one full hierarchy
// simulation or allocation per task), so a plain mutex-guarded queue is
// entirely sufficient — no work stealing, no lock-free cleverness. Tasks
// are arbitrary void() callables; completion is observed with wait().
//
// Every task exception is captured with the task's submission index —
// nothing is dropped when several tasks fail concurrently. wait() rethrows
// the error of the lowest-indexed failed task (deterministic for any
// schedule) so callers never lose a CASA_CHECK failure to a worker thread;
// wait_collect() instead returns the full error list for callers that
// contain failures per task (batch runners).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace casa::support {

/// Who the current thread is, for observability track labels. Pool workers
/// carry their pool name and a stable 0-based index ("sim-0", "sim-1", ...);
/// threads that never set an ident report index -1 and an empty name (the
/// consumer picks its own fallback label).
struct ThreadIdent {
  int worker_index = -1;
  std::string name;
};

/// The calling thread's ident (set once by ThreadPool workers at startup).
const ThreadIdent& this_thread_ident();

/// Overrides the calling thread's ident. Exposed so tests and non-pool
/// threads (a main driver, say) can label their own tracks.
void set_this_thread_ident(int worker_index, std::string name);

/// One captured task failure: which submit() the task came from (0-based,
/// counted since the last wait/wait_collect) and the exception it threw.
struct TaskError {
  std::size_t task_index = 0;
  std::exception_ptr error;
};

class ThreadPool {
 public:
  /// Spawns resolve(threads) workers; 0 means hardware_concurrency (at
  /// least 1). Workers ident themselves as "<name>-<index>" (see
  /// ThreadIdent).
  explicit ThreadPool(unsigned threads = 0, std::string name = "worker");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task and returns its index in the current batch (0-based,
  /// reset by wait/wait_collect). Must not be called concurrently with
  /// wait().
  std::size_t submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// exception of the lowest-indexed failed task (if any); later errors
  /// are discarded with it. The pool is reusable afterwards.
  void wait();

  /// Blocks until every submitted task has finished and returns *all*
  /// captured task errors, sorted by task index (empty when every task
  /// succeeded). Nothing is rethrown; the pool is reusable afterwards.
  std::vector<TaskError> wait_collect();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Largest explicit thread count resolve() accepts. Every pool size
  /// passes through resolve — ilp_threads from a serve request, a
  /// casa-result artifact or casa_cli --ilp-threads, casa_serve --threads,
  /// BatchOptions::threads — so a hostile count fails there, before any
  /// thread starts.
  static constexpr unsigned kMaxThreads = 1024;

  /// Resolves a thread-count request: 0 -> hardware concurrency, floor 1.
  /// Throws PreconditionError for a count above kMaxThreads.
  static unsigned resolve(unsigned threads);

 private:
  void worker_loop(unsigned index);

  /// Waits for the batch to drain and moves the captured errors out,
  /// sorted by task index. Resets the batch index counter.
  std::vector<TaskError> drain_errors();

  struct IndexedTask {
    std::size_t index = 0;
    std::function<void()> task;
  };

  std::string name_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::queue<IndexedTask> queue_;
  std::size_t in_flight_ = 0;    ///< queued + currently executing
  std::size_t next_index_ = 0;   ///< per-batch submit counter
  std::vector<TaskError> errors_;  ///< every failure of the current batch
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace casa::support
