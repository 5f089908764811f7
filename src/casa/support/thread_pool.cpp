#include "casa/support/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

namespace casa::support {

namespace {

ThreadIdent& ident_slot() {
  thread_local ThreadIdent ident;
  return ident;
}

/// The worker index FailWorkerStartForTesting makes fail on this thread.
constexpr unsigned kNoFailure = ~0u;
thread_local unsigned fail_worker_start = kNoFailure;

}  // namespace

ThreadStartError::ThreadStartError(unsigned worker_index, unsigned requested,
                                   const std::string& cause)
    : Error("thread pool: starting worker " + std::to_string(worker_index) +
            " of " + std::to_string(requested) + " failed (" + cause + ")"),
      worker_index_(worker_index),
      requested_(requested) {}

FailWorkerStartForTesting::FailWorkerStartForTesting(unsigned index) {
  fail_worker_start = index;
}

FailWorkerStartForTesting::~FailWorkerStartForTesting() {
  fail_worker_start = kNoFailure;
}

const ThreadIdent& this_thread_ident() { return ident_slot(); }

void set_this_thread_ident(int worker_index, std::string name) {
  ident_slot() = ThreadIdent{worker_index, std::move(name)};
}

unsigned ThreadPool::resolve(unsigned threads) {
  if (threads > kMaxThreads) {
    throw PreconditionError("thread count " + std::to_string(threads) +
                            " is above the limit of " +
                            std::to_string(kMaxThreads));
  }
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads, std::string name,
                       std::function<void()> on_start)
    : name_(std::move(name)), on_start_(std::move(on_start)) {
  const unsigned n = resolve(threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    try {
      if (i == fail_worker_start) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again));
      }
      workers_.emplace_back([this, i] { worker_loop(i); });
    } catch (const std::exception& e) {
      // A joinable std::thread destroyed by the unwinding would terminate
      // the process: stop and join the started workers first.
      stop_and_join();
      throw ThreadStartError(i, n, e.what());
    }
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::submit(std::function<void()> task) {
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = next_index_++;
    queue_.push(IndexedTask{index, std::move(task)});
    ++in_flight_;
  }
  work_ready_.notify_one();
  return index;
}

std::vector<TaskError> ThreadPool::drain_errors() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  std::vector<TaskError> errors = std::move(errors_);
  errors_.clear();
  next_index_ = 0;
  lock.unlock();
  // Sorting by submission index makes the report (and wait()'s rethrow
  // choice) independent of which worker lost the race to fail first.
  std::sort(errors.begin(), errors.end(),
            [](const TaskError& a, const TaskError& b) {
              return a.task_index < b.task_index;
            });
  return errors;
}

void ThreadPool::wait() {
  std::vector<TaskError> errors = drain_errors();
  if (!errors.empty()) std::rethrow_exception(errors.front().error);
}

std::vector<TaskError> ThreadPool::wait_collect() { return drain_errors(); }

void ThreadPool::worker_loop(unsigned index) {
  set_this_thread_ident(static_cast<int>(index),
                        name_ + "-" + std::to_string(index));
  if (on_start_) on_start_();
  for (;;) {
    IndexedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task.task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_.push_back(TaskError{task.index, std::current_exception()});
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace casa::support
