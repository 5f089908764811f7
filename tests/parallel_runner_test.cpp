// ThreadPool / ParallelRunner / Workbench::evaluate_batch determinism
// tests.
//
// The contract under test: a sweep evaluated on 1 thread and on N threads
// returns identical result vectors — same order, same values — because
// results are stored by index.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/thread_pool.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

TEST(ThreadPool, RunsEverySubmittedTask) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after wait().
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 150);
}

TEST(ThreadPool, WaitRethrowsTaskException) {
  support::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed; the pool stays usable.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitCollectCapturesEveryConcurrentFailure) {
  support::ThreadPool pool(2);
  // A rendezvous pins both failing tasks in flight at once: each waits for
  // the other before throwing, so neither error can be a straggler the
  // other's rethrow would have discarded.
  std::atomic<int> at_barrier{0};
  const auto rendezvous = [&at_barrier] {
    ++at_barrier;
    while (at_barrier.load() < 2) {
    }
  };
  EXPECT_EQ(pool.submit([&] {
    rendezvous();
    throw std::runtime_error("first");
  }), 0u);
  EXPECT_EQ(pool.submit([&] {
    rendezvous();
    throw std::logic_error("second");
  }), 1u);
  EXPECT_EQ(pool.submit([] {}), 2u);

  const std::vector<support::TaskError> errors = pool.wait_collect();
  ASSERT_EQ(errors.size(), 2u);  // both failures captured, none dropped
  EXPECT_EQ(errors[0].task_index, 0u);
  EXPECT_EQ(errors[1].task_index, 1u);
  EXPECT_THROW(std::rethrow_exception(errors[0].error), std::runtime_error);
  EXPECT_THROW(std::rethrow_exception(errors[1].error), std::logic_error);

  // Nothing rethrows, the batch counter resets, and the pool stays usable.
  std::atomic<int> counter{0};
  EXPECT_EQ(pool.submit([&counter] { ++counter; }), 0u);
  EXPECT_TRUE(pool.wait_collect().empty());
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitRethrowsLowestIndexedFailure) {
  support::ThreadPool pool(4);
  std::atomic<int> at_barrier{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&at_barrier, i] {
      ++at_barrier;
      while (at_barrier.load() < 4) {
      }
      if (i != 1) throw std::runtime_error("task " + std::to_string(i));
      throw std::logic_error("task 1");
    });
  }
  // Task 0's error wins deterministically even though all four failed at
  // the same moment.
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ParallelRunner, ResultsComeBackInIndexOrder) {
  sim::RunnerOptions opt;
  opt.threads = 4;
  const sim::ParallelRunner runner(opt);
  const std::vector<std::size_t> out = runner.map<std::size_t>(
      257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, MapRunsEveryTaskThenRethrowsTheLowestFailure) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    sim::RunnerOptions opt;
    opt.threads = threads;
    const sim::ParallelRunner runner(opt);
    std::atomic<int> ran{0};
    try {
      runner.map<int>(10, [&](std::size_t i) {
        ++ran;
        if (i == 3 || i == 7) {
          throw std::runtime_error("task " + std::to_string(i));
        }
        return 0;
      });
      ADD_FAILURE() << "map swallowed the task failures";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ParallelRunner, SweepIsThreadCountInvariant) {
  // The satellite determinism test: same CASA sweep, 1 thread vs 4 threads,
  // bit-identical outcome vectors.
  const prog::Program program = workloads::make_adpcm();
  const report::Workbench bench(program);

  std::vector<report::Workbench::Job> jobs;
  for (const Bytes spm : {64u, 128u, 256u}) {
    cachesim::CacheConfig cache = workloads::paper_cache_for("adpcm");
    jobs.push_back(report::Workbench::Job::casa_job(cache, spm));
    jobs.push_back(report::Workbench::Job::steinke_job(cache, spm));
    jobs.push_back(report::Workbench::Job::loopcache_job(cache, spm, 4));
  }
  {
    cachesim::CacheConfig cache = workloads::paper_cache_for("adpcm");
    jobs.push_back(report::Workbench::Job::cache_only_job(cache));
  }

  report::BatchOptions serial_opt;
  serial_opt.threads = 1;
  report::BatchOptions wide_opt;
  wide_opt.threads = 4;
  const std::vector<report::JobResult> serial =
      bench.evaluate_batch(jobs, serial_opt);
  const std::vector<report::JobResult> parallel =
      bench.evaluate_batch(jobs, wide_opt);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << "job " << i;
    ASSERT_TRUE(parallel[i].ok()) << "job " << i;
    const report::Outcome& a = serial[i].outcome;
    const report::Outcome& b = parallel[i].outcome;
    EXPECT_EQ(a.object_count, b.object_count) << "job " << i;
    ASSERT_EQ(a.flow(), b.flow()) << "job " << i;
    EXPECT_EQ(a.spm_used, b.spm_used) << "job " << i;
    EXPECT_EQ(a.sim.counters.total_fetches, b.sim.counters.total_fetches)
        << "job " << i;
    EXPECT_EQ(a.sim.counters.spm_accesses, b.sim.counters.spm_accesses)
        << "job " << i;
    EXPECT_EQ(a.sim.counters.cache_hits, b.sim.counters.cache_hits)
        << "job " << i;
    EXPECT_EQ(a.sim.counters.cache_misses, b.sim.counters.cache_misses)
        << "job " << i;
    EXPECT_EQ(a.sim.counters.cycles, b.sim.counters.cycles) << "job " << i;
    EXPECT_EQ(a.sim.total_energy, b.sim.total_energy) << "job " << i;
    EXPECT_EQ(a.sim.spm_energy, b.sim.spm_energy) << "job " << i;
    EXPECT_EQ(a.sim.cache_energy, b.sim.cache_energy) << "job " << i;
    EXPECT_EQ(a.sim.lc_energy, b.sim.lc_energy) << "job " << i;
    // Everything above is for diagnosis; the contract is full bit equality
    // (including the flow-gated allocation fields).
    EXPECT_EQ(a, b) << "job " << i;
  }

  // And batch results match the one-at-a-time entry points.
  const report::Outcome alone = bench.evaluate(report::Workbench::Job::casa_job(
      workloads::paper_cache_for("adpcm"), 64)).value();
  EXPECT_EQ(alone, serial[0].outcome);
}

}  // namespace
