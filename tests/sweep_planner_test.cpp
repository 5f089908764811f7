// Batch engine equivalence suite.
//
// Workbench::evaluate_batch's contract is "every job as if evaluated
// alone": Outcomes, per-job telemetry, and thread invariance must all
// survive the fan-out and deduplication. The reference never goes through
// evaluate_batch: each job's Outcome and counters come from evaluate on a
// Workbench that records into a private registry. The suite holds both
// over a mixed sweep (LRU geometries at several ways, FIFO/round-robin
// configs, CASA/Steinke points, a loop-cache job, duplicates) and over
// CASA jobs sharing a trace program across several LRU geometries, at 1
// and 3 threads; it also pins the runner.* and sweep.* batch metrics,
// batch job deduplication and the batch's trace events.
// The SweepPlanner suite is named for the sweep planner that
// evaluate_batch implements.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::sim {
namespace {

using report::Outcome;
using report::Workbench;
using Job = Workbench::Job;

cachesim::CacheConfig cache_cfg(
    Bytes size, unsigned assoc,
    cachesim::ReplacementPolicy policy = cachesim::ReplacementPolicy::kLru) {
  cachesim::CacheConfig cfg;
  cfg.size = size;
  cfg.line_size = 16;
  cfg.associativity = assoc;
  cfg.policy = policy;
  return cfg;
}

/// The sweep the engine must reproduce: LRU cache-only geometries at one
/// line size, duplicates, non-LRU configs, CASA and Steinke points, and a
/// loop-cache job.
std::vector<Job> mixed_jobs() {
  std::vector<Job> jobs;
  for (const Bytes size : {128u, 256u, 512u, 1024u}) {
    jobs.push_back(Job::cache_only_job(cache_cfg(size, 1)));
  }
  jobs.push_back(Job::cache_only_job(cache_cfg(256, 2)));
  jobs.push_back(Job::cache_only_job(cache_cfg(1024, 4)));
  jobs.push_back(jobs[0]);  // duplicates share one Outcome
  jobs.push_back(jobs[2]);
  jobs.push_back(Job::cache_only_job(
      cache_cfg(128, 1, cachesim::ReplacementPolicy::kFifo)));
  jobs.push_back(Job::cache_only_job(
      cache_cfg(512, 2, cachesim::ReplacementPolicy::kFifo)));
  jobs.push_back(Job::cache_only_job(
      cache_cfg(256, 1, cachesim::ReplacementPolicy::kRoundRobin)));
  jobs.push_back(Job::casa_job(cache_cfg(256, 1), 256));
  jobs.push_back(Job::casa_job(cache_cfg(512, 2), 256));
  jobs.push_back(Job::steinke_job(cache_cfg(256, 1), 256));
  jobs.push_back(Job::loopcache_job(cache_cfg(256, 1), 128));
  return jobs;
}

/// CASA jobs sharing one trace program across geometries: one line and SPM
/// size over four LRU geometries (one repeated with other solver options),
/// plus a FIFO job and a lone geometry at another SPM size. Each builds its
/// own conflict graph, as evaluate does.
std::vector<Job> casa_family_jobs() {
  std::vector<Job> jobs;
  jobs.push_back(Job::casa_job(cache_cfg(256, 1), 256));
  jobs.push_back(Job::casa_job(cache_cfg(512, 2), 256));
  jobs.push_back(Job::casa_job(cache_cfg(1024, 4), 256));
  jobs.push_back(Job::casa_job(cache_cfg(512, 1), 256));
  core::CasaOptions greedy;
  greedy.engine = core::CasaEngine::kGreedy;
  jobs.push_back(Job::casa_job(cache_cfg(512, 2), 256, greedy));
  jobs.push_back(Job::casa_job(
      cache_cfg(512, 2, cachesim::ReplacementPolicy::kFifo), 256));
  jobs.push_back(Job::casa_job(cache_cfg(512, 2), 512));
  jobs.push_back(Job::cache_only_job(cache_cfg(512, 2)));
  return jobs;
}

void expect_outcome_eq(const Outcome& a, const Outcome& b, std::size_t i) {
  const memsim::SimCounters& x = a.sim.counters;
  const memsim::SimCounters& y = b.sim.counters;
  EXPECT_EQ(x.total_fetches, y.total_fetches) << "job " << i;
  EXPECT_EQ(x.spm_accesses, y.spm_accesses) << "job " << i;
  EXPECT_EQ(x.lc_accesses, y.lc_accesses) << "job " << i;
  EXPECT_EQ(x.cache_accesses, y.cache_accesses) << "job " << i;
  EXPECT_EQ(x.cache_hits, y.cache_hits) << "job " << i;
  EXPECT_EQ(x.cache_misses, y.cache_misses) << "job " << i;
  EXPECT_EQ(x.cache_evictions, y.cache_evictions) << "job " << i;
  EXPECT_EQ(x.mainmem_words, y.mainmem_words) << "job " << i;
  EXPECT_EQ(x.cycles, y.cycles) << "job " << i;
  // Energies derive from counters through the same arithmetic on both
  // paths, so equality here is exact, not approximate.
  EXPECT_EQ(a.sim.total_energy, b.sim.total_energy) << "job " << i;
  EXPECT_EQ(a.sim.spm_energy, b.sim.spm_energy) << "job " << i;
  EXPECT_EQ(a.sim.cache_energy, b.sim.cache_energy) << "job " << i;
  EXPECT_EQ(a.sim.lc_energy, b.sim.lc_energy) << "job " << i;
  EXPECT_EQ(a.object_count, b.object_count) << "job " << i;
  ASSERT_EQ(a.flow(), b.flow()) << "job " << i;
  EXPECT_EQ(a.spm_used, b.spm_used) << "job " << i;
  if (a.flow() == report::FlowKind::kCasa) {
    EXPECT_EQ(a.alloc().on_spm, b.alloc().on_spm) << "job " << i;
    EXPECT_EQ(a.alloc().used_bytes, b.alloc().used_bytes) << "job " << i;
  }
  // The contract is full bit equality, flow-gated fields included.
  EXPECT_EQ(a, b) << "job " << i;
}

/// The deterministic per-replay counter keys run_lines / run_words record,
/// and the CASA flow's conflict-graph keys.
const char* const kReplayKeys[] = {
    "sim.fetches",        "sim.spm_accesses",     "sim.lc_accesses",
    "cache.accesses",     "cache.hits",           "cache.misses",
    "cache.evictions",    "sim.mainmem_words",    "sim.cycles",
    "stream.compiled_runs", "stream.replayed_runs", "stream.replayed_words",
};
const char* const kGraphKeys[] = {"conflict.nodes", "conflict.edges"};

/// A job's values of those keys. Zeros are dropped: a shard is filled by
/// registry merges, which skip zero counters, while the oracle records
/// into its registry directly.
std::map<std::string, std::uint64_t> job_counters(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> out;
  const auto pick = [&](const char* key) {
    const auto it = snap.counters.find(key);
    if (it != snap.counters.end() && it->second != 0) out[key] = it->second;
  };
  for (const char* key : kReplayKeys) pick(key);
  for (const char* key : kGraphKeys) pick(key);
  return out;
}

/// The per-job reference, computed without evaluate_batch: each job's
/// Outcome from evaluate, and the counters evaluate records on a Workbench
/// whose registry is private to the job. A batch evaluates a repeated job
/// once and records nothing for the repeats, so their expected counters
/// are empty.
struct Oracle {
  std::vector<Outcome> outcomes;
  std::vector<std::map<std::string, std::uint64_t>> counters;
};

Oracle oracle_of(const Workbench& bench, const std::vector<Job>& jobs) {
  Oracle o;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    o.outcomes.push_back(bench.evaluate(jobs[i]).value());
    obs::MetricsRegistry reg;
    const auto earlier = jobs.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(jobs.begin(), earlier, jobs[i]) == earlier) {
      report::WorkbenchOptions wopt = bench.options();
      wopt.metrics = &reg;
      const Workbench recording(bench.program(), wopt);
      recording.evaluate(jobs[i]).value();
    }
    o.counters.push_back(job_counters(reg.snapshot()));
  }
  return o;
}

struct BatchRun {
  std::vector<report::JobResult> results;
  std::vector<obs::MetricsSnapshot> shards;
};

BatchRun run_batch(const Workbench& bench, const std::vector<Job>& jobs,
                   unsigned threads) {
  MetricsShards shards(jobs.size());
  report::BatchOptions bopt;
  bopt.threads = threads;
  BatchRun run;
  run.results = bench.evaluate_batch(jobs, bopt, &shards);
  run.shards = shards.snapshots();
  return run;
}

TEST(SweepPlanner, MatchesRunManyOnAMixedSweep) {
  const prog::Program program = workloads::by_name("adpcm");
  const Workbench bench(program);
  const std::vector<Job> jobs = mixed_jobs();
  const Oracle oracle = oracle_of(bench, jobs);
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const BatchRun run = run_batch(bench, jobs, threads);
    ASSERT_EQ(run.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(run.results[i].ok()) << "job " << i;
      expect_outcome_eq(run.results[i].outcome, oracle.outcomes[i], i);
    }
  }
}

TEST(SweepPlanner, ShardCountersMatchRunMany) {
  const prog::Program program = workloads::by_name("adpcm");
  const Workbench bench(program);
  const std::vector<Job> jobs = mixed_jobs();
  const Oracle oracle = oracle_of(bench, jobs);
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const BatchRun run = run_batch(bench, jobs, threads);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(job_counters(run.shards[i]), oracle.counters[i])
          << "job " << i;
    }
  }
}

TEST(SweepPlanner, RecordsSweepMetrics) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench bench(program, wopt);
  const std::vector<Job> jobs = mixed_jobs();

  report::BatchOptions serial;
  serial.threads = 1;
  bench.evaluate_batch(jobs, serial);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("runner.jobs"), jobs.size());
  // mixed_jobs repeats two cache-only points.
  EXPECT_EQ(snap.counters.at("sweep.dedup_hits"), 2u);
  EXPECT_EQ(snap.gauges.at("runner.threads"), 1.0);
  // Every unique job replays on its own model; nothing shares a pass.
  EXPECT_EQ(snap.counters.count("sweep.stack_hits"), 0u);
  EXPECT_EQ(snap.counters.count("sweep.fallback_configs"), 0u);
}

TEST(SweepPlanner, ThreadCountInvariant) {
  const prog::Program program = workloads::by_name("adpcm");
  const std::vector<Job> jobs = mixed_jobs();
  const auto run_at = [&](unsigned threads, obs::MetricsRegistry& reg) {
    report::WorkbenchOptions wopt;
    wopt.metrics = &reg;
    const Workbench bench(program, wopt);
    report::BatchOptions bopt;
    bopt.threads = threads;
    return bench.evaluate_batch(jobs, bopt);
  };
  obs::MetricsRegistry reg1;
  const std::vector<report::JobResult> r1 = run_at(1, reg1);
  obs::MetricsRegistry reg3;
  const std::vector<report::JobResult> r3 = run_at(3, reg3);

  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_outcome_eq(r1[i].outcome, r3[i].outcome, i);
  }
  // Counters (not spans/gauges — those carry wall time and thread count)
  // must merge to identical values for any worker count.
  EXPECT_EQ(reg1.snapshot().counters, reg3.snapshot().counters);
}

TEST(SweepPlanner, CasaFamilyMatchesEvaluateBatch) {
  const prog::Program program = workloads::by_name("mpeg");
  const Workbench bench(program);
  const std::vector<Job> jobs = casa_family_jobs();
  const Oracle oracle = oracle_of(bench, jobs);
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const BatchRun run = run_batch(bench, jobs, threads);
    ASSERT_EQ(run.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(run.results[i].ok()) << "job " << i;
      expect_outcome_eq(run.results[i].outcome, oracle.outcomes[i], i);
      EXPECT_EQ(job_counters(run.shards[i]), oracle.counters[i])
          << "job " << i;
      const bool casa = jobs[i].kind == Job::Kind::kCasa;
      for (const char* key : kGraphKeys) {
        EXPECT_EQ(run.shards[i].counters.count(key), casa ? 1u : 0u) << key;
      }
    }
  }
}

TEST(RunMany, DeduplicatesIdenticalJobs) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench bench(program, wopt);

  const Job point = Job::cache_only_job(cache_cfg(256, 1));
  const std::vector<Job> jobs = {point, Job::cache_only_job(cache_cfg(512, 1)),
                                 point, point};
  report::BatchOptions serial_opt;
  serial_opt.threads = 1;
  std::vector<Outcome> results;
  for (report::JobResult& r : bench.evaluate_batch(jobs, serial_opt)) {
    results.push_back(std::move(r.outcome));
  }
  ASSERT_EQ(results.size(), 4u);
  expect_outcome_eq(results[2], results[0], 2);
  expect_outcome_eq(results[3], results[0], 3);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("runner.jobs"), 4u);
  EXPECT_EQ(snap.counters.at("sweep.dedup_hits"), 2u);
  // Only the two unique flows recorded: the merged fetch count equals two
  // solo runs, not four.
  const Outcome solo_a = bench.evaluate(Job::cache_only_job(cache_cfg(256, 1))).value();
  const Outcome solo_b = bench.evaluate(Job::cache_only_job(cache_cfg(512, 1))).value();
  EXPECT_EQ(snap.counters.at("sim.fetches"),
            solo_a.sim.counters.total_fetches +
                solo_b.sim.counters.total_fetches);
}

TEST(SweepPlanner, EmitsTraceEventsWhenTracerAttached) {
  const prog::Program program = workloads::by_name("adpcm");
  const Workbench bench(program);
  const std::vector<Job> jobs = mixed_jobs();

  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  report::BatchOptions bopt;
  bopt.threads = 2;
  bench.evaluate_batch(jobs, bopt);
  obs::Tracer::set_current(nullptr);

  const obs::TraceData data = tracer.drain();
  std::uint64_t sweeps = 0, tasks = 0, task_tails = 0, tails = 0, heads = 0;
  for (const obs::TraceEvent& e : data.events) {
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "sweep") ++sweeps;
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "task") ++tasks;
    if (e.kind == obs::TraceEventKind::kFlowBegin) {
      ++tails;
      if (e.name == "task") ++task_tails;
    }
    if (e.kind == obs::TraceEventKind::kFlowEnd) ++heads;
  }
  EXPECT_EQ(sweeps, 1u);
  // One task per unique job: mixed_jobs has two duplicates.
  EXPECT_EQ(tasks, jobs.size() - 2);
  EXPECT_EQ(task_tails, tasks);  // every task is flow-linked to the batch
  EXPECT_EQ(tails, heads);       // every scheduled flow got picked up
}

}  // namespace
}  // namespace casa::sim
