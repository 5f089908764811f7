// One-pass batch engine equivalence suite.
//
// Workbench::evaluate_batch's contract is "every job as if evaluated alone,
// but faster": Outcomes, per-job telemetry, and thread invariance must all
// survive the shared family conflict graphs and stack replays. The
// reference never goes through evaluate_batch: Outcomes come from per-job
// evaluate, per-job counters from prepare_job + finish_job into a private
// registry. The suite holds both over a mixed sweep (groupable LRU configs,
// FIFO/round-robin fallback, CASA/Steinke singletons, a loop-cache job,
// duplicates) and over CASA jobs sharing a trace program across several
// LRU geometries, at 1 and 3 threads; it also pins the sweep.* planning
// metrics, the three-member threshold for shared passes, batch job
// deduplication, and the sweep.stack.mismatch / sweep.graph.mismatch rules.
// The SweepPlanner suite is named for the one-pass sweep planner that
// evaluate_batch implements.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/check/diagnostic.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/graph_builder.hpp"
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

/// The sweep the engine must reproduce: one big groupable LRU cache-only
/// family, duplicates, non-LRU fallback configs, CASA and Steinke points,
/// and a loop-cache job (never stack-eligible).
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

/// CASA jobs whose conflict graphs come from one family pass: one line and
/// SPM size over four LRU geometries (one repeated with other solver
/// options, so a graph serves two jobs), plus a FIFO job and a lone
/// geometry at another SPM size that build their own graphs.
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
/// Outcome from evaluate, and the counters its prepare_job + finish_job
/// record into a private registry. A batch evaluates a repeated job once
/// and records nothing for the repeats, so their expected counters are
/// empty.
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
      bench.finish_job(bench.prepare_job(jobs[i], &reg), &reg);
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
  EXPECT_EQ(snap.counters.at("runner.dedup_hits"), 2u);
  // The six distinct LRU cache-only configs share one stream, so at least
  // one stack pass with >= 6 configurations must have run.
  EXPECT_GE(snap.counters.at("sweep.stack_passes"), 1u);
  EXPECT_GE(snap.counters.at("sweep.stack_hits"), 6u);
  EXPECT_GT(snap.counters.at("sweep.groups"), 0u);
  EXPECT_GT(snap.counters.at("sweep.fallback_configs"), 0u);
  const auto it = snap.distributions.find("sweep.configs_per_pass");
  ASSERT_TRUE(it != snap.distributions.end());
  EXPECT_GE(it->second.max, 6.0);
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

TEST(SweepPlanner, CountsGraphPassesThreadInvariantly) {
  const prog::Program program = workloads::by_name("mpeg");
  const std::vector<Job> jobs = casa_family_jobs();
  const auto run_at = [&](unsigned threads) {
    obs::MetricsRegistry reg;
    report::WorkbenchOptions wopt;
    wopt.metrics = &reg;
    const Workbench bench(program, wopt);
    report::BatchOptions bopt;
    bopt.threads = threads;
    bench.evaluate_batch(jobs, bopt);
    return reg.snapshot().counters;
  };
  const auto one = run_at(1);
  // One family: the four LRU geometries at 256 B, five jobs. The FIFO job
  // and the lone 512 B geometry build their own graphs.
  EXPECT_EQ(one.at("sweep.graph_passes"), 1u);
  EXPECT_EQ(one.at("sweep.graph_hits"), 5u);
  EXPECT_EQ(one.count("sweep.degraded_groups"), 0u);
  EXPECT_EQ(run_at(3), one);
}

/// A pair gains nothing from a shared pass (with the default cross-check
/// it costs more than two direct runs): a CASA family of two geometries
/// and an LRU stream of two cache-only geometries finish per job, and a
/// third geometry in each earns each its pass.
TEST(EvaluateBatch, SharedPassesNeedThreeMembers) {
  const prog::Program program = workloads::by_name("adpcm");
  const Workbench reference(program);
  std::vector<Job> jobs = {Job::casa_job(cache_cfg(256, 1), 256),
                           Job::casa_job(cache_cfg(512, 2), 256),
                           Job::cache_only_job(cache_cfg(256, 1)),
                           Job::cache_only_job(cache_cfg(1024, 4))};
  const auto counters_of = [&](const std::vector<Job>& batch) {
    obs::MetricsRegistry reg;
    report::WorkbenchOptions wopt;
    wopt.metrics = &reg;
    const Workbench bench(program, wopt);
    report::BatchOptions serial;
    serial.threads = 1;
    const std::vector<report::JobResult> results =
        bench.evaluate_batch(batch, serial);
    const Oracle oracle = oracle_of(reference, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(results[i].ok()) << "job " << i;
      expect_outcome_eq(results[i].outcome, oracle.outcomes[i], i);
    }
    return reg.snapshot().counters;
  };

  const auto pairs = counters_of(jobs);
  EXPECT_EQ(pairs.at("sweep.graph_passes"), 0u);
  EXPECT_EQ(pairs.at("sweep.stack_passes"), 0u);
  EXPECT_EQ(pairs.at("sweep.fallback_configs"), jobs.size());

  jobs.push_back(Job::casa_job(cache_cfg(1024, 4), 256));
  jobs.push_back(Job::cache_only_job(cache_cfg(512, 2)));
  const auto trios = counters_of(jobs);
  EXPECT_EQ(trios.at("sweep.graph_passes"), 1u);
  EXPECT_EQ(trios.at("sweep.graph_hits"), 3u);
  EXPECT_GE(trios.at("sweep.stack_passes"), 1u);
}

TEST(CheckGraphSweep, PassesOnEqualGraphsAndFlagsDivergence) {
  const conflict::ConflictGraph a(2, {10, 20}, {1, 2}, {8, 15},
                                  {{MemoryObjectId(0), MemoryObjectId(1), 1},
                                   {MemoryObjectId(1), MemoryObjectId(0), 3}});
  check::CheckRunner ok_runner;
  check::check_graph_sweep(a, a, cache_cfg(256, 1), ok_runner);
  EXPECT_TRUE(ok_runner.ok());
  EXPECT_EQ(ok_runner.rules_evaluated(), 1u);

  // Node 1 lost a hit to an extra conflict miss, and the edge set moved.
  const conflict::ConflictGraph b(2, {10, 20}, {1, 2}, {8, 14},
                                  {{MemoryObjectId(0), MemoryObjectId(1), 1},
                                   {MemoryObjectId(1), MemoryObjectId(0), 4}});
  check::CheckRunner runner;
  check::check_graph_sweep(b, a, cache_cfg(256, 1), runner);
  EXPECT_FALSE(runner.ok());
  EXPECT_EQ(runner.error_count(), 2u);  // node 1 and the edge list
  EXPECT_EQ(runner.diagnostics()[0].rule, "sweep.graph.mismatch");
  EXPECT_THROW(runner.throw_if_errors(), check::CheckError);
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
  EXPECT_EQ(snap.counters.at("runner.dedup_hits"), 2u);
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
  std::uint64_t sweeps = 0, passes = 0, tasks = 0, tails = 0, heads = 0,
                pass_instants = 0;
  for (const obs::TraceEvent& e : data.events) {
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "sweep") ++sweeps;
    if (e.kind == obs::TraceEventKind::kBegin &&
        e.name == "sweep.stack_pass") {
      ++passes;
    }
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "task") ++tasks;
    if (e.kind == obs::TraceEventKind::kFlowBegin) ++tails;
    if (e.kind == obs::TraceEventKind::kFlowEnd) ++heads;
    if (e.kind == obs::TraceEventKind::kInstant &&
        e.name == "sweep.configs_per_pass") {
      ++pass_instants;
    }
  }
  EXPECT_EQ(sweeps, 1u);
  EXPECT_GE(passes, 1u);      // the groupable LRU family ran as a stack pass
  EXPECT_EQ(passes, pass_instants);
  EXPECT_GT(tasks, 0u);       // fallback + singleton jobs fan out as tasks
  EXPECT_EQ(tails, heads);    // every scheduled flow got picked up
  EXPECT_GT(tails, 0u);
}

TEST(CheckStackSweep, PassesOnIdenticalCounters) {
  memsim::SimCounters c;
  c.total_fetches = 100;
  c.cache_accesses = 100;
  c.cache_hits = 90;
  c.cache_misses = 10;
  c.cycles = 500;
  check::CheckRunner runner;
  check::check_stack_sweep(c, c, cache_cfg(256, 1), runner);
  EXPECT_TRUE(runner.ok());
  EXPECT_EQ(runner.rules_evaluated(), 1u);
}

TEST(CheckStackSweep, FlagsEveryDivergentField) {
  memsim::SimCounters stack;
  stack.total_fetches = 100;
  stack.cache_hits = 90;
  memsim::SimCounters direct = stack;
  direct.cache_hits = 80;
  direct.cache_misses = 10;
  check::CheckRunner runner;
  check::check_stack_sweep(stack, direct, cache_cfg(256, 1), runner);
  EXPECT_FALSE(runner.ok());
  EXPECT_EQ(runner.error_count(), 2u);  // cache_hits and cache_misses
  EXPECT_EQ(runner.diagnostics()[0].rule, "sweep.stack.mismatch");
  EXPECT_THROW(runner.throw_if_errors(), check::CheckError);
}

}  // namespace
}  // namespace casa::sim
