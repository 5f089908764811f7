// Workbench behaviour knobs (beyond what integration_test covers).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "casa/report/workbench.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::report {
namespace {

TEST(Workbench, FuseRatioChangesObjectGranularity) {
  const prog::Program program = workloads::make_adpcm();
  WorkbenchOptions fine;
  fine.fuse_ratio = 1.5;  // never fuse
  WorkbenchOptions coarse;
  coarse.fuse_ratio = 0.0;  // fuse every fallthrough
  const Workbench wb_fine(program, fine);
  const Workbench wb_coarse(program, coarse);
  const auto cache = workloads::paper_cache_for("adpcm");
  const Outcome f = wb_fine.evaluate(Workbench::Job::casa_job(cache, 128)).value();
  const Outcome c = wb_coarse.evaluate(Workbench::Job::casa_job(cache, 128)).value();
  EXPECT_GT(f.object_count, c.object_count);
}

TEST(Workbench, ExecutionExposedAndStable) {
  const prog::Program program = workloads::make_adpcm();
  const Workbench wb(program);
  EXPECT_GT(wb.execution().total_fetches, 0u);
  EXPECT_EQ(wb.execution().walk.seq.size(), wb.execution().total_blocks);
  EXPECT_EQ(&wb.program(), &program);
}

TEST(Workbench, CacheOnlyHasNoSpmTraffic) {
  const prog::Program program = workloads::make_adpcm();
  const Workbench wb(program);
  const Outcome o = wb.evaluate(Workbench::Job::cache_only_job(workloads::paper_cache_for("adpcm"))).value();
  EXPECT_EQ(o.sim.counters.spm_accesses, 0u);
  EXPECT_EQ(o.sim.counters.lc_accesses, 0u);
}

TEST(Workbench, LoopCacheOutcomeReportsRegions) {
  const prog::Program program = workloads::make_g721();
  const Workbench wb(program);
  const Outcome o =
      wb.evaluate(Workbench::Job::loopcache_job(workloads::paper_cache_for("g721"), 512, 4)).value();
  EXPECT_GE(o.lc_regions(), 1u);
  EXPECT_LE(o.lc_regions(), 4u);
  EXPECT_GT(o.sim.counters.lc_accesses, 0u);
}

TEST(Workbench, CasaOutcomeInternallyConsistent) {
  const prog::Program program = workloads::make_adpcm();
  const Workbench wb(program);
  const auto cache = workloads::paper_cache_for("adpcm");
  const Outcome o = wb.evaluate(Workbench::Job::casa_job(cache, 128)).value();
  // Objects marked on-SPM together account for the used bytes.
  Bytes used = 0;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < o.alloc().on_spm.size(); ++i) {
    if (o.alloc().on_spm[i]) ++placed;
  }
  EXPECT_GT(placed, 0u);
  EXPECT_EQ(o.alloc().on_spm.size(), o.object_count);
  used = o.alloc().used_bytes;
  EXPECT_LE(used, 128u);
  // Energy identity against counters.
  EXPECT_GT(o.sim.counters.spm_accesses, 0u);
}

TEST(Workbench, SteinkeCopySemanticsOptionKeepsLayout) {
  // With steinke_moves=false the residual program is NOT compacted, so the
  // cache-path miss pattern of untouched objects matches CASA's layout.
  const prog::Program program = workloads::make_adpcm();
  WorkbenchOptions copy_opt;
  copy_opt.steinke_moves = false;
  const Workbench wb(program, copy_opt);
  const auto cache = workloads::paper_cache_for("adpcm");
  const Outcome s = wb.evaluate(Workbench::Job::steinke_job(cache, 128)).value();
  EXPECT_EQ(s.sim.counters.total_fetches, wb.execution().total_fetches);
}

TEST(Workbench, SeedChangesProfileButNotStructure) {
  const prog::Program program = workloads::make_adpcm();
  WorkbenchOptions a, b;
  a.exec_seed = 1;
  b.exec_seed = 2;
  const Workbench wa(program, a);
  const Workbench wbb(program, b);
  EXPECT_NE(wa.execution().total_fetches, wbb.execution().total_fetches);
  const auto cache = workloads::paper_cache_for("adpcm");
  EXPECT_EQ(wa.evaluate(Workbench::Job::casa_job(cache, 128)).value().object_count,
            wa.evaluate(Workbench::Job::casa_job(cache, 128)).value().object_count);
}

TEST(Workbench, SmallSpmStillWorks) {
  // Scratchpad of a single cache line: nearly nothing fits, but the
  // pipeline must not degenerate.
  const prog::Program program = workloads::make_adpcm();
  const Workbench wb(program);
  const auto cache = workloads::paper_cache_for("adpcm");
  const Outcome o = wb.evaluate(Workbench::Job::casa_job(cache, 16)).value();
  EXPECT_LE(o.alloc().used_bytes, 16u);
  EXPECT_EQ(o.sim.counters.total_fetches, wb.execution().total_fetches);
}

TEST(Workbench, InvalidJobFieldsFailOnceNamingTheKey) {
  // Every entry point checks a job before any stage: each of these used to
  // fail deep inside a stage (an energy-model check, a degenerate ILP row,
  // the cache model) or was served with unbounded tables.
  const prog::Program program = workloads::make_adpcm();
  const Workbench wb(program);
  using Job = Workbench::Job;
  const cachesim::CacheConfig good = workloads::paper_cache_for("adpcm");
  const auto cache = [&](Bytes size, Bytes line, unsigned ways) {
    cachesim::CacheConfig c = good;
    c.size = size;
    c.line_size = line;
    c.associativity = ways;
    return c;
  };
  struct Case {
    Job job;
    const char* names;  ///< the key the message must name
  };
  const std::vector<Case> cases = {
      {Job::casa_job(good, 130), "'size' = 130"},
      {Job::casa_job(good, 0), "'size' = 0"},
      {Job::steinke_job(good, 4), "'size' = 4"},
      {Job::casa_job(good, Bytes{1} << 40), "'size' = 1099511627776"},
      {Job::loopcache_job(good, 0, 4), "'size' = 0"},
      {Job::loopcache_job(good, 256, 0), "'max_regions' = 0"},
      {Job::loopcache_job(good, 256, 4'000'000), "'max_regions' = 4000000"},
      {Job::cache_only_job(cache(96, 16, 1)), "cache 'size' = 96"},
      {Job::cache_only_job(cache(Bytes{1} << 30, 16, 1)),
       "cache 'size' = 1073741824"},
      {Job::casa_job(cache(1024, 2, 1), 256), "cache 'line_size' = 2"},
      {Job::casa_job(cache(1024, 48, 1), 256), "cache 'line_size' = 48"},
      {Job::casa_job(cache(1024, 2048, 1), 256), "cache 'line_size' = 2048"},
      {Job::casa_job(cache(1024, 16, 3), 256), "cache 'associativity' = 3"},
      {Job::casa_job(cache(1024, 16, 128), 256),
       "cache 'associativity' = 128"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.names);
    const JobResult r = wb.evaluate(c.job);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error_kind, "precondition");
    EXPECT_NE(r.message.find(c.names), std::string::npos) << r.message;
    EXPECT_THROW((void)wb.prepare_job(c.job, nullptr), PreconditionError);
  }
  // The batch engine refuses them per job and serves the rest.
  const std::vector<Job> batch = {cases[0].job, Job::casa_job(good, 256),
                                  cases[7].job};
  const std::vector<JobResult> results = wb.evaluate_batch(
      batch, BatchOptions{.threads = 1, .fail_fast = false});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].error_kind, "precondition");

  // The edges of each range are served: an 8 B scratchpad, 1 MiB caches
  // and scratchpads, a cache of one line, 64 regions; cache-only ignores
  // its size, and only the loop-cache flow reads max_regions. (A 1 MiB
  // scratchpad pays only beside a cache as large.)
  Job odd_size = Job::cache_only_job(good);
  odd_size.size = 130;
  Job steinke_regions = Job::steinke_job(good, 256);
  steinke_regions.max_regions = 0;
  for (const Job& ok :
       {Job::casa_job(good, 8),
        Job::steinke_job(cache(1024 * 1024, 16, 1), 1024 * 1024),
        Job::cache_only_job(cache(1024 * 1024, 16, 1)),
        Job::cache_only_job(cache(16, 16, 1)),
        Job::loopcache_job(good, 256, 64), odd_size, steinke_regions}) {
    const JobResult r = wb.evaluate(ok);
    EXPECT_TRUE(r.ok()) << r.message;
  }
}

TEST(Outcome, WrongFlowAccessThrowsStructuredFlowError) {
  const Outcome steinke(FlowKind::kSteinke);
  try {
    (void)steinke.alloc();
    FAIL() << "alloc() on a Steinke outcome must throw";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.accessor(), "alloc");
    EXPECT_EQ(e.flow(), FlowKind::kSteinke);
    EXPECT_NE(std::string(e.what()).find("steinke"), std::string::npos);
  }
  EXPECT_THROW((void)steinke.conflict_edges(), FlowError);
  EXPECT_THROW((void)steinke.lc_regions(), FlowError);

  const Outcome casa(FlowKind::kCasa);
  EXPECT_THROW((void)casa.lc_regions(), FlowError);
  EXPECT_NO_THROW((void)casa.conflict_edges());
}

}  // namespace
}  // namespace casa::report
