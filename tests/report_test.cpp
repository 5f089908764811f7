// Workbench behaviour knobs (beyond what integration_test covers).
#include <gtest/gtest.h>

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
