#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>

#include "casa/trace/executor.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::workloads {
namespace {

struct SizeBand {
  const char* name;
  Bytes lo;
  Bytes hi;
};

// gtest prints each parameter into the test list, and gtest_discover_tests
// copies that text into the ctest names. Without a printer it dumps the
// struct's raw bytes, pointer included, so the names changed every build.
void PrintTo(const SizeBand& band, std::ostream* os) {
  *os << band.name << " " << band.lo << "-" << band.hi << " B";
}

// Paper footprints: adpcm ~1 kB, g721 ~4.7 kB, mpeg ~19.5 kB (±15%).
class WorkloadShapeTest : public ::testing::TestWithParam<SizeBand> {};

TEST_P(WorkloadShapeTest, CodeSizeInPaperBand) {
  const SizeBand band = GetParam();
  const prog::Program p = by_name(band.name);
  EXPECT_GE(p.code_size(), band.lo) << band.name;
  EXPECT_LE(p.code_size(), band.hi) << band.name;
}

TEST_P(WorkloadShapeTest, ExecutesWithNontrivialDynamicWeight) {
  const SizeBand band = GetParam();
  const prog::Program p = by_name(band.name);
  const trace::ExecutionResult r = trace::Executor::run(p);
  EXPECT_GT(r.total_fetches, 100000u) << band.name;
  EXPECT_GT(r.total_blocks, 1000u) << band.name;
}

TEST_P(WorkloadShapeTest, DeterministicAcrossConstructions) {
  const SizeBand band = GetParam();
  const prog::Program a = by_name(band.name);
  const prog::Program b = by_name(band.name);
  EXPECT_EQ(a.code_size(), b.code_size());
  EXPECT_EQ(a.block_count(), b.block_count());
  const auto ra = trace::Executor::run(a);
  const auto rb = trace::Executor::run(b);
  EXPECT_EQ(ra.total_fetches, rb.total_fetches);
  EXPECT_EQ(ra.walk.seq.size(), rb.walk.seq.size());
}

TEST_P(WorkloadShapeTest, HasLoopsAndMultipleFunctions) {
  const SizeBand band = GetParam();
  const prog::Program p = by_name(band.name);
  EXPECT_GE(p.function_count(), 5u) << band.name;
  EXPECT_GE(p.loop_regions().size(), 2u) << band.name;
}

INSTANTIATE_TEST_SUITE_P(
    Bands, WorkloadShapeTest,
    ::testing::Values(SizeBand{"adpcm", 850, 1200},
                      SizeBand{"g721", 4000, 5400},
                      SizeBand{"mpeg", 16500, 22500},
                      SizeBand{"epic", 2600, 3800},
                      SizeBand{"pegwit", 5800, 8000},
                      SizeBand{"gsm", 5100, 7000},
                      SizeBand{"jpeg", 9300, 12700}),
    [](const ::testing::TestParamInfo<SizeBand>& info) {
      return info.param.name;
    });

TEST(Workloads, NamesListsEverything) {
  const auto all = names();
  EXPECT_EQ(all.size(), 7u);
  for (const auto& n : all) {
    EXPECT_NO_THROW(by_name(n));
    EXPECT_NO_THROW(paper_cache_for(n));
    EXPECT_FALSE(paper_spm_sizes_for(n).empty());
  }
}

TEST(Workloads, UnknownNameRejected) {
  EXPECT_THROW(by_name("quake"), PreconditionError);
  EXPECT_THROW(paper_cache_for("quake"), PreconditionError);
  EXPECT_THROW(paper_spm_sizes_for("quake"), PreconditionError);
}

TEST(Workloads, PaperCacheConfigurations) {
  EXPECT_EQ(paper_cache_for("adpcm").size, 128u);
  EXPECT_EQ(paper_cache_for("g721").size, 1024u);
  EXPECT_EQ(paper_cache_for("mpeg").size, 2048u);
  for (const auto& n : names()) {
    const auto cfg = paper_cache_for(n);
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.associativity, 1u);  // paper: direct mapped
    EXPECT_EQ(cfg.line_size, 16u);
  }
}

TEST(Workloads, PaperSpmSweepsMatchTable1) {
  EXPECT_EQ(paper_spm_sizes_for("adpcm"),
            (std::vector<Bytes>{64, 128, 256}));
  EXPECT_EQ(paper_spm_sizes_for("g721"),
            (std::vector<Bytes>{128, 256, 512, 1024}));
  EXPECT_EQ(paper_spm_sizes_for("mpeg"),
            (std::vector<Bytes>{128, 256, 512, 1024}));
}

TEST(Workloads, HotCodeConcentration) {
  // The paper's premise: a small fraction of the code takes most fetches.
  for (const char* name : {"adpcm", "g721", "mpeg"}) {
    const prog::Program p = by_name(name);
    const auto r = trace::Executor::run(p);
    std::vector<std::pair<std::uint64_t, Bytes>> per_block;
    for (const auto& blk : p.blocks()) {
      per_block.emplace_back(r.profile.fetches(p, blk.id), blk.size);
    }
    std::sort(per_block.rbegin(), per_block.rend());
    Bytes bytes = 0;
    std::uint64_t covered = 0;
    for (const auto& [f, sz] : per_block) {
      if (bytes > p.code_size() / 3) break;
      bytes += sz;
      covered += f;
    }
    EXPECT_GT(static_cast<double>(covered) /
                  static_cast<double>(r.total_fetches),
              0.75)
        << name << ": hottest third of code must take >75% of fetches";
  }
}

TEST(Workloads, MpegBlocksAreCompilerSized) {
  const prog::Program p = make_mpeg();
  for (const auto& blk : p.blocks()) {
    EXPECT_LE(blk.size, 128u);  // straightline() splits at <= 96 + controls
    EXPECT_EQ(blk.size % kWordBytes, 0u);
  }
}

}  // namespace
}  // namespace casa::workloads
