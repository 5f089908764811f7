// StackSimulator oracle suite.
//
// The one-pass engine's whole value is exactness: its counters must be
// bit-identical to replaying the same access sequence through a fresh
// cachesim::Cache per configuration. The suite holds that equality across
// set counts {1..64} x associativities {1,2,4,8} of LRU, the one policy
// with the stack property, on every bundled workload's compiled fetch
// stream, on a family whose set counts skip levels, plus synthetic streams
// that stress the corner cases the workloads may miss. A non-LRU member is
// rejected: callers replay those geometries one by one.
#include <gtest/gtest.h>

#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/cachesim/stack_sim.hpp"
#include "casa/support/error.hpp"
#include "casa/support/rng.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::cachesim {
namespace {

struct LineAccess {
  Addr addr = 0;
  std::uint32_t words = 1;
};

StackCounters replay_cache(const CacheConfig& cfg,
                           const std::vector<LineAccess>& runs) {
  Cache cache(cfg);
  for (const LineAccess& r : runs) cache.access_line(r.addr, r.words);
  return StackCounters{cache.hits(), cache.misses(), cache.evictions()};
}

/// Asserts stack == per-config Cache for every grid point of `family`.
void expect_oracle_match(const ConfigFamily& family,
                         const std::vector<LineAccess>& runs,
                         const char* label) {
  StackSimulator sim(family);
  for (const LineAccess& r : runs) sim.access_line(r.addr, r.words);
  for (const CacheConfig& cfg : family.configs) {
    const StackCounters expected = replay_cache(cfg, runs);
    const StackCounters got = sim.counters(cfg);
    EXPECT_EQ(got, expected)
        << label << ": sets=" << cfg.sets() << " assoc=" << cfg.associativity
        << " policy=" << to_string(cfg.policy) << " (hits " << got.hits
        << " vs " << expected.hits << ", misses " << got.misses << " vs "
        << expected.misses << ", evictions " << got.evictions << " vs "
        << expected.evictions << ")";
  }
}

ConfigFamily paper_family() {
  // Set counts {1..64} x associativities {1,2,4,8}: 16-byte lines give
  // capacities from 16 B up to 8 KiB — brackets every paper configuration.
  ConfigFamily fam;
  fam.line_size = 16;
  for (unsigned sets = 1; sets <= 64; sets *= 2) {
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
      CacheConfig cfg;
      cfg.line_size = fam.line_size;
      cfg.associativity = assoc;
      cfg.size = static_cast<Bytes>(sets) * assoc * fam.line_size;
      fam.configs.push_back(cfg);
    }
  }
  return fam;
}

/// The workload's dynamic fetch stream at line granularity: compiled
/// stream runs in walk order (exactly what the sweep planner feeds).
std::vector<LineAccess> workload_runs(const std::string& name, Bytes line_size) {
  const prog::Program program = workloads::by_name(name);
  const trace::ExecutionResult exec = trace::Executor::run(program);
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = line_size;
  topt.max_trace_size = 512;
  const traceopt::TraceProgram tp =
      traceopt::form_traces(program, exec.profile, topt);
  const traceopt::Layout layout = traceopt::layout_all(tp);
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(tp, layout, line_size);
  std::vector<LineAccess> runs;
  for (const BasicBlockId bb : exec.walk.seq) {
    for (const trace::LineRun& r : stream.runs(bb)) {
      runs.push_back(LineAccess{r.addr, r.words});
    }
  }
  return runs;
}

/// Synthetic mostly-sequential fetch stream with jumps (full-line runs
/// interleaved with word-granular stragglers).
std::vector<LineAccess> synthetic_runs(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<LineAccess> runs;
  runs.reserve(count);
  Addr pc = 0;
  while (runs.size() < count) {
    if (rng.next_bool(0.15)) pc = rng.next_below(8 * 1024) & ~Addr{3};
    const Addr line_end = (pc | 15) + 1;
    const std::uint32_t words_left =
        static_cast<std::uint32_t>((line_end - pc) / kWordBytes);
    const std::uint32_t words =
        1 + static_cast<std::uint32_t>(rng.next_below(words_left));
    runs.push_back(LineAccess{pc, words});
    pc += static_cast<Addr>(words) * kWordBytes;
  }
  return runs;
}

TEST(ConfigFamily, GridEnumeratesTheFullProduct) {
  const ConfigFamily fam = ConfigFamily::grid(16, 8, 4);
  EXPECT_EQ(fam.configs.size(), 4u * 3u);  // sets {1,2,4,8} x assoc {1,2,4}
  EXPECT_EQ(StackSimulator(fam).levels().back(), 3u);  // up to 2^3 sets
  EXPECT_EQ(fam.max_associativity(), 4u);
  fam.validate();
}

TEST(ConfigFamily, ValidateRejectsMixedLineSizeOrPolicy) {
  ConfigFamily fam = ConfigFamily::grid(16, 4, 2);
  fam.configs[0].line_size = 32;
  fam.configs[0].size = 32 * 1;  // keep the config itself valid
  EXPECT_THROW(fam.validate(), PreconditionError);

  ConfigFamily fam2 = ConfigFamily::grid(16, 4, 2);
  fam2.configs[1].policy = ReplacementPolicy::kFifo;
  EXPECT_THROW(fam2.validate(), PreconditionError);
}

TEST(StackSimulator, RejectsANonLruMember) {
  // Only LRU has the stack property; any other member throws at
  // construction rather than being simulated some other way.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kFifo, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    ConfigFamily fam = ConfigFamily::grid(16, 4, 2);
    fam.configs.back().policy = policy;
    EXPECT_THROW(StackSimulator{fam}, PreconditionError) << to_string(policy);
  }
}

TEST(StackSimulator, RejectsForeignLineSizeOrPolicy) {
  StackSimulator sim(ConfigFamily::grid(16, 4, 2));
  CacheConfig other;
  other.line_size = 32;
  EXPECT_THROW(sim.counters(other), PreconditionError);
  CacheConfig fifo;
  fifo.line_size = 16;
  fifo.policy = ReplacementPolicy::kFifo;
  EXPECT_THROW(sim.counters(fifo), PreconditionError);
  CacheConfig too_big;
  too_big.line_size = 16;
  too_big.size = 2_KiB;  // 128 sets > family max of 4
  EXPECT_THROW(sim.counters(too_big), PreconditionError);
}

TEST(StackSimulator, CountersNeedASetCountSomeMemberHas) {
  // Only the members' set-count levels are kept: {2, 16} sets here, so 4
  // sets (a level between them) and 1 set (below them) are not answered.
  ConfigFamily fam;
  fam.line_size = 16;
  for (const unsigned sets : {2u, 16u}) {
    CacheConfig cfg;
    cfg.line_size = 16;
    cfg.associativity = 2;
    cfg.size = static_cast<Bytes>(sets) * 2 * 16;
    fam.configs.push_back(cfg);
  }
  StackSimulator sim(fam);
  EXPECT_EQ(sim.levels(), (std::vector<unsigned>{1, 4}));
  for (const LineAccess& r : synthetic_runs(3, 1'000)) {
    sim.access_line(r.addr, r.words);
  }
  CacheConfig between;
  between.line_size = 16;
  between.associativity = 2;
  between.size = 4 * 2 * 16;
  EXPECT_THROW(sim.counters(between), PreconditionError);
  CacheConfig below = between;
  below.size = 2 * 16;
  EXPECT_THROW(sim.counters(below), PreconditionError);
  // A kept level answers any associativity up to the family's maximum.
  CacheConfig direct_mapped = fam.configs[1];
  direct_mapped.associativity = 1;
  direct_mapped.size = 16 * 16;
  EXPECT_NO_THROW(sim.counters(direct_mapped));
}

TEST(StackSimulator, SyntheticStreamsMatchTheCacheOracle) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    const std::vector<LineAccess> runs = synthetic_runs(seed, 20'000);
    expect_oracle_match(paper_family(), runs, "lru");
  }
}

TEST(StackSimulator, WordAndLineGranularFeedsAgree) {
  // Feeding a run as one access_line call or word-by-word access() calls
  // must produce identical counters — the same equivalence Cache holds.
  const std::vector<LineAccess> runs = synthetic_runs(5, 10'000);
  const ConfigFamily fam = ConfigFamily::grid(16, 16, 4);
  StackSimulator by_line(fam);
  StackSimulator by_word(fam);
  for (const LineAccess& r : runs) {
    by_line.access_line(r.addr, r.words);
    for (std::uint32_t w = 0; w < r.words; ++w) {
      by_word.access(r.addr + static_cast<Addr>(w) * kWordBytes);
    }
  }
  for (const CacheConfig& cfg : fam.configs) {
    const StackCounters a = by_line.counters(cfg);
    const StackCounters b = by_word.counters(cfg);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    // Word-granular feeding issues the same word count, so hits agree too.
    EXPECT_EQ(a.hits, b.hits);
  }
}

/// Per-workload oracle over the real fetch streams. One TEST per workload
/// keeps failures attributable and lets ctest parallelize the suite.
class WorkloadOracle : public ::testing::TestWithParam<std::string> {};

// Every policy the engine models (LRU; the others are rejected).
TEST_P(WorkloadOracle, AllPoliciesBitIdentical) {
  const std::vector<LineAccess> runs = workload_runs(GetParam(), 16);
  ASSERT_FALSE(runs.empty());
  expect_oracle_match(paper_family(), runs, "lru");
}

TEST_P(WorkloadOracle, SkippedLevelsStayExact) {
  // Set counts {2, 16, 64} x associativities {1, 4}: the engine keeps three
  // of seven levels, and every member must still match its Cache.
  const std::vector<LineAccess> runs = workload_runs(GetParam(), 16);
  ConfigFamily fam;
  fam.line_size = 16;
  for (const unsigned sets : {2u, 16u, 64u}) {
    for (const unsigned assoc : {1u, 4u}) {
      CacheConfig cfg;
      cfg.line_size = 16;
      cfg.associativity = assoc;
      cfg.size = static_cast<Bytes>(sets) * assoc * 16;
      fam.configs.push_back(cfg);
    }
  }
  EXPECT_EQ(StackSimulator(fam).levels(), (std::vector<unsigned>{1, 4, 6}));
  expect_oracle_match(fam, runs, "skipped levels");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadOracle,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace casa::cachesim
