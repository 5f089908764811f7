// Oracle tests for the line-granular compiled fetch stream.
//
// The compiled stream (trace::CompiledStream + Cache::access_line) claims
// bit-for-bit equivalence with the word-granular reference replay. These
// tests assert exactly that, end to end, over real workloads: identical
// conflict graphs (fetches / cold / hits / every edge), identical hierarchy
// counters, byte-identical energy totals, and identical two-level counters
// — across associativities, replacement policies (including Random with a
// fixed seed), move-semantics layouts with unplaced objects, and loop-cache
// replays whose region edges split same-line runs. One-way geometries and
// 2-, 4- and 8-way LRU ones replay through cachesim::LruTags and the others
// through Cache, so the configs below cover both models at several ways,
// mpeg's paper cache included.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/loopcache/ross_allocator.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/memsim/two_level.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/support/error.hpp"
#include "casa/support/rng.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::memsim {

// Readable failure output for the whole-counter comparisons below.
void PrintTo(const SimCounters& c, std::ostream* os) {
  *os << "{fetches " << c.total_fetches << ", spm " << c.spm_accesses
      << ", lc " << c.lc_accesses << ", cache " << c.cache_accesses
      << ", hits " << c.cache_hits << ", misses " << c.cache_misses
      << ", evictions " << c.cache_evictions << ", mainmem "
      << c.mainmem_words << ", cycles " << c.cycles << "}";
}

}  // namespace casa::memsim

namespace {

using namespace casa;

// TraceProgram and Layout hold pointers into the program / trace program,
// so the rig is built member-by-member in place and never moved.
struct Rig {
  prog::Program program;
  trace::ExecutionResult exec;
  traceopt::TraceProgram tp;
  traceopt::Layout layout;

  Rig(const std::string& workload, Bytes line_size)
      : program(workloads::by_name(workload)),
        exec(trace::Executor::run(program)),
        tp(traceopt::form_traces(program, exec.profile, topt(line_size))),
        layout(traceopt::layout_all(tp)) {}

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  static traceopt::TraceFormationOptions topt(Bytes line_size) {
    traceopt::TraceFormationOptions o;
    o.cache_line_size = line_size;
    o.max_trace_size = 256;
    return o;
  }
};

/// The cache shapes the oracle sweeps: direct-mapped LRU, 2-way LRU, 4-way
/// Random (seeded) and direct-mapped Random (seeded) with 32-byte lines,
/// 4-way and 8-way LRU, and 2-way FIFO. Random is the adversarial case —
/// any divergence in miss count or RNG draw order desynchronizes the
/// streams instantly; at one way the line replay takes the tag model while
/// the word oracle's Cache still draws from its RNG. The LRU shapes up to
/// 8 ways replay on the tag models, FIFO and 4-way Random on Cache.
std::vector<cachesim::CacheConfig> oracle_configs() {
  std::vector<cachesim::CacheConfig> configs;
  {
    cachesim::CacheConfig c;
    c.size = 512;
    c.line_size = 16;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 512;
    c.line_size = 16;
    c.associativity = 2;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 1_KiB;
    c.line_size = 32;
    c.associativity = 4;
    c.policy = cachesim::ReplacementPolicy::kRandom;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 1_KiB;
    c.line_size = 32;
    c.policy = cachesim::ReplacementPolicy::kRandom;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 1_KiB;
    c.line_size = 16;
    c.associativity = 4;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 2_KiB;
    c.line_size = 32;
    c.associativity = 8;
    configs.push_back(c);
  }
  {
    cachesim::CacheConfig c;
    c.size = 512;
    c.line_size = 16;
    c.associativity = 2;
    c.policy = cachesim::ReplacementPolicy::kFifo;
    configs.push_back(c);
  }
  return configs;
}

/// The (workload, cache) pairs the replay oracles run: adpcm and g721 under
/// every oracle config, and mpeg — the largest bundled program — under its
/// paper cache.
std::vector<std::pair<std::string, cachesim::CacheConfig>> oracle_cases() {
  std::vector<std::pair<std::string, cachesim::CacheConfig>> cases;
  for (const std::string workload : {"adpcm", "g721"}) {
    for (const cachesim::CacheConfig& cache : oracle_configs()) {
      cases.emplace_back(workload, cache);
    }
  }
  cases.emplace_back("mpeg", workloads::paper_cache_for("mpeg"));
  return cases;
}

void expect_same_graph(const conflict::ConflictGraph& a,
                       const conflict::ConflictGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    EXPECT_EQ(a.fetches(mo), b.fetches(mo));
    EXPECT_EQ(a.cold_misses(mo), b.cold_misses(mo));
    EXPECT_EQ(a.hits(mo), b.hits(mo));
  }
  for (std::size_t e = 0; e < a.edges().size(); ++e) {
    EXPECT_EQ(a.edges()[e].from, b.edges()[e].from);
    EXPECT_EQ(a.edges()[e].to, b.edges()[e].to);
    EXPECT_EQ(a.edges()[e].misses, b.edges()[e].misses);
  }
}

void expect_same_report(const memsim::SimReport& a,
                        const memsim::SimReport& b) {
  // Every counter, evictions included.
  EXPECT_EQ(a.counters, b.counters);
  // Energies are derived from the counters identically on both paths, so
  // equality here is exact (byte-identical doubles), not approximate.
  EXPECT_EQ(a.spm_energy, b.spm_energy);
  EXPECT_EQ(a.cache_energy, b.cache_energy);
  EXPECT_EQ(a.lc_energy, b.lc_energy);
  EXPECT_EQ(a.total_energy, b.total_energy);
}

TEST(CompiledStream, RunsCoverEveryWordExactlyOnce) {
  const Rig r("adpcm", 16);
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(r.tp, r.layout, 16);
  for (std::size_t i = 0; i < r.program.block_count(); ++i) {
    const BasicBlockId bb(static_cast<std::uint32_t>(i));
    const MemoryObjectId mo = r.tp.object_of(bb);
    if (!mo.valid() || !r.layout.placed(mo)) continue;
    ASSERT_TRUE(stream.cached(bb));
    Addr expect_addr = r.layout.block_addr(bb);
    std::uint64_t words = 0;
    for (const trace::LineRun& run : stream.runs(bb)) {
      EXPECT_EQ(run.addr, expect_addr);
      EXPECT_EQ(run.line, run.addr / 16);
      // A run never crosses its line's end.
      EXPECT_LE(run.addr % 16 + run.words * kWordBytes, 16u);
      EXPECT_GT(run.words, 0u);
      expect_addr += run.words * kWordBytes;
      words += run.words;
    }
    EXPECT_EQ(words, r.program.block(bb).size / kWordBytes);
    EXPECT_EQ(words, stream.words_of(bb));
  }
}

TEST(CompiledStream, AccessLineMatchesWordAccesses) {
  // Direct cache-level oracle: random line runs through access_line vs the
  // same runs replayed word by word, all four policies.
  for (const auto policy :
       {cachesim::ReplacementPolicy::kLru, cachesim::ReplacementPolicy::kFifo,
        cachesim::ReplacementPolicy::kRoundRobin,
        cachesim::ReplacementPolicy::kRandom}) {
    cachesim::CacheConfig cfg;
    cfg.size = 256;
    cfg.line_size = 16;
    cfg.associativity = 2;
    cfg.policy = policy;
    cachesim::Cache line_cache(cfg, 7);
    cachesim::Cache word_cache(cfg, 7);

    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
      const Addr line_base = rng.next_below(1 << 12) * cfg.line_size;
      const std::uint32_t max_words =
          static_cast<std::uint32_t>(cfg.line_size / kWordBytes);
      const std::uint32_t first =
          static_cast<std::uint32_t>(rng.next_below(max_words));
      const std::uint32_t words = static_cast<std::uint32_t>(
          1 + rng.next_below(max_words - first));
      const Addr addr = line_base + first * kWordBytes;

      const cachesim::AccessResult lr = line_cache.access_line(addr, words);
      cachesim::AccessResult wr = word_cache.access(addr);
      for (std::uint32_t w = 1; w < words; ++w) {
        const cachesim::AccessResult follow =
            word_cache.access(addr + w * kWordBytes);
        EXPECT_TRUE(follow.hit);  // same-line trailing words always hit
      }
      EXPECT_EQ(lr.hit, wr.hit);
      EXPECT_EQ(lr.evicted_line, wr.evicted_line);
      EXPECT_EQ(line_cache.hits(), word_cache.hits());
      EXPECT_EQ(line_cache.misses(), word_cache.misses());
    }
  }
}

TEST(CompiledStream, ConflictGraphOracle) {
  for (const auto& [workload, cache] : oracle_cases()) {
    SCOPED_TRACE(workload);
    const Rig r(workload, cache.line_size);
    conflict::BuildOptions opt;
    opt.cache = cache;
    opt.seed = 3;
    opt.use_compiled_stream = true;
    const conflict::ConflictGraph fast =
        conflict::build_conflict_graph(r.tp, r.layout, r.exec.walk, opt);
    opt.use_compiled_stream = false;
    const conflict::ConflictGraph ref =
        conflict::build_conflict_graph(r.tp, r.layout, r.exec.walk, opt);
    expect_same_graph(fast, ref);
  }
}

TEST(CompiledStream, HierarchySimulationOracle) {
  for (const auto& [workload, cache] : oracle_cases()) {
    SCOPED_TRACE(workload);
    const Rig r(workload, cache.line_size);
    const auto energies = energy::EnergyTable::build(cache, 256, 0, 0);

    // Alternate objects on the scratchpad to exercise both paths.
    std::vector<bool> on_spm(r.tp.object_count(), false);
    for (std::size_t i = 0; i < on_spm.size(); i += 2) on_spm[i] = true;

    memsim::SimOptions fast_opt;
    fast_opt.seed = 5;
    memsim::SimOptions ref_opt = fast_opt;
    ref_opt.use_compiled_stream = false;

    expect_same_report(
        memsim::simulate_spm_system(r.tp, r.layout, r.exec.walk, on_spm,
                                    cache, energies, fast_opt),
        memsim::simulate_spm_system(r.tp, r.layout, r.exec.walk, on_spm,
                                    cache, energies, ref_opt));
    expect_same_report(
        memsim::simulate_cache_only(r.tp, r.layout, r.exec.walk, cache,
                                    energies, fast_opt),
        memsim::simulate_cache_only(r.tp, r.layout, r.exec.walk, cache,
                                    energies, ref_opt));
  }
}

TEST(CompiledStream, InvalidOneWayGeometryStillThrows) {
  // The tag model validates its geometry as Cache does: a one-way cache
  // whose size is not a power of two is rejected by every replay.
  const Rig r("adpcm", 16);
  cachesim::CacheConfig bad;
  bad.size = 48;
  bad.line_size = 16;
  const auto energies =
      energy::EnergyTable::build(workloads::paper_cache_for("adpcm"), 256, 0, 0);
  const std::vector<bool> none(r.tp.object_count(), false);
  EXPECT_THROW(memsim::simulate_spm_system(r.tp, r.layout, r.exec.walk, none,
                                           bad, energies),
               PreconditionError);
  EXPECT_THROW(memsim::simulate_cache_only(r.tp, r.layout, r.exec.walk, bad,
                                           energies),
               PreconditionError);
  conflict::BuildOptions opt;
  opt.cache = bad;
  EXPECT_THROW(conflict::build_conflict_graph(r.tp, r.layout, r.exec.walk, opt),
               PreconditionError);
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(r.tp, r.layout, bad.line_size);
  EXPECT_THROW(conflict::build_conflict_graph(r.tp, stream, r.exec.walk, opt),
               PreconditionError);
}

TEST(CompiledStream, MoveSemanticsLayoutOracle) {
  // Steinke-style compacted layout: scratchpad objects are absent from the
  // image, so their blocks compile as not-cached.
  const Rig r("g721", 16);
  cachesim::CacheConfig cache;
  cache.size = 1_KiB;
  cache.line_size = 16;
  const auto energies = energy::EnergyTable::build(cache, 256, 0, 0);

  std::vector<bool> on_spm(r.tp.object_count(), false);
  for (std::size_t i = 0; i < on_spm.size(); i += 3) on_spm[i] = true;
  const traceopt::Layout compacted = traceopt::layout_excluding(r.tp, on_spm);

  memsim::SimOptions fast_opt;
  memsim::SimOptions ref_opt;
  ref_opt.use_compiled_stream = false;

  expect_same_report(
      memsim::simulate_spm_system(r.tp, compacted, r.exec.walk, on_spm,
                                  cache, energies, fast_opt),
      memsim::simulate_spm_system(r.tp, compacted, r.exec.walk, on_spm,
                                  cache, energies, ref_opt));
}

/// Loop-cache replay through the compiled stream vs the word replay.
void expect_loopcache_oracle(const Rig& r, const loopcache::RegionSet& regions,
                             const cachesim::CacheConfig& cache) {
  const auto energies = energy::EnergyTable::build(cache, 0, 256, 4);
  memsim::SimOptions fast_opt;
  fast_opt.seed = 5;
  memsim::SimOptions ref_opt = fast_opt;
  ref_opt.use_compiled_stream = false;
  const memsim::SimReport fast = memsim::simulate_loopcache_system(
      r.tp, r.layout, r.exec.walk, regions, cache, energies, fast_opt);
  const memsim::SimReport ref = memsim::simulate_loopcache_system(
      r.tp, r.layout, r.exec.walk, regions, cache, energies, ref_opt);
  expect_same_report(fast, ref);
}

TEST(CompiledStream, LoopCacheSimulationOracle) {
  // Gordon-Ross/Vahid selections of 1, 2, 4 and 8 regions: loop and
  // function extents that start and end mid-line.
  for (const auto& [workload, cache] : oracle_cases()) {
    SCOPED_TRACE(workload);
    const Rig r(workload, cache.line_size);
    const std::vector<loopcache::Region> candidates =
        loopcache::enumerate_regions(r.tp, r.layout, r.exec.profile);
    for (const unsigned max_regions : {1u, 2u, 4u, 8u}) {
      loopcache::LoopCacheConfig lc;
      lc.size = 1_KiB;
      lc.max_regions = max_regions;
      const loopcache::RossResult sel =
          loopcache::allocate_ross(candidates, lc);
      ASSERT_FALSE(sel.selected.regions().empty());
      expect_loopcache_oracle(r, sel.selected, cache);
    }
  }
}

TEST(CompiledStream, LoopCacheRegionInsideOneLine) {
  // Regions cut by hand into the hottest block's lines: one starts and ends
  // inside a single cache line (the line's first and last words stay
  // cached, so the line is fetched as two sub-runs around the region), one
  // crosses a line edge with both ends unaligned.
  const Rig r("g721", 16);
  BasicBlockId hot;
  std::uint64_t hot_count = 0;
  for (std::size_t i = 0; i < r.program.block_count(); ++i) {
    const BasicBlockId bb(static_cast<std::uint32_t>(i));
    if (r.program.block(bb).size < 48) continue;
    const std::uint64_t n = r.exec.profile.count(bb);
    if (n > hot_count) {
      hot = bb;
      hot_count = n;
    }
  }
  ASSERT_GT(hot_count, 0u);
  const Addr line = (r.layout.block_addr(hot) + 15) / 16 * 16;
  const loopcache::RegionSet inside(
      {loopcache::Region{line + 4, line + 12, 0, "inside"}});
  const loopcache::RegionSet straddle(
      {loopcache::Region{line + 8, line + 24, 0, "straddle"},
       loopcache::Region{line + 28, line + 36, 0, "next"}});

  cachesim::CacheConfig random = oracle_configs()[2];
  random.line_size = 16;
  for (const cachesim::CacheConfig& cache :
       {oracle_configs()[0], oracle_configs()[1], random}) {
    expect_loopcache_oracle(r, inside, cache);
    expect_loopcache_oracle(r, straddle, cache);
  }

  const auto energies = energy::EnergyTable::build(random, 0, 256, 4);
  const memsim::SimReport rep = memsim::simulate_loopcache_system(
      r.tp, r.layout, r.exec.walk, inside, random, energies);
  EXPECT_EQ(rep.counters.lc_accesses, 2 * hot_count);
  EXPECT_GT(rep.counters.cache_accesses, 0u);
}

TEST(CompiledStream, LoopCacheReplayRecordsNoStreamTelemetry) {
  // stream.* describes scratchpad and cache-only replays; a loop-cache
  // replay records its sim.* / cache.* counters only.
  const Rig r("adpcm", 16);
  const cachesim::CacheConfig cache = oracle_configs()[0];
  const auto energies = energy::EnergyTable::build(cache, 0, 256, 4);
  loopcache::LoopCacheConfig lc;
  lc.size = 256;
  const loopcache::RossResult sel = loopcache::allocate_ross(
      loopcache::enumerate_regions(r.tp, r.layout, r.exec.profile), lc);
  obs::MetricsRegistry reg;
  memsim::SimOptions opt;
  opt.metrics = &reg;
  const memsim::SimReport rep = memsim::simulate_loopcache_system(
      r.tp, r.layout, r.exec.walk, sel.selected, cache, energies, opt);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at(std::string(obs::metric_names::kSimLcAccesses)),
            rep.counters.lc_accesses);
  EXPECT_EQ(snap.counters.count(
                std::string(obs::metric_names::kStreamReplayedWords)),
            0u);
  EXPECT_EQ(snap.counters.count(
                std::string(obs::metric_names::kStreamReplayedRuns)),
            0u);
}

TEST(CompiledStream, TwoLevelOracle) {
  // A 1-way and a 2-way LRU L1: both replay on the tag models.
  const Rig r("g721", 16);
  for (const unsigned l1_ways : {1u, 2u}) {
    SCOPED_TRACE("L1 ways " + std::to_string(l1_ways));
    cachesim::CacheConfig l1;
    l1.size = 512;
    l1.line_size = 16;
    l1.associativity = l1_ways;
    cachesim::CacheConfig l2;
    l2.size = 4_KiB;
    l2.line_size = 32;
    l2.associativity = 2;
    const auto energies = memsim::TwoLevelEnergies::build(l1, l2, 256);

    std::vector<bool> on_spm(r.tp.object_count(), false);
    on_spm[0] = true;

    const memsim::TwoLevelReport fast = memsim::simulate_spm_two_level(
        r.tp, r.layout, r.exec.walk, on_spm, l1, l2, energies, 1,
        /*use_compiled_stream=*/true);
    const memsim::TwoLevelReport ref = memsim::simulate_spm_two_level(
        r.tp, r.layout, r.exec.walk, on_spm, l1, l2, energies, 1,
        /*use_compiled_stream=*/false);

    EXPECT_EQ(fast.counters.total_fetches, ref.counters.total_fetches);
    EXPECT_EQ(fast.counters.spm_accesses, ref.counters.spm_accesses);
    EXPECT_EQ(fast.counters.l1_hits, ref.counters.l1_hits);
    EXPECT_EQ(fast.counters.l1_misses, ref.counters.l1_misses);
    EXPECT_EQ(fast.counters.l2_hits, ref.counters.l2_hits);
    EXPECT_EQ(fast.counters.l2_misses, ref.counters.l2_misses);
    EXPECT_EQ(fast.total_energy, ref.total_energy);
  }
}

}  // namespace
