// The replay kernel's repeat schedule (memsim/replay.hpp) against the flat
// walk.
//
// Each test replays random walks with planted repeats twice: along their
// schedule, and with `repeats` cleared, which replays every copy. On the
// recency-ordered models (cachesim::LruTags at 1, 2, 4 and 8 ways) the two
// must agree in everything the replay yields: the kernel's tally and
// evictions, and MissAttribution's whole conflict graph.
// The generic Cache (FIFO and random at two ways) and the two-level
// hierarchy must replay flat: on planted walks where a weighted replay
// changes their counts, they still equal the word-granular reference.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/cachesim/line_model.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/loopcache/ross_allocator.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/memsim/replay.hpp"
#include "casa/memsim/two_level.hpp"
#include "casa/support/error.hpp"
#include "casa/support/rng.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

constexpr Bytes kLine = 16;

// TraceProgram and Layout hold pointers into the program / trace program,
// so the rig is built member-by-member in place and never moved.
struct Rig {
  prog::Program program;
  trace::ExecutionResult exec;
  traceopt::TraceProgram tp;
  traceopt::Layout layout;
  trace::CompiledStream stream;
  loopcache::RegionSet regions;

  explicit Rig(const std::string& workload)
      : program(workloads::by_name(workload)),
        exec(trace::Executor::run(program)),
        tp(traceopt::form_traces(program, exec.profile, topt())),
        layout(traceopt::layout_all(tp)),
        stream(traceopt::compile_fetch_stream(tp, layout, kLine)),
        regions(loop_regions(tp, layout, exec.profile)) {}

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  static traceopt::TraceFormationOptions topt() {
    traceopt::TraceFormationOptions o;
    o.cache_line_size = kLine;
    o.max_trace_size = 256;
    return o;
  }

  static loopcache::RegionSet loop_regions(const traceopt::TraceProgram& tp,
                                           const traceopt::Layout& layout,
                                           const trace::Profile& profile) {
    loopcache::LoopCacheConfig lc;
    lc.size = 128;
    return loopcache::allocate_ross(
               loopcache::enumerate_regions(tp, layout, profile), lc)
        .selected;
  }
};

const Rig& rig() {
  static const Rig r("gsm");
  return r;
}

/// A walk of random flat stretches and planted repeats of 2 to 9 copies,
/// every block drawn from a pool of 48 so that lines recur and conflict;
/// `repeats` lists every planted run.
trace::BlockWalk planted_walk(std::size_t blocks, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BasicBlockId> pool(48);
  for (BasicBlockId& bb : pool) {
    bb = BasicBlockId(static_cast<std::uint32_t>(rng.next_below(blocks)));
  }
  const auto draw = [&] { return pool[rng.next_below(pool.size())]; };
  trace::BlockWalk walk;
  while (walk.seq.size() < 20'000) {
    for (std::uint64_t k = rng.next_below(64); k > 0; --k) {
      walk.seq.push_back(draw());
    }
    const auto period = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const auto copies = static_cast<std::uint32_t>(2 + rng.next_below(8));
    std::vector<BasicBlockId> iteration(period);
    for (BasicBlockId& bb : iteration) bb = draw();
    walk.repeats.push_back(
        {static_cast<std::uint32_t>(walk.seq.size()), period, copies});
    for (std::uint32_t c = 0; c < copies; ++c) {
      walk.seq.insert(walk.seq.end(), iteration.begin(), iteration.end());
    }
  }
  return walk;
}

/// The same walk with its schedule cleared: the reference replay.
trace::BlockWalk flat(const trace::BlockWalk& walk) {
  trace::BlockWalk out;
  out.seq = walk.seq;
  return out;
}

/// Every third object on the scratchpad.
std::vector<bool> some_on_spm(std::size_t objects) {
  std::vector<bool> on(objects, false);
  for (std::size_t i = 0; i < objects; i += 3) on[i] = true;
  return on;
}

cachesim::CacheConfig lru(Bytes size, unsigned ways) {
  cachesim::CacheConfig c;
  c.size = size;
  c.line_size = kLine;
  c.associativity = ways;
  return c;
}

/// A walk replayed on a fresh `Model` for `cache` with CountMisses, its
/// evictions included.
template <class Model>
memsim::ReplayTally count_misses(const cachesim::CacheConfig& cache,
                                 const memsim::Route& route,
                                 const trace::BlockWalk& walk) {
  Model model(cache);
  memsim::ReplayTally t;
  memsim::replay(model, route, walk, t, memsim::CountMisses{});
  t.cache_evictions = cachesim::evictions_after(model, t.cache_misses);
  return t;
}

void expect_same_tally(const memsim::ReplayTally& a,
                       const memsim::ReplayTally& b) {
  EXPECT_EQ(a.spm_words, b.spm_words);
  EXPECT_EQ(a.lc_words, b.lc_words);
  EXPECT_EQ(a.cache_words, b.cache_words);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.cache_runs, b.cache_runs);
}

template <unsigned A>
void expect_tag_model_matches_flat() {
  const Rig& r = rig();
  const cachesim::CacheConfig cache = lru(128 * A, A);  // 8 sets
  const std::vector<bool> on_spm = some_on_spm(r.tp.object_count());
  const memsim::RegionSplit split(r.stream, r.regions,
                                  r.program.block_count());
  const memsim::Route routes[] = {
      {.tp = &r.tp, .stream = &r.stream},
      {.tp = &r.tp, .stream = &r.stream, .spm = &on_spm},
      {.tp = &r.tp, .stream = &r.stream, .split = &split},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const trace::BlockWalk walk =
        planted_walk(r.program.block_count(), seed);
    for (std::size_t k = 0; k < std::size(routes); ++k) {
      SCOPED_TRACE("ways " + std::to_string(A) + " seed " +
                   std::to_string(seed) + " route " + std::to_string(k));
      const memsim::ReplayTally sched =
          count_misses<cachesim::LruTags<A>>(cache, routes[k], walk);
      const memsim::ReplayTally ref =
          count_misses<cachesim::LruTags<A>>(cache, routes[k], flat(walk));
      expect_same_tally(sched, ref);
      EXPECT_GT(sched.skipped_blocks, 0u);
      EXPECT_EQ(ref.skipped_blocks, 0u);
      EXPECT_GT(ref.cache_misses, ref.cache_evictions);
      EXPECT_GT(ref.cache_evictions, 0u);
    }
  }
}

TEST(ReplaySchedule, TagModelsMatchTheFlatWalk) {
  expect_tag_model_matches_flat<1>();
  expect_tag_model_matches_flat<2>();
  expect_tag_model_matches_flat<4>();
  expect_tag_model_matches_flat<8>();
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

TEST(ReplaySchedule, MissAttributionMatchesTheFlatWalk) {
  const Rig& r = rig();
  cachesim::CacheConfig fifo_one_way = lru(512, 1);
  fifo_one_way.policy = cachesim::ReplacementPolicy::kFifo;
  for (const cachesim::CacheConfig& cache :
       {lru(256, 1), fifo_one_way, lru(512, 2), lru(1_KiB, 4),
        lru(2_KiB, 8)}) {
    conflict::BuildOptions opt;
    opt.cache = cache;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("ways " + std::to_string(cache.associativity) + " size " +
                   std::to_string(cache.size) + " seed " +
                   std::to_string(seed));
      const trace::BlockWalk walk =
          planted_walk(r.program.block_count(), seed);
      const conflict::ConflictGraph sched =
          conflict::build_conflict_graph(r.tp, r.stream, walk, opt);
      const conflict::ConflictGraph ref =
          conflict::build_conflict_graph(r.tp, r.stream, flat(walk), opt);
      EXPECT_GT(ref.edge_count(), 0u);
      expect_same_graph(sched, ref);
    }
  }
}

TEST(ReplaySchedule, MalformedSchedulesAreRejected) {
  const Rig& r = rig();
  const memsim::Route route{.tp = &r.tp, .stream = &r.stream};
  trace::BlockWalk walk = planted_walk(r.program.block_count(), 1);
  ASSERT_GE(walk.repeats.size(), 2u);
  const auto replay = [&](const trace::BlockWalk& w) {
    return count_misses<cachesim::LruTags<1>>(lru(256, 1), route, w);
  };
  trace::BlockWalk past_end = walk;
  past_end.repeats.back().copies += 1'000'000;
  EXPECT_THROW(replay(past_end), PreconditionError);
  trace::BlockWalk overlapping = walk;
  overlapping.repeats[1].begin = overlapping.repeats[0].begin + 1;
  EXPECT_THROW(replay(overlapping), PreconditionError);
  trace::BlockWalk one_copy = walk;
  one_copy.repeats[0].copies = 1;
  EXPECT_THROW(replay(one_copy), PreconditionError);
  // Out of order, placed so that the walk reaches the second entry exactly
  // where its second copy would start, and reaching far past the walk:
  // still refused, never read.
  trace::BlockWalk reversed = walk;
  std::swap(reversed.repeats[0], reversed.repeats[1]);
  const trace::Repeat& first = reversed.repeats[0];
  trace::Repeat& second = reversed.repeats[1];
  second.begin = first.begin + first.period * first.copies - second.period;
  second.copies = 1'000'000;
  EXPECT_THROW(replay(reversed), PreconditionError);
}

/// A Cache that claims a recency-ordered state, so that the kernel weights
/// its repeats: what the FIFO and random caches would count if they took
/// the schedule.
struct WeightedCache : cachesim::Cache {
  using Cache::Cache;
  static constexpr bool kRecencyState = true;
};

TEST(ReplaySchedule, FifoAndRandomCachesReplayFlat) {
  const Rig& r = rig();
  const std::vector<bool> none(r.tp.object_count(), false);
  for (const cachesim::ReplacementPolicy policy :
       {cachesim::ReplacementPolicy::kFifo,
        cachesim::ReplacementPolicy::kRandom}) {
    cachesim::CacheConfig cache = lru(512, 2);
    cache.policy = policy;
    const auto energies = energy::EnergyTable::build(cache, 512, 0, 0);
    memsim::SimOptions words;
    words.use_compiled_stream = false;
    bool weighting_changes_counts = false;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(cachesim::to_string(policy)) + " seed " +
                   std::to_string(seed));
      const trace::BlockWalk walk =
          planted_walk(r.program.block_count(), seed);
      const memsim::SimReport word_ref = memsim::simulate_spm_system(
          r.tp, r.layout, walk, none, cache, energies, words);
      EXPECT_EQ(memsim::simulate_spm_system(r.tp, r.layout, walk, none,
                                            cache, energies)
                    .counters,
                word_ref.counters);

      memsim::ReplayTally weighted;
      WeightedCache model(cache);
      memsim::replay(model, {.tp = &r.tp, .stream = &r.stream}, walk,
                     weighted, memsim::CountMisses{});
      EXPECT_GT(weighted.skipped_blocks, 0u);
      weighting_changes_counts |=
          weighted.cache_misses != word_ref.counters.cache_misses;
    }
    EXPECT_TRUE(weighting_changes_counts)
        << "the planted walks cannot tell a weighted replay from a flat one";
  }
}

TEST(ReplaySchedule, TwoLevelReplaysFlat) {
  const Rig& r = rig();
  const std::vector<bool> none(r.tp.object_count(), false);
  const cachesim::CacheConfig l1 = lru(256, 1);
  cachesim::CacheConfig l2 = lru(1_KiB, 2);
  l2.line_size = 2 * kLine;
  const memsim::TwoLevelEnergies energies;
  bool weighting_changes_counts = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const trace::BlockWalk walk = planted_walk(r.program.block_count(), seed);
    const memsim::TwoLevelCounters word_ref =
        memsim::simulate_spm_two_level(r.tp, r.layout, walk, none, l1, l2,
                                       energies, 1, false)
            .counters;
    const memsim::TwoLevelCounters line =
        memsim::simulate_spm_two_level(r.tp, r.layout, walk, none, l1, l2,
                                       energies)
            .counters;
    EXPECT_EQ(line.l1_misses, word_ref.l1_misses);
    EXPECT_EQ(line.l2_hits, word_ref.l2_hits);
    EXPECT_EQ(line.l2_misses, word_ref.l2_misses);

    // The same hierarchy along the schedule: the L1 settles, the L2 does
    // not.
    cachesim::LruTags<1> l1_model(l1);
    cachesim::Cache l2_model(l2, 2);
    std::uint64_t l2_hits = 0;
    memsim::ReplayTally t;
    memsim::replay(l1_model, {.tp = &r.tp, .stream = &r.stream}, walk, t,
                   [&](auto& cache, MemoryObjectId, const trace::LineRun& run,
                       std::uint64_t weight) {
                     if (cache.access_line(run.addr, run.words).hit) {
                       return false;
                     }
                     if (l2_model.access(run.addr).hit) l2_hits += weight;
                     return true;
                   });
    EXPECT_EQ(t.cache_misses, word_ref.l1_misses);
    weighting_changes_counts |= l2_hits != word_ref.l2_hits;
  }
  EXPECT_TRUE(weighting_changes_counts)
      << "the planted walks cannot tell a weighted L2 from a flat one";
}

}  // namespace
