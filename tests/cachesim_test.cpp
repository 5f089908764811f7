#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <type_traits>

#include "casa/cachesim/cache.hpp"
#include "casa/cachesim/line_model.hpp"
#include "casa/support/error.hpp"
#include "casa/support/rng.hpp"

namespace casa::cachesim {
namespace {

CacheConfig dm(Bytes size = 128, Bytes line = 16) {
  CacheConfig c;
  c.size = size;
  c.line_size = line;
  c.associativity = 1;
  return c;
}

TEST(CacheConfig, DerivedGeometry) {
  CacheConfig c = dm(2_KiB, 16);
  EXPECT_EQ(c.sets(), 128u);
  EXPECT_EQ(c.offset_bits(), 4u);
  EXPECT_EQ(c.index_bits(), 7u);
}

TEST(CacheConfig, ValidationRejectsBadShapes) {
  CacheConfig c = dm(100, 16);
  EXPECT_THROW(c.validate(), PreconditionError);
  c = dm(128, 12);
  EXPECT_THROW(c.validate(), PreconditionError);
  c = dm(128, 16);
  c.associativity = 0;
  EXPECT_THROW(c.validate(), PreconditionError);
}

TEST(Cache, ColdMissThenHitWithinLine) {
  Cache c(dm());
  EXPECT_FALSE(c.access(0x00).hit);
  EXPECT_TRUE(c.access(0x04).hit);
  EXPECT_TRUE(c.access(0x0c).hit);
  EXPECT_FALSE(c.access(0x10).hit);  // next line
}

TEST(Cache, DirectMappedConflict) {
  Cache c(dm(128, 16));  // 8 sets
  EXPECT_FALSE(c.access(0x00).hit);
  EXPECT_FALSE(c.access(0x80).hit);  // same set (0x80 = 8 lines away)
  const AccessResult r = c.access(0x00);
  EXPECT_FALSE(r.hit);  // was evicted
}

TEST(Cache, EvictionReportsVictimLine) {
  Cache c(dm(128, 16));
  c.access(0x00);
  const AccessResult r = c.access(0x80);
  ASSERT_TRUE(r.evicted_line.has_value());
  EXPECT_EQ(*r.evicted_line, 0u);  // line number of address 0
}

TEST(Cache, ColdMissHasNoVictim) {
  Cache c(dm());
  EXPECT_FALSE(c.access(0x00).evicted_line.has_value());
}

TEST(Cache, DifferentSetsDoNotConflict) {
  Cache c(dm(128, 16));
  c.access(0x00);
  c.access(0x10);  // set 1
  EXPECT_TRUE(c.access(0x00).hit);
  EXPECT_TRUE(c.access(0x10).hit);
}

TEST(Cache, TwoWayHoldsBothConflictingLines) {
  CacheConfig cfg = dm(128, 16);
  cfg.associativity = 2;
  Cache c(cfg);
  c.access(0x00);
  c.access(0x80);  // with 4 sets, same set as 0x00? 0x80/16=8, 8%4=0; 0/16=0
  EXPECT_TRUE(c.access(0x00).hit);
  EXPECT_TRUE(c.access(0x80).hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  CacheConfig cfg = dm(64, 16);
  cfg.associativity = 2;  // 2 sets
  Cache c(cfg);
  // set 0 lines: 0x00, 0x40, 0x80 (line numbers 0, 4, 8; 2 sets -> all even
  // lines map to set 0).
  c.access(0x00);
  c.access(0x40);
  c.access(0x00);                    // refresh 0x00
  const auto r = c.access(0x80);     // evicts LRU = 0x40
  ASSERT_TRUE(r.evicted_line.has_value());
  EXPECT_EQ(*r.evicted_line, 4u);
  EXPECT_TRUE(c.access(0x00).hit);
}

TEST(Cache, FifoIgnoresRecency) {
  CacheConfig cfg = dm(64, 16);
  cfg.associativity = 2;
  cfg.policy = ReplacementPolicy::kFifo;
  Cache c(cfg);
  c.access(0x00);
  c.access(0x40);
  c.access(0x00);                    // touch does not refresh FIFO order
  const auto r = c.access(0x80);     // evicts first-in = 0x00
  ASSERT_TRUE(r.evicted_line.has_value());
  EXPECT_EQ(*r.evicted_line, 0u);
}

TEST(Cache, RoundRobinCyclesWays) {
  CacheConfig cfg = dm(64, 16);
  cfg.associativity = 2;
  cfg.policy = ReplacementPolicy::kRoundRobin;
  Cache c(cfg);
  c.access(0x00);
  c.access(0x40);
  const auto r1 = c.access(0x80);
  ASSERT_TRUE(r1.evicted_line.has_value());
  const auto r2 = c.access(0xc0);
  ASSERT_TRUE(r2.evicted_line.has_value());
  EXPECT_NE(*r1.evicted_line, *r2.evicted_line);
}

TEST(Cache, RandomPolicyDeterministicPerSeed) {
  CacheConfig cfg = dm(64, 16);
  cfg.associativity = 2;
  cfg.policy = ReplacementPolicy::kRandom;
  Cache a(cfg, 7), b(cfg, 7);
  for (Addr addr = 0; addr < 0x400; addr += 16) {
    EXPECT_EQ(a.access(addr).hit, b.access(addr).hit);
  }
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(dm());
  c.access(0x00);
  c.flush();
  EXPECT_FALSE(c.access(0x00).hit);
}

TEST(Cache, ContainsIsNonDestructive) {
  Cache c(dm());
  c.access(0x00);
  EXPECT_TRUE(c.contains(0x04));
  EXPECT_FALSE(c.contains(0x80));
  EXPECT_EQ(c.accesses(), 1u);  // contains() did not count
}

TEST(Cache, CountersConsistent) {
  Cache c(dm());
  for (Addr a = 0; a < 0x100; a += 4) c.access(a);
  EXPECT_EQ(c.accesses(), 64u);
  EXPECT_EQ(c.hits() + c.misses(), c.accesses());
  // 16 lines touched, 8 sets -> every line cold-missed at least once.
  EXPECT_GE(c.misses(), 16u);
}

TEST(Cache, SequentialScanMissRateIsPerLine) {
  Cache c(dm(2_KiB, 16));
  const int words = 512;  // 2 KiB worth
  for (int i = 0; i < words; ++i) c.access(static_cast<Addr>(i) * 4);
  EXPECT_EQ(c.misses(), 128u);  // one miss per line
  EXPECT_EQ(c.hits(), static_cast<std::uint64_t>(words) - 128u);
}

/// Random same-line runs through LruTags<A> and through Cache of one
/// geometry: every outcome and every victim agree at every access, and the
/// tag model's derived evictions equal Cache's count. A quarter of the runs
/// revisit the previous line (MRU hits); the rest draw from three times as
/// many lines as the cache holds, so hits at every depth and evictions of
/// every way occur.
template <unsigned A>
void expect_tags_match_cache(ReplacementPolicy policy, unsigned sets,
                             Bytes line) {
  CacheConfig cfg;
  cfg.size = static_cast<Bytes>(sets) * A * line;
  cfg.line_size = line;
  cfg.associativity = A;
  cfg.policy = policy;
  const std::string label = std::string(to_string(policy)) + " ways=" +
                            std::to_string(A) + " sets=" +
                            std::to_string(sets) + " line=" +
                            std::to_string(line);
  LruTags<A> tags(cfg);
  Cache cache(cfg, 7);
  Rng rng(5 + sets + A);
  const auto max_words = static_cast<std::uint32_t>(line / kWordBytes);
  const std::uint64_t lines = 3ull * sets * A;
  std::uint64_t at = 0;
  std::uint64_t misses = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!rng.next_bool(0.25)) at = rng.next_below(lines);
    const auto first = static_cast<std::uint32_t>(rng.next_below(max_words));
    const auto words =
        static_cast<std::uint32_t>(1 + rng.next_below(max_words - first));
    const Addr addr = at * line + first * kWordBytes;
    const AccessResult a = tags.access_line(addr, words);
    const AccessResult b = cache.access_line(addr, words);
    ASSERT_EQ(a.hit, b.hit) << label << " access " << i;
    ASSERT_EQ(a.evicted_line, b.evicted_line) << label << " access " << i;
    misses += a.hit ? 0 : 1;
  }
  EXPECT_EQ(misses, cache.misses()) << label;
  EXPECT_EQ(evictions_after(tags, misses), cache.evictions()) << label;
}

TEST(LruTags, MatchesCacheAtEveryAccess) {
  // One way under every policy and seed (a one-way set has one victim;
  // Random still draws from its RNG); 2, 4 and 8 ways under LRU.
  for (const unsigned sets : {1u, 4u, 32u}) {
    for (const Bytes line : {16u, 32u}) {
      for (const auto policy :
           {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
            ReplacementPolicy::kRoundRobin, ReplacementPolicy::kRandom}) {
        expect_tags_match_cache<1>(policy, sets, line);
      }
      expect_tags_match_cache<2>(ReplacementPolicy::kLru, sets, line);
      expect_tags_match_cache<4>(ReplacementPolicy::kLru, sets, line);
      expect_tags_match_cache<8>(ReplacementPolicy::kLru, sets, line);
    }
  }
}

TEST(LruTags, ValidatesItsGeometry) {
  EXPECT_THROW(LruTags<1>{dm(48, 16)}, PreconditionError);
  CacheConfig two_way = dm(512, 16);
  two_way.associativity = 2;
  EXPECT_THROW(LruTags<1>{two_way}, PreconditionError);
  EXPECT_THROW(LruTags<4>{two_way}, PreconditionError);
  EXPECT_NO_THROW(LruTags<2>{two_way});
  for (const auto policy :
       {ReplacementPolicy::kFifo, ReplacementPolicy::kRoundRobin,
        ReplacementPolicy::kRandom}) {
    two_way.policy = policy;
    EXPECT_THROW(LruTags<2>{two_way}, PreconditionError) << to_string(policy);
  }
}

/// The ways of the model with_line_model hands its replay: A for
/// LruTags<A>, 0 for Cache.
template <class Model>
constexpr unsigned tag_ways = 0;
template <unsigned A>
constexpr unsigned tag_ways<LruTags<A>> = A;

TEST(LruTags, WithLineModelPicksThemForOneWayAndForLruAtTwoFourEightWays) {
  const auto picked = [](unsigned ways, ReplacementPolicy policy) {
    CacheConfig cfg = dm(1_KiB, 16);
    cfg.associativity = ways;
    cfg.policy = policy;
    return with_line_model(cfg, 1, [](auto& model) {
      return tag_ways<std::remove_reference_t<decltype(model)>>;
    });
  };
  for (const unsigned ways : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(picked(ways, ReplacementPolicy::kLru), ways);
  }
  EXPECT_EQ(picked(1, ReplacementPolicy::kRandom), 1u);
  EXPECT_EQ(picked(16, ReplacementPolicy::kLru), 0u);
  EXPECT_EQ(picked(2, ReplacementPolicy::kFifo), 0u);
  EXPECT_EQ(picked(4, ReplacementPolicy::kRoundRobin), 0u);
  EXPECT_EQ(picked(8, ReplacementPolicy::kRandom), 0u);
}

// Parameterized invariants over cache geometries and policies.
using GeometryParam = std::tuple<Bytes, Bytes, unsigned, ReplacementPolicy>;

class CacheGeometryTest : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CacheGeometryTest, WorkingSetSmallerThanCacheNeverConflictMisses) {
  const auto [size, line, assoc, policy] = GetParam();
  CacheConfig cfg;
  cfg.size = size;
  cfg.line_size = line;
  cfg.associativity = assoc;
  cfg.policy = policy;
  Cache c(cfg);
  // Touch exactly the cache's capacity repeatedly: after the cold pass,
  // everything must hit (true for LRU/FIFO/RR on a pure loop; random too
  // since there is no contention — every line maps to a distinct slot).
  for (int pass = 0; pass < 3; ++pass) {
    for (Bytes a = 0; a < size; a += line) c.access(a);
  }
  EXPECT_EQ(c.misses(), size / line);
}

TEST_P(CacheGeometryTest, HitsPlusMissesEqualsAccesses) {
  const auto [size, line, assoc, policy] = GetParam();
  CacheConfig cfg;
  cfg.size = size;
  cfg.line_size = line;
  cfg.associativity = assoc;
  cfg.policy = policy;
  Cache c(cfg, 3);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    c.access(rng.next_below(8 * size));
  }
  EXPECT_EQ(c.hits() + c.misses(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values<Bytes>(128, 1_KiB, 2_KiB),
                       ::testing::Values<Bytes>(16, 32),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(ReplacementPolicy::kLru,
                                         ReplacementPolicy::kFifo,
                                         ReplacementPolicy::kRoundRobin)),
    [](const ::testing::TestParamInfo<GeometryParam>& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_a" +
             std::to_string(std::get<2>(info.param)) + "_" +
             to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace casa::cachesim
