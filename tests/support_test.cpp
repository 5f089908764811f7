#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <unordered_set>

#include "casa/support/error.hpp"
#include "casa/support/ids.hpp"
#include "casa/support/interval_map.hpp"
#include "casa/support/rng.hpp"
#include "casa/support/table.hpp"
#include "casa/support/thread_pool.hpp"
#include "casa/support/units.hpp"

namespace casa {
namespace {

// ------------------------------------------------------------------ Rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedRemapped) {
  Rng a(0);
  EXPECT_NE(a.next_u64(), 0u);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(10), 10u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng r(1);
  EXPECT_THROW(r.next_below(0), PreconditionError);
}

TEST(Rng, NextUnitInHalfOpenInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, NextInSingleton) {
  Rng r(9);
  EXPECT_EQ(r.next_in(5, 5), 5);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(42);
  Rng fork1 = a.fork();
  Rng b(42);
  Rng fork2 = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
  }
}

// ------------------------------------------------------------------ Ids ---

TEST(Ids, InvalidByDefault) {
  BasicBlockId id;
  EXPECT_FALSE(id.valid());
}

TEST(Ids, ValueRoundTrip) {
  MemoryObjectId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, Comparable) {
  EXPECT_LT(VarId(1), VarId(2));
  EXPECT_EQ(VarId(3), VarId(3));
}

TEST(Ids, Hashable) {
  std::unordered_set<FunctionId> s;
  s.insert(FunctionId(1));
  s.insert(FunctionId(1));
  s.insert(FunctionId(2));
  EXPECT_EQ(s.size(), 2u);
}

// ---------------------------------------------------------- IntervalMap ---

TEST(IntervalMap, FindsContainingRange) {
  IntervalMap<int> m;
  m.insert(10, 20, 1);
  m.insert(30, 40, 2);
  EXPECT_EQ(m.find(10), 1);
  EXPECT_EQ(m.find(19), 1);
  EXPECT_EQ(m.find(35), 2);
}

TEST(IntervalMap, HalfOpenSemantics) {
  IntervalMap<int> m;
  m.insert(10, 20, 1);
  EXPECT_FALSE(m.find(20).has_value());
  EXPECT_FALSE(m.find(9).has_value());
}

TEST(IntervalMap, AdjacentRangesAllowed) {
  IntervalMap<int> m;
  m.insert(10, 20, 1);
  m.insert(20, 30, 2);
  EXPECT_EQ(m.find(19), 1);
  EXPECT_EQ(m.find(20), 2);
}

TEST(IntervalMap, RejectsOverlap) {
  IntervalMap<int> m;
  m.insert(10, 20, 1);
  EXPECT_THROW(m.insert(15, 25, 2), PreconditionError);
  EXPECT_THROW(m.insert(5, 11, 2), PreconditionError);
  EXPECT_THROW(m.insert(12, 18, 2), PreconditionError);
}

TEST(IntervalMap, RejectsEmptyRange) {
  IntervalMap<int> m;
  EXPECT_THROW(m.insert(10, 10, 1), PreconditionError);
}

TEST(IntervalMap, OutOfOrderInsertion) {
  IntervalMap<int> m;
  m.insert(30, 40, 2);
  m.insert(10, 20, 1);
  m.insert(40, 50, 3);
  EXPECT_EQ(m.find(15), 1);
  EXPECT_EQ(m.find(45), 3);
  EXPECT_EQ(m.size(), 3u);
}

// ---------------------------------------------------------------- Table ---

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, FixedPrecisionDoubles) {
  Table t({"x"});
  t.row().cell(3.14159, 2);
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("one");
  EXPECT_THROW(t.cell("two"), PreconditionError);
}

TEST(Table, RejectsCellWithoutRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(Table, PercentHelper) {
  EXPECT_EQ(percent_of(50.0, 200.0), "25.0%");
  EXPECT_EQ(percent_of(1.0, 0.0), "n/a");
}

// ---------------------------------------------------------------- Units ---

TEST(Units, Literals) {
  EXPECT_EQ(2_KiB, 2048u);
  EXPECT_EQ(16_B, 16u);
}

TEST(Units, AlignUp) {
  EXPECT_EQ(align_up(0, 16), 0u);
  EXPECT_EQ(align_up(1, 16), 16u);
  EXPECT_EQ(align_up(16, 16), 16u);
  EXPECT_EQ(align_up(17, 16), 32u);
}

TEST(Units, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Units, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(16), 4u);
  EXPECT_EQ(log2_pow2(2048), 11u);
}

TEST(Units, MicroJoules) {
  EXPECT_DOUBLE_EQ(to_micro_joules(1500.0), 1.5);
}

// ---------------------------------------------------------------- Error ---

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    CASA_CHECK(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckMacroPassesSilently) {
  EXPECT_NO_THROW(CASA_CHECK(true, "never"));
}

// ----------------------------------------------------------- ThreadPool ---

/// Threads of this process right now (Linux /proc; 0 where it is absent).
std::size_t live_threads() {
  std::size_t n = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(ThreadPool, RefusesCountsAboveTheCapBeforeSpawning) {
  using support::ThreadPool;
  EXPECT_EQ(ThreadPool::resolve(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
  try {
    (void)ThreadPool::resolve(ThreadPool::kMaxThreads + 1);
    FAIL() << "count above the cap accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(ThreadPool::kMaxThreads + 1)),
              std::string::npos)
        << e.what();
  }
  // The constructor resolves before it spawns: it throws with no worker
  // started (a started one would still be joinable and abort the process).
  const std::size_t before = live_threads();
  EXPECT_THROW(ThreadPool pool(ThreadPool::kMaxThreads + 1),
               PreconditionError);
  EXPECT_EQ(live_threads(), before);
}

}  // namespace
}  // namespace casa
