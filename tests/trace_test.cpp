#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "casa/prog/builder.hpp"
#include "casa/trace/executor.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::trace {
namespace {

using prog::FunctionScope;
using prog::Program;
using prog::ProgramBuilder;

Program loop_program(std::int64_t trips) {
  ProgramBuilder b("p");
  b.function("main", [trips](FunctionScope& f) {
    f.code(16, "pre");
    f.loop(trips, [](FunctionScope& l) { l.code(32, "body"); });
    f.code(16, "post");
  });
  return b.build();
}

TEST(Executor, LoopTripCountExact) {
  const Program p = loop_program(5);
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // pre, header, body, latch, post
  EXPECT_EQ(r.profile.count(blocks[0]), 1u);  // pre
  EXPECT_EQ(r.profile.count(blocks[1]), 1u);  // header
  EXPECT_EQ(r.profile.count(blocks[2]), 5u);  // body
  EXPECT_EQ(r.profile.count(blocks[3]), 5u);  // latch
  EXPECT_EQ(r.profile.count(blocks[4]), 1u);  // post
}

TEST(Executor, ZeroTripLoopSkipsBody) {
  const Program p = loop_program(0);
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  EXPECT_EQ(r.profile.count(blocks[2]), 0u);
  EXPECT_EQ(r.profile.count(blocks[1]), 1u);  // header still runs
}

TEST(Executor, FetchCountMatchesBlockSizes) {
  const Program p = loop_program(5);
  const ExecutionResult r = Executor::run(p);
  // pre 4w + header 2w + 5*(body 8w + latch 2w) + post 4w = 60 words
  EXPECT_EQ(r.total_fetches, 4u + 2u + 5u * 10u + 4u);
  EXPECT_EQ(r.total_fetches, r.profile.total_fetches(p));
}

TEST(Executor, WalkMatchesProfile) {
  const Program p = loop_program(7);
  const ExecutionResult r = Executor::run(p);
  std::vector<std::uint64_t> counts(p.block_count(), 0);
  for (const BasicBlockId bb : r.walk.seq) ++counts[bb.index()];
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i],
              r.profile.count(BasicBlockId(static_cast<std::uint32_t>(i))));
  }
}

TEST(Executor, DeterministicAcrossRuns) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(100, [](FunctionScope& l) {
      l.if_then(0.5, [](FunctionScope& t) { t.code(8, "t"); });
      l.code(8, "x");
    });
  });
  const Program p = b.build();
  ExecutorOptions opt;
  opt.seed = 99;
  const ExecutionResult a = Executor::run(p, opt);
  const ExecutionResult bres = Executor::run(p, opt);
  EXPECT_EQ(a.walk.seq, bres.walk.seq);
}

TEST(Executor, SeedChangesBranchOutcomes) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(200, [](FunctionScope& l) {
      l.if_then(0.5, [](FunctionScope& t) { t.code(8, "t"); });
      l.code(8, "x");
    });
  });
  const Program p = b.build();
  ExecutorOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  EXPECT_NE(Executor::run(p, o1).walk.seq, Executor::run(p, o2).walk.seq);
}

TEST(Executor, BranchProbabilityRespected) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(10000, [](FunctionScope& l) {
      l.if_then(0.25, [](FunctionScope& t) { t.code(8, "taken"); });
      l.code(8, "always");
    });
  });
  const Program p = b.build();
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // blocks: header, cond, taken, always, latch
  const double rate =
      static_cast<double>(r.profile.count(blocks[2])) / 10000.0;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(Executor, IfElseArmsPartition) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(5000, [](FunctionScope& l) {
      l.if_else(
          0.6, [](FunctionScope& t) { t.code(8, "t"); },
          [](FunctionScope& e) { e.code(8, "e"); });
    });
  });
  const Program p = b.build();
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // header, cond, then, else, latch
  EXPECT_EQ(r.profile.count(blocks[2]) + r.profile.count(blocks[3]), 5000u);
}

TEST(Executor, VariableTripLoopWithinBounds) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(50, [](FunctionScope& outer) {
      outer.loop_between(2, 6, [](FunctionScope& l) { l.code(8, "x"); });
    });
  });
  const Program p = b.build();
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // outer header, inner header, body, inner latch, outer latch
  const std::uint64_t body = r.profile.count(blocks[2]);
  EXPECT_GE(body, 50u * 2u);
  EXPECT_LE(body, 50u * 6u);
}

TEST(Executor, CallsInlineCalleeWalk) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(10, [](FunctionScope& l) { l.call("helper"); });
  });
  b.function("helper", [](FunctionScope& f) { f.code(16, "h"); });
  const Program p = b.build();
  const ExecutionResult r = Executor::run(p);
  const auto& helper_blocks = p.function(FunctionId(1)).blocks();
  EXPECT_EQ(r.profile.count(helper_blocks[0]), 10u);
}

TEST(Executor, SwitchWeightsRoughlyRespected) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(9000, [](FunctionScope& l) {
      l.switch_of({2.0, 1.0}, {[](FunctionScope& a) { a.code(8, "a0"); },
                               [](FunctionScope& a) { a.code(8, "a1"); }});
    });
  });
  const Program p = b.build();
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // header, selector, arm0, arm1, latch
  const double frac =
      static_cast<double>(r.profile.count(blocks[2])) / 9000.0;
  EXPECT_NEAR(frac, 2.0 / 3.0, 0.03);
}

TEST(Executor, EdgeCountsConsistent) {
  const Program p = loop_program(5);
  const ExecutionResult r = Executor::run(p);
  const auto& blocks = p.function(p.entry()).blocks();
  // body -> latch traversed 5 times, latch -> body 4 times (last latch goes
  // to post).
  EXPECT_EQ(r.profile.edge_count(blocks[2], blocks[3]), 5u);
  EXPECT_EQ(r.profile.edge_count(blocks[3], blocks[2]), 4u);
  EXPECT_EQ(r.profile.edge_count(blocks[3], blocks[4]), 1u);
}

TEST(Executor, MaxBlocksGuard) {
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(1000000, [](FunctionScope& l) { l.code(8, "x"); });
  });
  const Program p = b.build();
  ExecutorOptions opt;
  opt.max_blocks = 1000;
  EXPECT_THROW(Executor::run(p, opt), PreconditionError);
}

TEST(Executor, RecordWalkOffStillProfiles) {
  const Program p = loop_program(5);
  ExecutorOptions opt;
  opt.record_walk = false;
  const ExecutionResult r = Executor::run(p, opt);
  EXPECT_TRUE(r.walk.seq.empty());
  EXPECT_GT(r.total_fetches, 0u);
}

// ---- the repeat schedule ----

/// The schedule's contract: sorted and disjoint, inside the walk, each
/// entry at least three equal copies that skip at least the minimum.
void expect_valid_schedule(const BlockWalk& walk) {
  std::uint64_t prev_end = 0;
  for (const Repeat& r : walk.repeats) {
    ASSERT_GE(r.begin, prev_end) << "repeats overlap or are out of order";
    ASSERT_GE(r.copies, 3u);
    ASSERT_GT(r.period, 0u);
    EXPECT_GE(std::uint64_t{r.copies - 2} * r.period,
              Executor::kMinSkippedBlocks);
    const std::uint64_t end =
        std::uint64_t{r.begin} + std::uint64_t{r.period} * r.copies;
    ASSERT_LE(end, walk.seq.size());
    const auto first = walk.seq.begin() + r.begin;
    for (std::uint32_t c = 1; c < r.copies; ++c) {
      ASSERT_TRUE(std::equal(first, first + r.period,
                             first + std::ptrdiff_t{c} * r.period))
          << "copy " << c << " of the repeat at " << r.begin << " differs";
    }
    prev_end = end;
  }
}

TEST(ExecutorRepeats, EqualIterationsFormOneRepeat) {
  // pre, header, (body, latch) x trips, post.
  const ExecutionResult r = Executor::run(loop_program(20));
  ASSERT_EQ(r.walk.repeats.size(), 1u);
  EXPECT_EQ(r.walk.repeats[0], (Repeat{2, 2, 20}));
  expect_valid_schedule(r.walk);
}

TEST(ExecutorRepeats, ARunMustSkipTheMinimum) {
  // Two blocks an iteration: trips - 2 skipped iterations skip twice that.
  const std::int64_t enough =
      static_cast<std::int64_t>(Executor::kMinSkippedBlocks / 2) + 2;
  EXPECT_EQ(Executor::run(loop_program(enough)).walk.repeats.size(), 1u);
  EXPECT_TRUE(Executor::run(loop_program(enough - 1)).walk.repeats.empty());
  EXPECT_TRUE(Executor::run(loop_program(2)).walk.repeats.empty());
}

/// main: loop(outer) { loop(inner) { body } }. Walk: outer header, then
/// per outer iteration the inner header, (body, inner latch) x inner and
/// the outer latch: 2 * inner + 2 blocks.
Program nested_program(std::int64_t outer, std::int64_t inner) {
  ProgramBuilder b("p");
  b.function("main", [=](FunctionScope& f) {
    f.loop(outer, [=](FunctionScope& o) {
      o.loop(inner, [](FunctionScope& l) { l.code(8, "body"); });
    });
  });
  return b.build();
}

TEST(ExecutorRepeats, AnOuterRunReplacesTheRunsInsideWhenItSkipsMore) {
  // 20 x 20: the outer run skips 18 * 42 = 756 blocks, its 20 inner runs
  // 20 * 18 * 2 = 720, so the outer run stands alone.
  const ExecutionResult a = Executor::run(nested_program(20, 20));
  ASSERT_EQ(a.walk.repeats.size(), 1u);
  EXPECT_EQ(a.walk.repeats[0], (Repeat{1, 42, 20}));
  expect_valid_schedule(a.walk);

  // 10 x 20: the outer run would skip 8 * 42 = 336, the inner runs 360.
  const ExecutionResult b = Executor::run(nested_program(10, 20));
  ASSERT_EQ(b.walk.repeats.size(), 10u);
  for (std::uint32_t k = 0; k < 10; ++k) {
    EXPECT_EQ(b.walk.repeats[k], (Repeat{2 + 42 * k, 2, 20}));
  }
  expect_valid_schedule(b.walk);
}

TEST(ExecutorRepeats, TheIterationThatEndsARunKeepsItsOwnRepeats) {
  // Each outer iteration is one of two arms, each an inner loop of 20 equal
  // iterations: cond, inner header, (body, latch) x 20, outer latch = 43
  // blocks. Long runs of the likelier arm are recorded whole; the iteration
  // that ends such a run was walked before the run closed, and its inner
  // repeat must survive the run's recording.
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(3000, [](FunctionScope& o) {
      o.if_else(
          0.95,
          [](FunctionScope& t) {
            t.loop(20, [](FunctionScope& l) { l.code(8, "x"); });
          },
          [](FunctionScope& e) {
            e.loop(20, [](FunctionScope& l) { l.code(8, "y"); });
          });
    });
  });
  const ExecutionResult r = Executor::run(b.build());
  expect_valid_schedule(r.walk);
  bool outer_run = false;
  for (const Repeat& rep : r.walk.repeats) outer_run |= rep.period == 43;
  EXPECT_TRUE(outer_run);
  // Every inner loop lies inside a repeat: its own, or an outer run's.
  std::vector<bool> covered(r.walk.seq.size(), false);
  for (const Repeat& rep : r.walk.repeats) {
    for (std::uint64_t k = 0; k < std::uint64_t{rep.period} * rep.copies;
         ++k) {
      covered[rep.begin + k] = true;
    }
  }
  for (std::size_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(covered[1 + 43 * i + 2]) << "outer iteration " << i;
  }
}

TEST(ExecutorRepeats, UnequalIterationsSplitRuns) {
  // A coin flip per iteration: runs of equal arms form and break.
  ProgramBuilder b("p");
  b.function("main", [](FunctionScope& f) {
    f.loop(4000, [](FunctionScope& l) {
      l.if_else(0.9, [](FunctionScope& t) { t.code(8, "t"); },
                [](FunctionScope& e) { e.code(8, "e"); });
    });
  });
  const ExecutionResult r = Executor::run(b.build());
  EXPECT_GT(r.walk.repeats.size(), 10u);
  expect_valid_schedule(r.walk);
}

TEST(ExecutorRepeats, RecordWalkOffRecordsNoSchedule) {
  ExecutorOptions opt;
  opt.record_walk = false;
  EXPECT_TRUE(Executor::run(loop_program(50), opt).walk.repeats.empty());
}

TEST(ExecutorRepeats, EveryWorkloadAndSeedKeepsTheContract) {
  for (const std::string& name : workloads::names()) {
    const Program p = workloads::by_name(name);
    for (const std::uint64_t seed : {1ull, 42ull, 2026ull}) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      ExecutorOptions opt;
      opt.seed = seed;
      const ExecutionResult r = Executor::run(p, opt);
      EXPECT_FALSE(r.walk.repeats.empty());
      expect_valid_schedule(r.walk);
    }
  }
}

}  // namespace
}  // namespace casa::trace
