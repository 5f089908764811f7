#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>

#include "casa/baseline/steinke.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/core/formulation.hpp"
#include "casa/ilp/branch_bound.hpp"
#include "casa/ilp/model.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/rng.hpp"

namespace casa::ilp {
namespace {

/// Brute force over all binary assignments (for small var counts).
double brute_force_knapsack(const std::vector<double>& profit,
                            const std::vector<double>& weight, double cap) {
  const std::size_t n = profit.size();
  double best = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    double p = 0, w = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) {
        p += profit[j];
        w += weight[j];
      }
    }
    if (w <= cap) best = std::max(best, p);
  }
  return best;
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  const VarId x = m.add_continuous("x", 0, 4);
  m.set_objective(Sense::kMaximize, LinExpr().add(x, 2.0));
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-7);
}

TEST(BranchAndBound, IntegralityEnforced) {
  // LP relaxation puts x at 0.5; ILP must pick 0 or 1.
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint("c", LinExpr().add(x, 2.0), Rel::kLessEq, 1.0);
  m.set_objective(Sense::kMaximize, LinExpr().add(x, 1.0));
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 0.0, 1e-9);
}

TEST(BranchAndBound, SmallKnapsackExact) {
  // Classic: weights 2,3,4,5 values 3,4,5,6 cap 5 -> best = 7 (2+3).
  Model m;
  std::vector<VarId> x;
  const double w[] = {2, 3, 4, 5}, v[] = {3, 4, 5, 6};
  LinExpr cap, obj;
  for (int j = 0; j < 4; ++j) {
    x.push_back(m.add_binary("x" + std::to_string(j)));
    cap.add(x[j], w[j]);
    obj.add(x[j], v[j]);
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 5);
  m.set_objective(Sense::kMaximize, std::move(obj));
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
  EXPECT_TRUE(s.value_as_bool(x[0]));
  EXPECT_TRUE(s.value_as_bool(x[1]));
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint("c1", LinExpr().add(x, 1).add(y, 1), Rel::kGreaterEq, 2);
  m.add_constraint("c2", LinExpr().add(x, 1).add(y, 1), Rel::kLessEq, 1);
  m.set_objective(Sense::kMinimize, LinExpr().add(x, 1));
  EXPECT_EQ(BranchAndBound().solve(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, MinimizationWithCover) {
  // min x+y+z s.t. pairwise covers -> vertex cover of a triangle = 2.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  const VarId z = m.add_binary("z");
  m.add_constraint("xy", LinExpr().add(x, 1).add(y, 1), Rel::kGreaterEq, 1);
  m.add_constraint("yz", LinExpr().add(y, 1).add(z, 1), Rel::kGreaterEq, 1);
  m.add_constraint("xz", LinExpr().add(x, 1).add(z, 1), Rel::kGreaterEq, 1);
  m.set_objective(Sense::kMinimize,
                  LinExpr().add(x, 1).add(y, 1).add(z, 1));
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // Binary gate y opens capacity for continuous x: max x s.t. x <= 3y.
  Model m;
  const VarId x = m.add_continuous("x", 0, 10);
  const VarId y = m.add_binary("y");
  m.add_constraint("gate", LinExpr().add(x, 1).add(y, -3), Rel::kLessEq, 0);
  m.set_objective(Sense::kMaximize, LinExpr().add(x, 1).add(y, -0.5));
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.5, 1e-7);
  EXPECT_TRUE(s.value_as_bool(y));
}

TEST(BranchAndBound, NodeLimitReturnsLimitStatus) {
  Model m;
  Rng rng(5);
  LinExpr cap, obj;
  std::vector<VarId> x;
  for (int j = 0; j < 18; ++j) {
    x.push_back(m.add_binary("x" + std::to_string(j)));
    cap.add(x[j], 3.0 + rng.next_unit());
    obj.add(x[j], 1.0 + rng.next_unit());
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 30);
  m.set_objective(Sense::kMaximize, std::move(obj));
  BranchAndBoundOptions opt;
  opt.max_nodes = 2;
  const Solution s = BranchAndBound(opt).solve(m);
  EXPECT_NE(s.status, SolveStatus::kOptimal);
}

TEST(BranchAndBound, BranchPriorityStillExact) {
  Model m;
  std::vector<VarId> x;
  const double w[] = {2, 3, 4, 5}, v[] = {3, 4, 5, 6};
  LinExpr cap, obj;
  for (int j = 0; j < 4; ++j) {
    x.push_back(m.add_binary("x" + std::to_string(j)));
    cap.add(x[j], w[j]);
    obj.add(x[j], v[j]);
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 7);
  m.set_objective(Sense::kMaximize, std::move(obj));
  BranchAndBoundOptions opt;
  opt.branch_priority = {0, 3, 1, 2};
  const Solution s = BranchAndBound(opt).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-7);  // items 2+5 -> 3+6
}

/// Random knapsacks cross-checked against brute force.
class RandomMipTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const int n = 10;
  std::vector<double> profit(n), weight(n);
  Model m;
  std::vector<VarId> x;
  LinExpr cap, obj;
  for (int j = 0; j < n; ++j) {
    profit[j] = 1.0 + rng.next_unit() * 9.0;
    weight[j] = 1.0 + rng.next_unit() * 9.0;
    x.push_back(m.add_binary("x" + std::to_string(j)));
    cap.add(x[j], weight[j]);
    obj.add(x[j], profit[j]);
  }
  const double capacity = 15.0 + rng.next_unit() * 10.0;
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, capacity);
  m.set_objective(Sense::kMaximize, std::move(obj));

  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, brute_force_knapsack(profit, weight, capacity),
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipTest, ::testing::Range(0, 15));

// ---------------------------------------------------------------------------
// Truncation status contract: a cut-off search reports kLimit, never a
// (false) completeness claim. See docs/solver.md.
// ---------------------------------------------------------------------------

/// Feasible knapsack whose root LP rounds to an infeasible point, so the
/// rounded-root warm candidate cannot seed an incumbent: eight items of
/// weight 2 under capacity 9.2 leave the fractional item at 0.6, which
/// rounds up and overflows the capacity row.
Model rounding_trap() {
  Model m;
  LinExpr cap, obj;
  for (int j = 0; j < 8; ++j) {
    cap.add(m.add_binary("x" + std::to_string(j)), 2.0);
    obj.add(VarId(static_cast<std::uint32_t>(j)), 1.0);
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 9.2);
  m.set_objective(Sense::kMaximize, std::move(obj));
  return m;
}

TEST(BranchAndBoundTruncation, NoIncumbentReturnsLimitWithEmptySolution) {
  const Model m = rounding_trap();
  for (const std::uint64_t budget : {1u, 2u, 3u}) {
    for (const bool warm : {false, true}) {
      BranchAndBoundOptions opt;
      opt.max_nodes = budget;
      opt.warm_start = warm;
      const Solution s = BranchAndBound(opt).solve(m);
      // The instance is feasible, so kInfeasible would be a lie; the budget
      // is too small to finish, so kOptimal would be one too.
      EXPECT_EQ(s.status, SolveStatus::kLimit)
          << "budget=" << budget << " warm=" << warm;
      EXPECT_TRUE(s.values.empty());
    }
  }
}

TEST(BranchAndBoundTruncation, SameInstanceSolvesWithRealBudget) {
  const Model m = rounding_trap();
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);  // four items of weight 2 fit in 9.2
}

TEST(BranchAndBoundTruncation, WarmHintSurvivesTruncationAsIncumbent) {
  const Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.max_nodes = 1;
  opt.warm_hint.assign(m.var_count(), 0.0);  // all-out: feasible, profit 0
  const Solution s = BranchAndBound(opt).solve(m);
  EXPECT_EQ(s.status, SolveStatus::kLimit);
  ASSERT_EQ(s.values.size(), m.var_count());
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(BranchAndBoundTruncation, RootLpIterationLimitPropagatesAsLimit) {
  const Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.warm_start = false;
  opt.lp.max_iters = 1;      // root LP cannot finish...
  opt.lp_retry_factor = 1.0; // ...and the retry budget is no bigger
  const Solution s = BranchAndBound(opt).solve(m);
  EXPECT_EQ(s.status, SolveStatus::kLimit);
  EXPECT_TRUE(s.values.empty());
}

TEST(BranchAndBoundTruncation, LpIterationLimitRetriedWithRaisedBudget) {
  // A >= system needs phase-1 pivots, so one iteration is never enough; the
  // 1000x retry budget is. The search must stay exact and count retries.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  const VarId z = m.add_binary("z");
  m.add_constraint("xy", LinExpr().add(x, 1).add(y, 1), Rel::kGreaterEq, 1);
  m.add_constraint("yz", LinExpr().add(y, 1).add(z, 1), Rel::kGreaterEq, 1);
  m.add_constraint("xz", LinExpr().add(x, 1).add(z, 1), Rel::kGreaterEq, 1);
  m.set_objective(Sense::kMinimize, LinExpr().add(x, 1).add(y, 1).add(z, 1));
  BranchAndBoundOptions opt;
  opt.lp.max_iters = 1;
  opt.lp_retry_factor = 1000.0;
  BranchAndBound solver(opt);
  const Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
  EXPECT_GE(solver.last_stats().lp_limit_retries, 1u);
}

// ---------------------------------------------------------------------------
// Warm start and reduced-cost fixing.
// ---------------------------------------------------------------------------

TEST(BranchAndBoundWarmStart, ValidHintSeedsIncumbent) {
  Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.warm_hint = {1, 1, 1, 1, 0, 0, 0, 0};  // four items: feasible, optimal
  BranchAndBound solver(opt);
  const Solution s = solver.solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
  EXPECT_TRUE(solver.last_stats().warm_start_used);
  EXPECT_GE(solver.last_stats().root_gap, 0.0);
}

TEST(BranchAndBoundWarmStart, InfeasibleHintIsIgnored) {
  Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.warm_hint.assign(m.var_count(), 1.0);  // violates the capacity row
  const Solution s = BranchAndBound(opt).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(BranchAndBoundWarmStart, WrongSizeHintIsIgnored) {
  Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.warm_hint = {1.0};
  const Solution s = BranchAndBound(opt).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

/// Every option combination must agree with brute force — warm start,
/// presolve, reduced-cost fixing and the parallel fan-out change the search
/// path, never the answer.
class SolverConfigSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverConfigSweepTest, AllConfigsMatchBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  const int n = 12;
  std::vector<double> profit(n), weight(n);
  Model m;
  LinExpr cap, obj;
  for (int j = 0; j < n; ++j) {
    profit[j] = 1.0 + rng.next_unit() * 9.0;
    weight[j] = 1.0 + rng.next_unit() * 9.0;
    const VarId x = m.add_binary("x" + std::to_string(j));
    cap.add(x, weight[j]);
    obj.add(x, profit[j]);
  }
  const double capacity = 18.0 + rng.next_unit() * 12.0;
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, capacity);
  m.set_objective(Sense::kMaximize, std::move(obj));
  const double expect = brute_force_knapsack(profit, weight, capacity);

  struct Config {
    const char* name;
    bool warm, presolve;
    unsigned threads, depth;
  };
  const Config configs[] = {
      {"default", true, true, 1, 0},
      {"cold", false, true, 1, 0},
      {"no-presolve", true, false, 1, 0},
      {"bare", false, false, 1, 0},
      {"fanned", true, true, 1, 3},
      {"parallel", true, true, 4, 3},
  };
  for (const Config& c : configs) {
    BranchAndBoundOptions opt;
    opt.warm_start = c.warm;
    opt.presolve = c.presolve;
    opt.threads = c.threads;
    opt.subtree_depth = c.depth;
    const Solution s = BranchAndBound(opt).solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << c.name;
    EXPECT_NEAR(s.objective, expect, 1e-6) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConfigSweepTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Parallel determinism: thread count never changes anything observable when
// the fan-out depth is pinned; only subtree_depth shapes the search.
// ---------------------------------------------------------------------------

TEST(BranchAndBoundParallel, ThreadCountInvariantSolutionsAndStats) {
  Rng rng(99);
  Model m;
  LinExpr cap, cap2, obj;
  for (int j = 0; j < 16; ++j) {
    const VarId x = m.add_binary("x" + std::to_string(j));
    cap.add(x, 2.0 + rng.next_unit() * 6.0);
    cap2.add(x, 1.0 + rng.next_unit() * 4.0);
    obj.add(x, 1.0 + rng.next_unit() * 9.0);
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 25.0);
  m.add_constraint("cap2", std::move(cap2), Rel::kLessEq, 15.0);
  m.set_objective(Sense::kMaximize, std::move(obj));

  std::vector<Solution> sols;
  std::vector<SolveStats> stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BranchAndBoundOptions opt;
    opt.threads = threads;
    opt.subtree_depth = 3;
    BranchAndBound solver(opt);
    sols.push_back(solver.solve(m));
    stats.push_back(solver.last_stats());
    ASSERT_EQ(sols.back().status, SolveStatus::kOptimal);
  }
  for (std::size_t i = 1; i < sols.size(); ++i) {
    EXPECT_EQ(sols[i].values, sols[0].values);  // bit-identical
    EXPECT_EQ(sols[i].objective, sols[0].objective);
    EXPECT_EQ(stats[i].nodes, stats[0].nodes);
    EXPECT_EQ(stats[i].max_depth, stats[0].max_depth);
    EXPECT_EQ(stats[i].incumbent_updates, stats[0].incumbent_updates);
    EXPECT_EQ(stats[i].bound_prunes, stats[0].bound_prunes);
    EXPECT_EQ(stats[i].infeasible_prunes, stats[0].infeasible_prunes);
    EXPECT_EQ(stats[i].simplex_iterations, stats[0].simplex_iterations);
    EXPECT_EQ(stats[i].subtrees, stats[0].subtrees);
    EXPECT_EQ(stats[i].rc_fixed, stats[0].rc_fixed);
  }
  EXPECT_EQ(stats[0].subtrees, 8u);
}

TEST(BranchAndBoundParallel, DerivedDepthKeepsObjectiveAcrossThreadCounts) {
  // With subtree_depth left at 0 the fan-out follows the thread count, so
  // counters may differ — but the optimum must not.
  Model m = rounding_trap();
  double first = 0.0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BranchAndBoundOptions opt;
    opt.threads = threads;
    const Solution s = BranchAndBound(opt).solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    if (threads == 1u) {
      first = s.objective;
    } else {
      EXPECT_EQ(s.objective, first);
    }
  }
}

TEST(BranchAndBoundParallel, EmitsSubtreeTraceEventsWhenTracerAttached) {
  // Same instance as ThreadCountInvariantSolutionsAndStats: its fan-out is
  // pinned at 2^3 = 8 subtrees there, so the trace must show exactly one
  // span + one flow pair per subtree, and every search milestone the stats
  // report must have a matching timeline event.
  Rng rng(99);
  Model m;
  LinExpr cap, cap2, obj;
  for (int j = 0; j < 16; ++j) {
    const VarId x = m.add_binary("x" + std::to_string(j));
    cap.add(x, 2.0 + rng.next_unit() * 6.0);
    cap2.add(x, 1.0 + rng.next_unit() * 4.0);
    obj.add(x, 1.0 + rng.next_unit() * 9.0);
  }
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 25.0);
  m.add_constraint("cap2", std::move(cap2), Rel::kLessEq, 15.0);
  m.set_objective(Sense::kMaximize, std::move(obj));

  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  BranchAndBoundOptions opt;
  opt.threads = 2;
  opt.subtree_depth = 3;
  BranchAndBound solver(opt);
  const Solution s = solver.solve(m);
  obs::Tracer::set_current(nullptr);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  const SolveStats stats = solver.last_stats();
  ASSERT_EQ(stats.subtrees, 8u);

  const obs::TraceData data = tracer.drain();
  std::uint64_t begins = 0, ends = 0, tails = 0, heads = 0, incumbents = 0,
                presolves = 0, warms = 0, rc_fixes = 0;
  for (const obs::TraceEvent& e : data.events) {
    if (e.name == "ilp.subtree") {
      if (e.kind == obs::TraceEventKind::kBegin) ++begins;
      if (e.kind == obs::TraceEventKind::kEnd) ++ends;
      if (e.kind == obs::TraceEventKind::kFlowBegin) ++tails;
      if (e.kind == obs::TraceEventKind::kFlowEnd) ++heads;
    }
    if (e.kind == obs::TraceEventKind::kInstant) {
      if (e.name == "ilp.incumbent") ++incumbents;
      if (e.name == "ilp.presolve") ++presolves;
      if (e.name == "ilp.warm_start") ++warms;
      if (e.name == "ilp.rc_fixed") ++rc_fixes;
    }
  }
  EXPECT_EQ(begins, stats.subtrees);
  EXPECT_EQ(ends, stats.subtrees);
  EXPECT_EQ(tails, stats.subtrees);
  EXPECT_EQ(heads, stats.subtrees);
  EXPECT_EQ(incumbents, stats.incumbent_updates);
  EXPECT_EQ(presolves, 1u);  // presolve is on by default
  EXPECT_EQ(warms, stats.warm_start_used ? 1u : 0u);
  if (stats.warm_start_used) {
    EXPECT_EQ(rc_fixes, 1u);
  }
}

TEST(BranchAndBoundParallel, EveryWorkerGetsANamedTrack) {
  // Two subtrees on eight workers: at least six workers draw no subtree
  // and record nothing, yet each must leave its named track, so a trace
  // shows every worker whatever the schedule.
  Model m = rounding_trap();
  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  BranchAndBoundOptions opt;
  opt.threads = 8;
  opt.subtree_depth = 1;
  const Solution s = BranchAndBound(opt).solve(m);
  obs::Tracer::set_current(nullptr);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  std::set<std::string> workers;
  for (const obs::TraceTrack& track : tracer.drain().tracks) {
    if (track.label.rfind("ilp-", 0) == 0) workers.insert(track.label);
  }
  EXPECT_EQ(workers.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(workers.count("ilp-" + std::to_string(i))) << i;
  }
}

TEST(BranchAndBoundParallel, SerialSolveLeavesNoSubtreeSpans) {
  // subtree_depth 0 keeps the search in the root subtree: no fan-out, so
  // no ilp.subtree spans and no flows — the trace stays lean by default.
  Model m = rounding_trap();
  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  BranchAndBoundOptions opt;
  opt.threads = 1;
  opt.subtree_depth = 0;
  const Solution s = BranchAndBound(opt).solve(m);
  obs::Tracer::set_current(nullptr);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  for (const obs::TraceEvent& e : tracer.drain().events) {
    EXPECT_NE(e.name, "ilp.subtree");
    EXPECT_NE(e.kind, obs::TraceEventKind::kFlowBegin);
  }
}

TEST(BranchAndBoundParallel, TruncatedParallelSearchReportsLimit) {
  Model m = rounding_trap();
  BranchAndBoundOptions opt;
  opt.threads = 4;
  opt.subtree_depth = 2;
  opt.max_nodes = 4;  // one node per subtree: nobody can finish
  opt.warm_start = false;
  const Solution s = BranchAndBound(opt).solve(m);
  EXPECT_EQ(s.status, SolveStatus::kLimit);
}

// ---------------------------------------------------------------------------
// Objective cutoff: a caller's feasible point shortens the search but never
// chooses the answer. The cut search must return the uncut search's solution
// bit for bit, keep every root-level statistic, and explore no more nodes
// (docs/solver.md, "Objective cutoff").
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

struct CutoffRun {
  Solution cut;  ///< the solve with the extra prune source
  SolveStats uncut_stats;
  SolveStats cut_stats;
};

/// Solves `m` under `uncut` and under `cut`, the same options plus a prune
/// source, and expects the same solution and root statistics, and no more
/// nodes, from the second.
CutoffRun expect_same_solution(const Model& m,
                               const BranchAndBoundOptions& uncut,
                               const BranchAndBoundOptions& cut) {
  const BranchAndBound a_solver(uncut);
  const Solution a = a_solver.solve(m);
  const BranchAndBound b_solver(cut);
  const Solution b = b_solver.solve(m);

  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.objective),
            std::bit_cast<std::uint64_t>(a.objective));
  EXPECT_EQ(bits_of(b.values), bits_of(a.values));
  const SolveStats& sa = a_solver.last_stats();
  const SolveStats& sb = b_solver.last_stats();
  EXPECT_EQ(sb.presolve_fixed, sa.presolve_fixed);
  EXPECT_EQ(sb.rc_fixed, sa.rc_fixed);
  EXPECT_EQ(sb.warm_start_used, sa.warm_start_used);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sb.root_gap),
            std::bit_cast<std::uint64_t>(sa.root_gap));
  EXPECT_EQ(sb.subtrees, sa.subtrees);
  EXPECT_LE(sb.nodes, sa.nodes);
  return {b, sa, sb};
}

/// The same check for the cutoff: `opt` without and with `cutoff`.
CutoffRun expect_cutoff_keeps_solution(const Model& m,
                                       BranchAndBoundOptions opt,
                                       const std::vector<double>& cutoff) {
  BranchAndBoundOptions cut = opt;
  opt.cutoff_point.clear();
  cut.cutoff_point = cutoff;
  return expect_same_solution(m, opt, cut);
}

/// Random CASA savings problem. With `ties`, the first items are duplicated
/// (same value and weight, edges copied to the duplicate) and every edge is
/// doubled, so the instance has several optimal masks and degenerate LPs.
core::SavingsProblem random_savings(std::uint64_t seed, bool ties) {
  Rng rng(seed);
  core::SavingsProblem sp;
  const std::size_t base = 8;
  for (std::size_t k = 0; k < base; ++k) {
    sp.value.push_back(rng.next_unit() * 50.0);
    sp.weight.push_back(4 * (1 + rng.next_below(16)));
  }
  for (std::size_t e = 0; e < 9; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(base));
    auto b = static_cast<std::uint32_t>(rng.next_below(base));
    if (b == a) b = static_cast<std::uint32_t>((b + 1) % base);
    sp.edges.push_back({std::min(a, b), std::max(a, b),
                        rng.next_unit() * 120.0});
  }
  if (ties) {
    const std::size_t original_edges = sp.edges.size();
    for (std::uint32_t src = 0; src < 2; ++src) {
      const auto dup = static_cast<std::uint32_t>(sp.value.size());
      sp.value.push_back(sp.value[src]);
      sp.weight.push_back(sp.weight[src]);
      for (std::size_t e = 0; e < original_edges; ++e) {
        const core::SavingsProblem::Edge edge = sp.edges[e];
        if (edge.a == src || edge.b == src) {
          const std::uint32_t other = edge.a == src ? edge.b : edge.a;
          sp.edges.push_back({other, dup, edge.weight});
        }
      }
    }
    const std::size_t n = sp.edges.size();
    for (std::size_t e = 0; e < n; ++e) sp.edges.push_back(sp.edges[e]);
  }
  sp.capacity = 48 + 4 * rng.next_below(24);
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    sp.object_of.push_back(MemoryObjectId(static_cast<std::uint32_t>(k)));
    sp.all_cached_energy += sp.value[k] * 2.0;
  }
  for (const auto& e : sp.edges) sp.all_cached_energy += e.weight;
  return sp;
}

/// The allocator's generic-engine options: knapsack warm hint, location
/// variables branched first, fan-out pinned at depth 3.
BranchAndBoundOptions allocator_options(const core::CasaModel& cm,
                                        const core::SavingsProblem& sp,
                                        bool warm, unsigned threads) {
  BranchAndBoundOptions opt;
  opt.threads = threads;
  opt.subtree_depth = 3;
  opt.warm_start = warm;
  if (warm) {
    opt.warm_hint = core::warm_assignment(
        cm, sp, baseline::knapsack_seed(sp.weight, sp.value, sp.capacity));
  }
  opt.branch_priority.assign(cm.model.var_count(), 0);
  for (const VarId l : cm.l_vars) opt.branch_priority[l.index()] = 1;
  return opt;
}

TEST(BranchAndBoundCutoff, SavingsProblemsKeepTheUncutSolution) {
  std::uint64_t uncut_nodes = 0, cut_nodes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool ties : {false, true}) {
      const core::SavingsProblem sp = random_savings(seed * 977, ties);
      const core::CasaBranchBoundResult best = core::CasaBranchBound().solve(sp);
      ASSERT_TRUE(best.exact);
      for (const core::Linearization lin :
           {core::Linearization::kTight, core::Linearization::kPaper}) {
        const core::CasaModel cm = core::build_casa_model(sp, lin);
        const std::vector<double> cutoff =
            core::warm_assignment(cm, sp, best.chosen);
        for (const bool warm : {true, false}) {
          for (const unsigned threads : {1u, 8u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " ties " +
                         std::to_string(ties) + " paper " +
                         std::to_string(lin == core::Linearization::kPaper) +
                         " warm " + std::to_string(warm) + " threads " +
                         std::to_string(threads));
            const CutoffRun run = expect_cutoff_keeps_solution(
                cm.model, allocator_options(cm, sp, warm, threads), cutoff);
            uncut_nodes += run.uncut_stats.nodes;
            cut_nodes += run.cut_stats.nodes;
            // Exactness: the cut search's optimum is the specialized one.
            ASSERT_EQ(run.cut.status, SolveStatus::kOptimal);
            EXPECT_NEAR(cm.objective_offset + run.cut.objective,
                        sp.all_cached_energy - best.saving, 1e-6);
          }
        }
      }
    }
  }
  // The cutoff must actually prune, or the comparisons above prove nothing.
  EXPECT_LT(cut_nodes, uncut_nodes);
}

TEST(BranchAndBoundCutoff, MaximizeMipKeepsTheUncutSolution) {
  // Two knapsack rows over 14 binaries plus a continuous bonus capped by
  // the first row's slack, maximized: the cutoff key must be the negated
  // objective, exactly like the incumbent key.
  Rng rng(4242);
  Model m;
  LinExpr cap, cap2, obj;
  std::vector<double> w, w2;
  for (int j = 0; j < 14; ++j) {
    const VarId x = m.add_binary("x" + std::to_string(j));
    w.push_back(2.0 + rng.next_unit() * 6.0);
    w2.push_back(1.0 + rng.next_unit() * 4.0);
    cap.add(x, w.back());
    cap2.add(x, w2.back());
    obj.add(x, 1.0 + rng.next_unit() * 9.0);
  }
  const VarId y = m.add_continuous("y", 0.0, 3.0);
  cap.add(y, 1.0);
  obj.add(y, 0.5);
  m.add_constraint("cap", std::move(cap), Rel::kLessEq, 24.0);
  m.add_constraint("cap2", std::move(cap2), Rel::kLessEq, 14.0);
  m.set_objective(Sense::kMaximize, std::move(obj));

  // Cutoffs: the optimum itself (the tightest possible), and a first-fit
  // selection in index order (feasible, but not optimal).
  BranchAndBoundOptions base;
  base.subtree_depth = 3;
  const Solution opt_sol = BranchAndBound(base).solve(m);
  ASSERT_EQ(opt_sol.status, SolveStatus::kOptimal);
  std::vector<double> greedy(m.var_count(), 0.0);
  double used = 0.0, used2 = 0.0;
  for (int j = 0; j < 14; ++j) {
    if (used + w[j] <= 24.0 && used2 + w2[j] <= 14.0) {
      greedy[j] = 1.0;
      used += w[j];
      used2 += w2[j];
    }
  }

  const std::pair<const char*, std::vector<double>> cutoffs[] = {
      {"optimum", opt_sol.values}, {"greedy", greedy}};
  std::uint64_t uncut_nodes = 0, cut_nodes = 0;
  for (const auto& [name, cutoff] : cutoffs) {
    for (const bool warm : {true, false}) {
      for (const unsigned threads : {1u, 8u}) {
        SCOPED_TRACE(std::string(name) + " warm " + std::to_string(warm) +
                     " threads " + std::to_string(threads));
        BranchAndBoundOptions opt = base;
        opt.warm_start = warm;
        opt.threads = threads;
        const CutoffRun run = expect_cutoff_keeps_solution(m, opt, cutoff);
        uncut_nodes += run.uncut_stats.nodes;
        cut_nodes += run.cut_stats.nodes;
      }
    }
  }
  EXPECT_LT(cut_nodes, uncut_nodes);
}

TEST(BranchAndBoundCutoff, OverCapacityPointIsIgnored) {
  // Placing every item overflows the scratchpad, so the lifted point
  // violates the capacity row: the solver must ignore it and run the uncut
  // search, node for node, to the same exact optimum.
  const core::SavingsProblem sp = random_savings(31337, true);
  Bytes total = 0;
  for (const Bytes w : sp.weight) total += w;
  ASSERT_GT(total, sp.capacity);
  const core::CasaBranchBoundResult best = core::CasaBranchBound().solve(sp);
  for (const core::Linearization lin :
       {core::Linearization::kTight, core::Linearization::kPaper}) {
    const core::CasaModel cm = core::build_casa_model(sp, lin);
    const std::vector<double> overfull = core::warm_assignment(
        cm, sp, std::vector<bool>(sp.item_count(), true));
    for (const unsigned threads : {1u, 8u}) {
      BranchAndBoundOptions opt = allocator_options(cm, sp, true, threads);
      const BranchAndBound uncut(opt);
      const Solution a = uncut.solve(cm.model);
      opt.cutoff_point = overfull;
      const BranchAndBound cut(opt);
      const Solution b = cut.solve(cm.model);
      ASSERT_EQ(b.status, SolveStatus::kOptimal);
      EXPECT_EQ(bits_of(b.values), bits_of(a.values));
      EXPECT_EQ(cut.last_stats(), uncut.last_stats());
      EXPECT_NEAR(cm.objective_offset + b.objective,
                  sp.all_cached_energy - best.saving, 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Near-optimal set: the specialized engine's masks within the cutoff's window
// include every incumbent the cutoff search can accept, so skipping each box
// that holds none of them must leave that search's solution, root statistics
// and incumbent_updates alone, bit for bit, and never add a node or a pivot
// (docs/solver.md, "Near-optimal set").
// ---------------------------------------------------------------------------

/// The same check for the set: `opt` (which carries the cutoff) without
/// and with `set`. The set must also keep `incumbent_updates` and never
/// add a pivot.
CutoffRun expect_set_keeps_solution(
    const Model& m, BranchAndBoundOptions opt,
    const std::vector<std::vector<double>>& set) {
  BranchAndBoundOptions with_set = opt;
  opt.near_optimal_set.clear();
  with_set.near_optimal_set = set;
  CutoffRun run = expect_same_solution(m, opt, with_set);
  EXPECT_EQ(run.cut_stats.incumbent_updates, run.uncut_stats.incumbent_updates);
  EXPECT_LE(run.cut_stats.simplex_iterations,
            run.uncut_stats.simplex_iterations);
  return run;
}

/// The lifted near-optimal masks of `sp` within the allocator's window.
std::vector<std::vector<double>> near_optimal_points(
    const core::CasaModel& cm, const core::SavingsProblem& sp,
    const core::CasaBranchBoundResult& near) {
  std::vector<std::vector<double>> points;
  for (const std::vector<bool>& mask : near.near_optimal) {
    points.push_back(core::warm_assignment(cm, sp, mask));
  }
  return points;
}

TEST(BranchAndBoundCutoff, NearOptimalSetKeepsTheCutoffSolution) {
  std::uint64_t cut_nodes = 0, set_nodes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool ties : {false, true}) {
      const core::SavingsProblem sp = random_savings(seed * 977, ties);
      const core::CasaBranchBoundResult near =
          core::CasaBranchBound().enumerate(sp,
                                            core::near_optimal_window(sp));
      ASSERT_TRUE(near.exact);
      for (const core::Linearization lin :
           {core::Linearization::kTight, core::Linearization::kPaper}) {
        const core::CasaModel cm = core::build_casa_model(sp, lin);
        const std::vector<std::vector<double>> set =
            near_optimal_points(cm, sp, near);
        for (const bool warm : {true, false}) {
          for (const unsigned threads : {1u, 8u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " ties " +
                         std::to_string(ties) + " paper " +
                         std::to_string(lin == core::Linearization::kPaper) +
                         " warm " + std::to_string(warm) + " threads " +
                         std::to_string(threads));
            BranchAndBoundOptions opt =
                allocator_options(cm, sp, warm, threads);
            opt.cutoff_point = core::warm_assignment(cm, sp, near.chosen);
            const CutoffRun run = expect_set_keeps_solution(cm.model, opt, set);
            cut_nodes += run.uncut_stats.nodes;
            set_nodes += run.cut_stats.nodes;
          }
        }
      }
    }
  }
  // The set must actually prune, or the comparisons above prove nothing.
  EXPECT_LT(set_nodes, cut_nodes);
}

TEST(BranchAndBoundCutoff, NearOptimalSetWithAnInfeasiblePointIsIgnored) {
  // One point that overflows the capacity row voids the whole set: the
  // search must run as with the cutoff alone, node for node.
  const core::SavingsProblem sp = random_savings(31337, true);
  const core::CasaBranchBoundResult near =
      core::CasaBranchBound().enumerate(sp, core::near_optimal_window(sp));
  for (const core::Linearization lin :
       {core::Linearization::kTight, core::Linearization::kPaper}) {
    const core::CasaModel cm = core::build_casa_model(sp, lin);
    std::vector<std::vector<double>> set = near_optimal_points(cm, sp, near);
    set.push_back(core::warm_assignment(
        cm, sp, std::vector<bool>(sp.item_count(), true)));
    for (const unsigned threads : {1u, 8u}) {
      BranchAndBoundOptions opt = allocator_options(cm, sp, true, threads);
      opt.cutoff_point = core::warm_assignment(cm, sp, near.chosen);
      const BranchAndBound cut(opt);
      const Solution a = cut.solve(cm.model);
      opt.near_optimal_set = set;
      const BranchAndBound pruned(opt);
      const Solution b = pruned.solve(cm.model);
      ASSERT_EQ(b.status, SolveStatus::kOptimal);
      EXPECT_EQ(bits_of(b.values), bits_of(a.values));
      EXPECT_EQ(pruned.last_stats(), cut.last_stats());
      // Without the bad point the same set prunes.
      set.pop_back();
      opt.near_optimal_set = set;
      const BranchAndBound valid(opt);
      (void)valid.solve(cm.model);
      EXPECT_LT(valid.last_stats().nodes, cut.last_stats().nodes);
      set.push_back(core::warm_assignment(
          cm, sp, std::vector<bool>(sp.item_count(), true)));
    }
  }
}

TEST(BranchAndBoundCutoff, NearOptimalSetWithoutACutoffIsIgnored) {
  // The set only means something below a cutoff: alone it changes nothing.
  const core::SavingsProblem sp = random_savings(31337, true);
  const core::CasaBranchBoundResult near =
      core::CasaBranchBound().enumerate(sp, core::near_optimal_window(sp));
  const core::CasaModel cm =
      core::build_casa_model(sp, core::Linearization::kTight);
  BranchAndBoundOptions opt = allocator_options(cm, sp, false, 1);
  const BranchAndBound plain(opt);
  const Solution a = plain.solve(cm.model);
  ASSERT_GT(plain.last_stats().nodes, 8u);
  opt.near_optimal_set = near_optimal_points(cm, sp, near);
  const BranchAndBound with_set(opt);
  const Solution b = with_set.solve(cm.model);
  EXPECT_EQ(bits_of(b.values), bits_of(a.values));
  EXPECT_EQ(with_set.last_stats(), plain.last_stats());
}

}  // namespace
}  // namespace casa::ilp
