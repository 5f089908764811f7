// Cross-validation of the three CASA solving engines.
//
// The specialized branch & bound, the generic ILP (both linearizations) and
// a brute-force enumerator must agree on the optimal saving for random
// instances; the greedy heuristic must be feasible and never better than
// the optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "casa/baseline/steinke.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/core/formulation.hpp"
#include "casa/core/greedy.hpp"
#include "casa/ilp/branch_bound.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/rng.hpp"

namespace casa::core {
namespace {

SavingsProblem random_instance(std::uint64_t seed, std::size_t items,
                               std::size_t edges, Bytes capacity) {
  Rng rng(seed);
  SavingsProblem sp;
  sp.capacity = capacity;
  for (std::size_t k = 0; k < items; ++k) {
    sp.object_of.push_back(MemoryObjectId(static_cast<std::uint32_t>(k)));
    sp.value.push_back(rng.next_unit() * 50.0);
    sp.weight.push_back(4 * (1 + rng.next_below(24)));
    sp.all_cached_energy += sp.value.back() * 2.0;
  }
  for (std::size_t e = 0; e < edges && items >= 2; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(items));
    auto b = static_cast<std::uint32_t>(rng.next_below(items));
    if (b == a) b = (b + 1) % items;
    sp.edges.push_back(SavingsProblem::Edge{std::min(a, b), std::max(a, b),
                                            rng.next_unit() * 120.0});
    sp.all_cached_energy += sp.edges.back().weight;
  }
  return sp;
}

Energy brute_force(const SavingsProblem& sp) {
  const std::size_t n = sp.item_count();
  Energy best = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    Bytes w = 0;
    std::vector<bool> chosen(n, false);
    for (std::size_t k = 0; k < n; ++k) {
      if (mask & (1u << k)) {
        chosen[k] = true;
        w += sp.weight[k];
      }
    }
    if (w > sp.capacity) continue;
    best = std::max(best, sp.saving_for(chosen));
  }
  return best;
}

class EngineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreementTest, SpecializedMatchesBruteForce) {
  const SavingsProblem sp =
      random_instance(GetParam() * 41 + 1, 12, 16, 160);
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.saving, brute_force(sp), 1e-6);
}

TEST_P(EngineAgreementTest, GenericTightMatchesBruteForce) {
  const SavingsProblem sp =
      random_instance(GetParam() * 43 + 2, 9, 10, 120);
  const CasaModel cm = build_casa_model(sp, Linearization::kTight);
  const ilp::Solution sol = ilp::BranchAndBound().solve(cm.model);
  ASSERT_EQ(sol.status, ilp::SolveStatus::kOptimal);
  const Energy energy = cm.objective_offset + sol.objective;
  EXPECT_NEAR(energy, sp.all_cached_energy - brute_force(sp), 1e-6);
}

TEST_P(EngineAgreementTest, PaperLinearizationMatchesTight) {
  const SavingsProblem sp = random_instance(GetParam() * 47 + 3, 7, 8, 100);

  const CasaModel paper = build_casa_model(sp, Linearization::kPaper);
  ilp::BranchAndBoundOptions opt;
  opt.branch_priority.assign(paper.model.var_count(), 0);
  for (const VarId l : paper.l_vars) opt.branch_priority[l.index()] = 1;
  const ilp::Solution ps = ilp::BranchAndBound(opt).solve(paper.model);
  ASSERT_EQ(ps.status, ilp::SolveStatus::kOptimal);

  const CasaModel tight = build_casa_model(sp, Linearization::kTight);
  const ilp::Solution ts = ilp::BranchAndBound().solve(tight.model);
  ASSERT_EQ(ts.status, ilp::SolveStatus::kOptimal);

  EXPECT_NEAR(paper.objective_offset + ps.objective,
              tight.objective_offset + ts.objective, 1e-6);
}

TEST_P(EngineAgreementTest, GreedyFeasibleAndNotAboveOptimum) {
  const SavingsProblem sp =
      random_instance(GetParam() * 53 + 4, 14, 20, 200);
  const GreedyResult g = solve_greedy(sp);
  Bytes w = 0;
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    if (g.chosen[k]) w += sp.weight[k];
  }
  EXPECT_LE(w, sp.capacity);
  const CasaBranchBoundResult exact = CasaBranchBound().solve(sp);
  EXPECT_LE(g.saving, exact.saving + 1e-9);
  // Density greedy should be at least half decent on these instances.
  EXPECT_GE(g.saving, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementTest, ::testing::Range(0, 12));

// ------------------------------------------------------- CasaBranchBound ---

TEST(CasaBranchBound, EmptyProblem) {
  SavingsProblem sp;
  sp.capacity = 128;
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.saving, 0.0);
}

TEST(CasaBranchBound, EdgeCoveredByEitherEndpoint) {
  SavingsProblem sp;
  sp.capacity = 10;
  sp.object_of = {MemoryObjectId(0), MemoryObjectId(1)};
  sp.value = {0.0, 0.0};
  sp.weight = {10, 10};  // only one fits
  sp.edges = {{0, 1, 100.0}};
  sp.all_cached_energy = 100.0;
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.saving, 100.0);  // one endpoint suffices
  EXPECT_NE(r.chosen[0], r.chosen[1]);
}

TEST(CasaBranchBound, PrefersEdgeCoverOverLinearValue) {
  // Item 0: linear 10. Items 1,2: tiny linear but heavy mutual edge; only
  // two of the three fit. Optimal: item 0 plus one edge endpoint.
  SavingsProblem sp;
  sp.capacity = 20;
  sp.object_of = {MemoryObjectId(0), MemoryObjectId(1), MemoryObjectId(2)};
  sp.value = {10.0, 1.0, 1.0};
  sp.weight = {10, 10, 10};
  sp.edges = {{1, 2, 50.0}};
  sp.all_cached_energy = 62.0;
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  EXPECT_DOUBLE_EQ(r.saving, 10.0 + 1.0 + 50.0);
  EXPECT_TRUE(r.chosen[0]);
}

TEST(CasaBranchBound, NodeLimitFlagsInexact) {
  const SavingsProblem sp = random_instance(99, 20, 40, 400);
  CasaBranchBoundOptions opt;
  opt.max_nodes = 2;
  const CasaBranchBoundResult r = CasaBranchBound(opt).solve(sp);
  EXPECT_FALSE(r.exact);
  // Incumbent is still feasible.
  Bytes w = 0;
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    if (r.chosen[k]) w += sp.weight[k];
  }
  EXPECT_LE(w, sp.capacity);
}

// --------------------------------------- CasaBranchBound: Lagrangian bound ---

/// A dyadic value in [0, scale): ten fraction bits, so every sum the solver
/// and the brute force form on these instances is exact.
double dyadic(Rng& rng, double scale) {
  return std::ldexp(std::floor(rng.next_unit() * scale * 1024.0), -10);
}

/// An instance shaped like g721@1024's: mostly small items with values
/// spread over three to four decades, heavier conflict edges, and a capacity of
/// half the total size, so most hot items fit. The last `twins` items copy
/// an earlier item's size, value and edges, which plants exact ties.
SavingsProblem shaped_instance(std::uint64_t seed, std::size_t items,
                               std::size_t edges_per_item,
                               std::size_t twins) {
  Rng rng(seed);
  SavingsProblem sp;
  const std::size_t base = items - twins;
  for (std::size_t k = 0; k < base; ++k) {
    const int decade = static_cast<int>(1 + rng.next_below(12));
    sp.value.push_back(dyadic(rng, std::ldexp(1.0, decade)));
    sp.weight.push_back(rng.next_bool(0.25) ? 4 * (25 + rng.next_below(64))
                                            : 4 * (3 + rng.next_below(20)));
  }
  for (std::size_t e = 0; e < edges_per_item * base; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(base));
    auto b = static_cast<std::uint32_t>(rng.next_below(base));
    if (b == a) b = (b + 1) % base;
    const int decade = static_cast<int>(1 + rng.next_below(12));
    sp.edges.push_back(SavingsProblem::Edge{
        std::min(a, b), std::max(a, b), dyadic(rng, std::ldexp(8.0, decade))});
  }
  for (std::size_t t = 0; t < twins; ++t) {
    const auto of = static_cast<std::uint32_t>(rng.next_below(base));
    const auto k = static_cast<std::uint32_t>(sp.value.size());
    sp.value.push_back(sp.value[of]);
    sp.weight.push_back(sp.weight[of]);
    const std::size_t edges = sp.edges.size();
    for (std::size_t e = 0; e < edges; ++e) {
      const SavingsProblem::Edge edge = sp.edges[e];
      if (edge.a != of && edge.b != of) continue;
      const std::uint32_t other = edge.a == of ? edge.b : edge.a;
      sp.edges.push_back(SavingsProblem::Edge{std::min(other, k),
                                              std::max(other, k), edge.weight});
    }
  }
  Bytes total = 0;
  for (std::size_t k = 0; k < sp.value.size(); ++k) {
    sp.object_of.push_back(MemoryObjectId(static_cast<std::uint32_t>(k)));
    sp.all_cached_energy += sp.value[k];
    total += sp.weight[k];
  }
  for (const SavingsProblem::Edge& e : sp.edges) {
    sp.all_cached_energy += e.weight;
  }
  sp.capacity = total / 2;
  return sp;
}

/// The optimal saving over every mask that fits, visited in Gray-code order:
/// each step flips one item and updates size and saving in O(degree).
Energy gray_code_optimum(const SavingsProblem& sp) {
  const std::size_t n = sp.item_count();
  std::vector<std::vector<std::uint32_t>> incident(n);
  for (std::uint32_t e = 0; e < sp.edges.size(); ++e) {
    incident[sp.edges[e].a].push_back(e);
    incident[sp.edges[e].b].push_back(e);
  }
  std::vector<std::uint8_t> cover(sp.edges.size(), 0);
  std::vector<bool> in(n, false);
  Bytes used = 0;
  Energy saving = 0;
  Energy best = 0;
  for (std::uint64_t step = 1; step < (std::uint64_t{1} << n); ++step) {
    const auto k = static_cast<std::size_t>(std::countr_zero(step));
    in[k] = !in[k];
    if (in[k]) {
      used += sp.weight[k];
      saving += sp.value[k];
      for (const std::uint32_t e : incident[k]) {
        if (cover[e]++ == 0) saving += sp.edges[e].weight;
      }
    } else {
      used -= sp.weight[k];
      saving -= sp.value[k];
      for (const std::uint32_t e : incident[k]) {
        if (--cover[e] == 0) saving -= sp.edges[e].weight;
      }
    }
    if (used <= sp.capacity && saving > best) best = saving;
  }
  return best;
}

/// Solves seeded shaped instances of 20-22 items twice each: the saving
/// must equal the Gray-code optimum, both solves must agree on mask and
/// node count, and the Lagrangian bound must have pruned somewhere.
void check_shaped_instances(std::size_t edges_per_item) {
  std::uint64_t lagrangian_prunes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t twins = seed % 3 == 0 ? 2 : 0;
    const SavingsProblem sp = shaped_instance(
        seed * 7919 + edges_per_item, 20 + seed % 3, edges_per_item, twins);
    const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
    const CasaBranchBoundResult again = CasaBranchBound().solve(sp);
    ASSERT_TRUE(r.exact) << "seed " << seed;
    EXPECT_EQ(r.saving, gray_code_optimum(sp)) << "seed " << seed;
    EXPECT_EQ(r.chosen, again.chosen) << "seed " << seed;
    EXPECT_EQ(r.stats.nodes, again.stats.nodes) << "seed " << seed;
    EXPECT_EQ(r.lagrangian_prunes, again.lagrangian_prunes) << "seed " << seed;
    EXPECT_LE(r.lagrangian_prunes, r.stats.bound_prunes) << "seed " << seed;
    lagrangian_prunes += r.lagrangian_prunes;
  }
  EXPECT_GT(lagrangian_prunes, 0u);
}

TEST(CasaBranchBound, LagrangianBoundKeepsSparseOptima) {
  check_shaped_instances(2);
}

TEST(CasaBranchBound, LagrangianBoundKeepsDenseOptima) {
  check_shaped_instances(8);
}

TEST(CasaBranchBound, LagrangianBoundAgreesWithGenericOnLongSearches) {
  // 50-60 items run thousands of nodes, long enough for the bound's
  // evaluation windows and back-off; the generic engine's LP-based search
  // is the independent reference.
  for (const auto& [seed, items] :
       {std::pair<std::uint64_t, std::size_t>{2, 50}, {3, 50}, {1, 60}}) {
    const SavingsProblem sp = shaped_instance(seed, items, 3, 0);
    const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
    ASSERT_TRUE(r.exact) << items << " items, seed " << seed;
    EXPECT_GT(r.stats.nodes, 4096u) << items << " items, seed " << seed;
    EXPECT_GT(r.lagrangian_prunes, 0u) << items << " items, seed " << seed;
    const CasaModel cm = build_casa_model(sp, Linearization::kTight);
    const ilp::Solution sol = ilp::BranchAndBound().solve(cm.model);
    ASSERT_EQ(sol.status, ilp::SolveStatus::kOptimal);
    EXPECT_NEAR(sp.all_cached_energy - r.saving,
                cm.objective_offset + sol.objective, 1e-6)
        << items << " items, seed " << seed;
  }
}

TEST(CasaBranchBound, TracedSolveEmitsProgressIncumbentsAndRootBound) {
  const SavingsProblem sp = shaped_instance(2, 50, 3, 0);
  const CasaBranchBoundResult plain = CasaBranchBound().solve(sp);

  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  obs::Tracer::set_current(nullptr);

  // Tracing reads the search; it never steers it.
  EXPECT_EQ(r.chosen, plain.chosen);
  EXPECT_EQ(r.stats.nodes, plain.stats.nodes);
  EXPECT_EQ(r.lagrangian_prunes, plain.lagrangian_prunes);
  ASSERT_GT(r.stats.nodes, 1024u);
  ASSERT_GT(r.stats.incumbent_updates, 0u);

  std::vector<double> nodes, prunes, incumbents, bounds;
  double final_prunes = -1;
  for (const obs::TraceEvent& e : tracer.drain().events) {
    const bool counter = e.kind == obs::TraceEventKind::kCounter;
    const bool instant = e.kind == obs::TraceEventKind::kInstant;
    if (counter && e.name == obs::trace_names::kIlpNodes) {
      nodes.push_back(e.value);
    } else if (counter && e.name == obs::trace_names::kIlpPrunes) {
      prunes.push_back(e.value);
    } else if (instant && e.name == obs::trace_names::kIlpPrunes) {
      final_prunes = e.value;
    } else if (instant && e.name == obs::trace_names::kIlpIncumbent) {
      incumbents.push_back(e.value);
    } else if (counter && e.name == obs::trace_names::kIlpLagrangianBound) {
      bounds.push_back(e.value);
    }
  }
  // One nodes/prunes sample per 1024 nodes.
  ASSERT_EQ(nodes.size(), r.stats.nodes / 1024);
  ASSERT_EQ(prunes.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i], 1024.0 * static_cast<double>(i + 1));
  }
  EXPECT_TRUE(std::is_sorted(prunes.begin(), prunes.end()));
  EXPECT_EQ(final_prunes, static_cast<double>(r.stats.bound_prunes));
  // One instant per incumbent, each better than the last; the instance is
  // dyadic, so the last one is the returned saving exactly.
  ASSERT_EQ(incumbents.size(), r.stats.incumbent_updates);
  for (std::size_t i = 1; i < incumbents.size(); ++i) {
    EXPECT_GT(incumbents[i], incumbents[i - 1]);
  }
  EXPECT_EQ(incumbents.back(), r.saving);
  // The tuned root bound, once: an upper bound on the optimum.
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_GE(bounds.front(), r.saving);
}

// ------------------------------------- CasaBranchBound: enumeration mode ---

/// Every mask that fits and saves at least `floor`, by brute force.
std::vector<std::vector<bool>> masks_saving_at_least(const SavingsProblem& sp,
                                                      Energy floor) {
  const std::size_t n = sp.item_count();
  std::vector<std::vector<bool>> out;
  for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
    std::vector<bool> mask(n, false);
    Bytes used = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (bits & (1u << k)) {
        mask[k] = true;
        used += sp.weight[k];
      }
    }
    if (used <= sp.capacity && sp.saving_for(mask) >= floor) {
      out.push_back(std::move(mask));
    }
  }
  return out;
}

/// random_instance with 10 items plus planted near-ties. With `ties`,
/// items 0 and 1 are duplicated (value, size and edges) and every edge is
/// doubled. Two tiny-value items follow, one of them with a tiny edge to
/// item 0: masks with and without them differ by less than any window.
/// At most 14 items, every value positive.
SavingsProblem near_tie_instance(std::uint64_t seed, bool ties) {
  SavingsProblem sp = random_instance(seed, 10, 14, 0);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto add_item = [&sp](Energy value, Bytes weight) {
    sp.object_of.push_back(
        MemoryObjectId(static_cast<std::uint32_t>(sp.value.size())));
    sp.value.push_back(value);
    sp.weight.push_back(weight);
    return static_cast<std::uint32_t>(sp.value.size() - 1);
  };
  if (ties) {
    const std::size_t original = sp.edges.size();
    for (std::uint32_t src = 0; src < 2; ++src) {
      const std::uint32_t dup = add_item(sp.value[src], sp.weight[src]);
      for (std::size_t e = 0; e < original; ++e) {
        const SavingsProblem::Edge edge = sp.edges[e];
        if (edge.a != src && edge.b != src) continue;
        sp.edges.push_back({edge.a == src ? edge.b : edge.a, dup, edge.weight});
      }
    }
    const std::size_t n = sp.edges.size();
    for (std::size_t e = 0; e < n; ++e) sp.edges.push_back(sp.edges[e]);
  }
  add_item(1e-9 * (1.0 + rng.next_unit()), 4);
  const std::uint32_t tiny = add_item(1e-12 * (1.0 + rng.next_unit()), 8);
  sp.edges.push_back({0, tiny, 1e-10 * (1.0 + rng.next_unit())});
  Bytes total = 0;
  for (const Bytes w : sp.weight) total += w;
  sp.capacity = total / 3;
  return sp;
}

TEST(CasaBranchBound, EnumerationListsExactlyTheMasksWithinTheWindow) {
  std::size_t listed = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool ties : {false, true}) {
      const SavingsProblem sp = near_tie_instance(seed * 131, ties);
      ASSERT_LE(sp.item_count(), 16u);
      const Energy best = CasaBranchBound().solve(sp).saving;
      for (const Energy window :
           {0.0, near_optimal_window(sp), 1e-3 * best, 3e-2 * best}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " ties " +
                     std::to_string(ties) + " window " +
                     std::to_string(window));
        const CasaBranchBoundResult r = CasaBranchBound().enumerate(sp, window);
        ASSERT_TRUE(r.exact);
        EXPECT_EQ(r.saving, sp.saving_for(r.chosen));
        EXPECT_NEAR(r.saving, best, 1e-9);
        std::vector<std::vector<bool>> got = r.near_optimal;
        std::vector<std::vector<bool>> want =
            masks_saving_at_least(sp, r.saving - window);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want);
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), r.chosen));
        listed += got.size();
      }
    }
  }
  // The planted near-ties must put more than one mask in the windows.
  EXPECT_GT(listed, 2u * 8u * 4u);
}

TEST(CasaBranchBound, EnumerationKeepsTheOptimumOnALongSearch) {
  // 50 items run thousands of nodes, so the Lagrangian bound prunes in
  // the enumeration mode too: the enumeration must still find solve()'s
  // optimum and list only masks that fit within the window, and a search
  // cut by its budget must say so.
  const SavingsProblem sp = shaped_instance(2, 50, 3, 0);
  const Energy window = near_optimal_window(sp);
  const CasaBranchBoundResult best = CasaBranchBound().solve(sp);
  const CasaBranchBoundResult listed = CasaBranchBound().enumerate(sp, window);
  ASSERT_TRUE(listed.exact);
  EXPECT_GT(listed.lagrangian_prunes, 0u);
  EXPECT_EQ(listed.saving, best.saving);
  EXPECT_TRUE(best.near_optimal.empty());
  ASSERT_FALSE(listed.near_optimal.empty());
  EXPECT_NE(std::find(listed.near_optimal.begin(), listed.near_optimal.end(),
                      listed.chosen),
            listed.near_optimal.end());
  for (const std::vector<bool>& mask : listed.near_optimal) {
    Bytes used = 0;
    for (std::size_t k = 0; k < mask.size(); ++k) {
      if (mask[k]) used += sp.weight[k];
    }
    EXPECT_LE(used, sp.capacity);
    EXPECT_GE(sp.saving_for(mask), listed.saving - window);
  }

  CasaBranchBoundOptions small;
  small.max_nodes = 16;
  EXPECT_FALSE(CasaBranchBound(small).enumerate(sp, window).exact);
}

// ------------------------------------------------------------- Allocator ---

conflict::ConflictGraph tiny_graph() {
  std::vector<conflict::Edge> edges{
      {MemoryObjectId(0), MemoryObjectId(1), 50},
      {MemoryObjectId(1), MemoryObjectId(0), 60}};
  return conflict::ConflictGraph(3, {1000, 800, 10}, {0, 0, 0},
                                 {950, 740, 10}, std::move(edges));
}

CasaProblem tiny_problem(const conflict::ConflictGraph& g) {
  CasaProblem p;
  p.graph = &g;
  p.sizes = {40, 44, 48};
  p.capacity = 64;
  p.e_cache_hit = 1.0;
  p.e_cache_miss = 25.0;
  p.e_spm = 0.4;
  return p;
}

class AllocatorEngineTest : public ::testing::TestWithParam<CasaEngine> {};

TEST_P(AllocatorEngineTest, RespectsCapacityAndReportsSaving) {
  const auto g = tiny_graph();
  const CasaProblem p = tiny_problem(g);
  CasaOptions opt;
  opt.engine = GetParam();
  const AllocationResult r = CasaAllocator(opt).allocate(p);
  EXPECT_LE(r.used_bytes, p.capacity);
  EXPECT_EQ(r.on_spm.size(), 3u);
  EXPECT_GE(r.predicted_saving, 0.0);
  EXPECT_DOUBLE_EQ(r.predicted_energy + r.predicted_saving,
                   presolve(p).all_cached_energy);
}

INSTANTIATE_TEST_SUITE_P(Engines, AllocatorEngineTest,
                         ::testing::Values(CasaEngine::kSpecializedBnB,
                                           CasaEngine::kGenericIlp,
                                           CasaEngine::kGreedy));

TEST(Allocator, ExactEnginesAgree) {
  const auto g = tiny_graph();
  const CasaProblem p = tiny_problem(g);
  CasaOptions a, b;
  a.engine = CasaEngine::kSpecializedBnB;
  b.engine = CasaEngine::kGenericIlp;
  const AllocationResult ra = CasaAllocator(a).allocate(p);
  const AllocationResult rb = CasaAllocator(b).allocate(p);
  EXPECT_NEAR(ra.predicted_energy, rb.predicted_energy, 1e-6);
  EXPECT_TRUE(ra.exact);
  EXPECT_TRUE(rb.exact);
}

TEST(Allocator, AutoSwitchesOnEdgeCount) {
  const auto g = tiny_graph();
  const CasaProblem p = tiny_problem(g);
  CasaOptions opt;
  opt.engine = CasaEngine::kAuto;
  opt.generic_ilp_max_edges = 0;  // force specialized
  EXPECT_EQ(CasaAllocator(opt).allocate(p).engine_used,
            CasaEngine::kSpecializedBnB);
  opt.generic_ilp_max_edges = 100;
  EXPECT_EQ(CasaAllocator(opt).allocate(p).engine_used,
            CasaEngine::kGenericIlp);
}

TEST(Allocator, PaperLinearizationOptionWorks) {
  const auto g = tiny_graph();
  const CasaProblem p = tiny_problem(g);
  CasaOptions opt;
  opt.engine = CasaEngine::kGenericIlp;
  opt.linearization = Linearization::kPaper;
  const AllocationResult r = CasaAllocator(opt).allocate(p);
  EXPECT_TRUE(r.exact);
  CasaOptions tight = opt;
  tight.linearization = Linearization::kTight;
  EXPECT_NEAR(r.predicted_energy,
              CasaAllocator(tight).allocate(p).predicted_energy, 1e-6);
}

TEST(Allocator, ZeroCapacityPlacesNothing) {
  const auto g = tiny_graph();
  CasaProblem p = tiny_problem(g);
  p.capacity = 0;
  // All objects oversized -> fixed cached; empty savings problem.
  const AllocationResult r = CasaAllocator().allocate(p);
  EXPECT_EQ(r.used_bytes, 0u);
  for (const bool b : r.on_spm) EXPECT_FALSE(b);
}

// ------------------------------------------------------------ SolveStats ---

TEST(SolveStats, PopulatedBySpecializedSolver) {
  const SavingsProblem sp = random_instance(7, 12, 16, 160);
  const CasaBranchBoundResult r = CasaBranchBound().solve(sp);
  ASSERT_TRUE(r.exact);
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_EQ(r.stats.nodes, r.nodes);  // legacy field stays in sync
  EXPECT_GT(r.stats.max_depth, 0u);
  EXPECT_GT(r.stats.incumbent_updates, 0u);
  // The specialized solver never runs simplex relaxations.
  EXPECT_EQ(r.stats.simplex_iterations, 0u);
}

TEST(SolveStats, PopulatedByGenericSolver) {
  const SavingsProblem sp = random_instance(11, 9, 10, 120);
  const CasaModel cm = build_casa_model(sp, Linearization::kTight);
  const ilp::BranchAndBound solver;
  const ilp::Solution sol = solver.solve(cm.model);
  ASSERT_EQ(sol.status, ilp::SolveStatus::kOptimal);
  const ilp::SolveStats& s = solver.last_stats();
  EXPECT_GT(s.nodes, 0u);
  EXPECT_EQ(s.nodes, solver.last_node_count());
  // A warm-started search may seed its incumbent before node 1 and never
  // improve it; either signal proves the incumbent machinery ran.
  EXPECT_TRUE(s.incumbent_updates > 0 || s.warm_start_used);
  EXPECT_GT(s.simplex_iterations, 0u);
}

TEST(SolveStats, SpecializedExploresNoMoreNodesThanGeneric) {
  // The point of the specialized solver: branching directly on items with
  // the edge-aware bound beats the generic ILP, which must also branch the
  // linearization variables. The LP-relaxation bound is occasionally
  // tighter on a single instance, so the honest claim — and the one worth
  // gating — is over the shared instance set as a whole.
  std::uint64_t spec_nodes = 0, generic_nodes = 0;
  for (const int seed : {1, 2, 3, 4, 5, 6}) {
    const SavingsProblem sp = random_instance(seed * 61 + 5, 10, 12, 140);
    const CasaBranchBoundResult spec = CasaBranchBound().solve(sp);
    ASSERT_TRUE(spec.exact);

    const CasaModel cm = build_casa_model(sp, Linearization::kTight);
    const ilp::BranchAndBound generic;
    const ilp::Solution sol = generic.solve(cm.model);
    ASSERT_EQ(sol.status, ilp::SolveStatus::kOptimal);
    EXPECT_NEAR(sp.all_cached_energy - spec.saving,
                cm.objective_offset + sol.objective, 1e-6)
        << "seed " << seed;

    spec_nodes += spec.stats.nodes;
    generic_nodes += generic.last_stats().nodes;
  }
  EXPECT_LE(spec_nodes, generic_nodes);
}

TEST(SolveStats, AllocatorReportsEngineStats) {
  const auto g = tiny_graph();
  const CasaProblem p = tiny_problem(g);

  CasaOptions opt;
  opt.engine = CasaEngine::kSpecializedBnB;
  const AllocationResult spec = CasaAllocator(opt).allocate(p);
  EXPECT_GT(spec.solver_stats.nodes, 0u);
  EXPECT_EQ(spec.solver_stats.nodes, spec.solver_nodes);

  opt.engine = CasaEngine::kGenericIlp;
  const AllocationResult gen = CasaAllocator(opt).allocate(p);
  EXPECT_GT(gen.solver_stats.nodes, 0u);
  EXPECT_GT(gen.solver_stats.simplex_iterations, 0u);

  opt.engine = CasaEngine::kGreedy;
  const AllocationResult greedy = CasaAllocator(opt).allocate(p);
  EXPECT_EQ(greedy.solver_stats.nodes, 0u);  // no tree was searched
  EXPECT_EQ(greedy.solver_stats.simplex_iterations, 0u);
}

TEST(Allocator, HugeCapacityTakesAllBeneficialObjects) {
  const auto g = tiny_graph();
  CasaProblem p = tiny_problem(g);
  p.capacity = 4096;
  const AllocationResult r = CasaAllocator().allocate(p);
  // Everything has positive fetch count -> everything saves energy.
  EXPECT_TRUE(r.on_spm[0]);
  EXPECT_TRUE(r.on_spm[1]);
  EXPECT_TRUE(r.on_spm[2]);
}

/// Twelve objects with conflicts among objects 1-11; object 0 has no
/// fetches (so no edges) and 8 bytes, so placing it saves nothing and
/// costs nothing when it fits the leftover capacity. It is item 0, the
/// first variable the generic search fans out on.
conflict::ConflictGraph zero_fetch_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 12;
  std::vector<std::uint64_t> fetches(n, 0);
  for (std::size_t k = 1; k < n; ++k) fetches[k] = 100 + rng.next_below(5000);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> misses;
  for (int e = 0; e < 24; ++e) {
    const auto a = static_cast<std::uint32_t>(1 + rng.next_below(n - 1));
    const auto b = static_cast<std::uint32_t>(1 + rng.next_below(n - 1));
    if (a != b) misses[{a, b}] += 1 + rng.next_below(fetches[a] / 8);
  }
  std::vector<std::uint64_t> hits = fetches;
  std::vector<conflict::Edge> edges;
  for (const auto& [ab, m] : misses) {
    hits[ab.first] -= std::min(hits[ab.first], m);
    edges.push_back({MemoryObjectId(ab.first), MemoryObjectId(ab.second), m});
  }
  return conflict::ConflictGraph(n, std::move(fetches),
                                 std::vector<std::uint64_t>(n, 0),
                                 std::move(hits), std::move(edges));
}

CasaProblem zero_fetch_problem(const conflict::ConflictGraph& g,
                               std::uint64_t seed) {
  Rng rng(seed + 1);
  CasaProblem p;
  p.graph = &g;
  p.sizes.push_back(8);
  Bytes total = 0;
  for (std::size_t k = 1; k < g.node_count(); ++k) {
    p.sizes.push_back(4 * (4 + rng.next_below(28)));
    total += p.sizes.back();
  }
  p.capacity = total / 3;
  p.e_cache_hit = 1.0;
  p.e_cache_miss = 25.0;
  p.e_spm = 0.4;
  return p;
}

TEST(Allocator, NearOptimalSetKeepsZeroFetchObjectsWhereTheSearchPutsThem) {
  // Without presolve the generic search leaves a zero-fetch object's free
  // location column at l = 0, on the scratchpad, whenever it fits, while
  // the specialized engine's near-optimal masks all leave it cached. The
  // allocator must then withhold the set: its mask must be the one the
  // search finds with the cutoff alone. With presolve, which fixes the
  // object cached, the set goes in and changes no mask either.
  std::size_t planted = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const conflict::ConflictGraph g = zero_fetch_graph(seed);
    const CasaProblem p = zero_fetch_problem(g, seed);
    const SavingsProblem sp = presolve(p);
    ASSERT_EQ(sp.value[0], 0.0);
    const CasaModel cm = build_casa_model(sp, Linearization::kTight);
    const CasaBranchBoundResult near =
        CasaBranchBound().enumerate(sp, near_optimal_window(sp));
    ASSERT_TRUE(near.exact);
    for (const bool presolve_on : {false, true}) {
      CasaOptions opt;
      opt.engine = CasaEngine::kGenericIlp;
      opt.ilp_presolve = presolve_on;
      const AllocationResult r = CasaAllocator(opt).allocate(p);

      // The allocator's generic search, with the cutoff alone and with
      // the set.
      ilp::BranchAndBoundOptions bopt;
      bopt.subtree_depth = 3;
      bopt.presolve = presolve_on;
      bopt.warm_hint = warm_assignment(
          cm, sp, baseline::knapsack_seed(sp.weight, sp.value, sp.capacity));
      bopt.branch_priority.assign(cm.model.var_count(), 0);
      for (const VarId l : cm.l_vars) bopt.branch_priority[l.index()] = 1;
      bopt.cutoff_point = warm_assignment(cm, sp, near.chosen);
      const ilp::Solution cut = ilp::BranchAndBound(bopt).solve(cm.model);
      for (const std::vector<bool>& mask : near.near_optimal) {
        bopt.near_optimal_set.push_back(warm_assignment(cm, sp, mask));
      }
      const ilp::Solution with_set =
          ilp::BranchAndBound(bopt).solve(cm.model);
      ASSERT_EQ(cut.status, ilp::SolveStatus::kOptimal);
      ASSERT_EQ(with_set.status, ilp::SolveStatus::kOptimal);
      const std::vector<bool> cut_mask = choice_from_solution(cm, cut);
      EXPECT_EQ(r.on_spm, expand_choice(p, sp, cut_mask));
      if (presolve_on) {
        EXPECT_FALSE(cut_mask[0]);
        EXPECT_EQ(choice_from_solution(cm, with_set), cut_mask);
      } else if (choice_from_solution(cm, with_set) != cut_mask) {
        ++planted;
      }
    }
  }
  // Some instance must show the hazard, or the presolve-off half proves
  // nothing.
  EXPECT_GT(planted, 0u);
}

}  // namespace
}  // namespace casa::core
