#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/overlay/overlay_ilp.hpp"
#include "casa/overlay/overlay_sim.hpp"
#include "casa/prog/builder.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::overlay {
namespace {

using prog::FunctionScope;
using prog::ProgramBuilder;

/// Two-phase program: a long filter loop, then a long pack loop. Each phase
/// has its own hot kernel — the textbook overlay case.
struct TwoPhaseRig {
  prog::Program program;
  trace::ExecutionResult exec;
  traceopt::TraceProgram tp;
  traceopt::Layout layout;
  cachesim::CacheConfig cache;
  energy::EnergyTable energies;

  TwoPhaseRig()
      : program(make()),
        exec(trace::Executor::run(program)),
        tp(traceopt::form_traces(program, exec.profile, topts())),
        layout(traceopt::layout_all(tp)),
        cache(make_cache()),
        energies(energy::EnergyTable::build(cache, 128, 0, 0)) {}

  static prog::Program make() {
    ProgramBuilder b("twophase");
    b.function("main", [](FunctionScope& f) {
      f.loop(4000, [](FunctionScope& l) { l.code(96, "filter"); });
      f.loop(4000, [](FunctionScope& l) { l.code(96, "pack"); });
    });
    return b.build();
  }
  static traceopt::TraceFormationOptions topts() {
    traceopt::TraceFormationOptions o;
    o.max_trace_size = 128;
    return o;
  }
  static cachesim::CacheConfig make_cache() {
    cachesim::CacheConfig c;
    c.size = 128;
    c.line_size = 16;
    return c;
  }

  PhaseProfile profile(unsigned phases) const {
    PhaseProfileOptions opt;
    opt.phase_count = phases;
    opt.cache = cache;
    return build_phase_profile(tp, layout, exec.walk, opt);
  }

  OverlayProblem problem(const PhaseProfile& prof) const {
    return OverlayProblem::from(prof, tp, energies, 128);
  }
};

TEST(PhaseProfile, WindowsPartitionTheWalk) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(4);
  ASSERT_EQ(prof.phase_count(), 4u);
  std::size_t prev_end = 0;
  for (const Phase& p : prof.phases()) {
    EXPECT_EQ(p.begin, prev_end);
    prev_end = p.end;
  }
  EXPECT_EQ(prev_end, rig.exec.walk.seq.size());
}

TEST(PhaseProfile, FetchTotalsMatchExecution) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(3);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < prof.object_count(); ++i) {
    total += prof.total_fetches(i);
  }
  EXPECT_EQ(total, rig.exec.total_fetches);
}

TEST(PhaseProfile, PhasesSeparateTheTwoKernels) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const auto& blocks = rig.program.function(rig.program.entry()).blocks();
  const std::size_t filter = rig.tp.object_of(blocks[1]).index();
  const std::size_t pack = rig.tp.object_of(blocks[4]).index();
  // Filter dominates phase 0, pack dominates phase 1.
  EXPECT_GT(prof.phases()[0].fetches[filter],
            10 * std::max<std::uint64_t>(1, prof.phases()[0].fetches[pack]));
  EXPECT_GT(prof.phases()[1].fetches[pack],
            10 * std::max<std::uint64_t>(1, prof.phases()[1].fetches[filter]));
}

/// Summed over its phases, a phase profile must be the conflict graph of
/// the same walk: the same per-object fetches, and per unordered object
/// pair the graph's m_ij + m_ji (self-conflicts have no overlay edge). The
/// cache state flows across phase boundaries, so phase count changes only
/// where each miss is charged.
class PhaseProfileOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PhaseProfileOracle, PhasesSumToTheConflictGraph) {
  const prog::Program program = workloads::by_name(GetParam());
  const trace::ExecutionResult exec = trace::Executor::run(program);
  for (const unsigned ways : {1u, 2u}) {
    cachesim::CacheConfig cache = workloads::paper_cache_for(GetParam());
    cache.associativity = ways;
    traceopt::TraceFormationOptions topt;
    topt.cache_line_size = cache.line_size;
    topt.max_trace_size = 512;
    const traceopt::TraceProgram tp =
        traceopt::form_traces(program, exec.profile, topt);
    const traceopt::Layout layout = traceopt::layout_all(tp);
    conflict::BuildOptions bopt;
    bopt.cache = cache;
    const conflict::ConflictGraph graph =
        conflict::build_conflict_graph(tp, layout, exec.walk, bopt);
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> merged;
    for (const conflict::Edge& e : graph.edges()) {
      const std::uint32_t i = e.from.value();
      const std::uint32_t j = e.to.value();
      if (i != j) merged[{std::min(i, j), std::max(i, j)}] += e.misses;
    }

    for (const unsigned phases : {1u, 4u, 7u}) {
      PhaseProfileOptions popt;
      popt.phase_count = phases;
      popt.cache = cache;
      const PhaseProfile prof =
          build_phase_profile(tp, layout, exec.walk, popt);
      ASSERT_EQ(prof.phase_count(), phases);
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> sum;
      for (const Phase& p : prof.phases()) {
        for (const PhaseEdge& e : p.edges) {
          EXPECT_LT(e.a, e.b);
          sum[{e.a, e.b}] += e.misses;
        }
      }
      EXPECT_EQ(sum, merged) << ways << "-way, " << phases << " phases";
      for (std::size_t i = 0; i < tp.object_count(); ++i) {
        EXPECT_EQ(prof.total_fetches(i),
                  graph.fetches(MemoryObjectId(static_cast<std::uint32_t>(i))))
            << ways << "-way, " << phases << " phases, object " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PhaseProfileOracle,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

TEST(OverlayIlp, SwapsResidencyAcrossPhases) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayResult r = allocate_overlay(rig.problem(prof));
  ASSERT_TRUE(r.exact);
  const auto& blocks = rig.program.function(rig.program.entry()).blocks();
  const std::size_t filter = rig.tp.object_of(blocks[1]).index();
  const std::size_t pack = rig.tp.object_of(blocks[4]).index();
  EXPECT_TRUE(r.residency[0][filter]);
  EXPECT_TRUE(r.residency[1][pack]);
  EXPECT_GE(r.copies, 2u);
}

TEST(OverlayIlp, BeatsStaticOnPhasedProgram) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult dynamic = allocate_overlay(p);
  const OverlayResult fixed = allocate_static(p);
  EXPECT_LT(dynamic.predicted_energy, fixed.predicted_energy);
}

TEST(OverlayIlp, RespectsPerPhaseCapacity) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(3);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult r = allocate_overlay(p);
  for (const auto& phase_res : r.residency) {
    Bytes used = 0;
    for (std::size_t i = 0; i < phase_res.size(); ++i) {
      if (phase_res[i]) used += p.sizes[i];
    }
    EXPECT_LE(used, p.capacity);
  }
}

TEST(OverlayIlp, SinglePhaseEqualsStatic) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(1);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult dynamic = allocate_overlay(p);
  const OverlayResult fixed = allocate_static(p);
  EXPECT_NEAR(dynamic.predicted_energy, fixed.predicted_energy, 1e-6);
}

TEST(OverlayIlp, ProhibitiveCopyCostFreezesResidency) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  OverlayProblem p = rig.problem(prof);
  p.e_copy_word = 1e9;  // copying is absurdly expensive
  const OverlayResult r = allocate_overlay(p);
  // Nothing may be copied in after phase 0 (the initial load already costs
  // 1e9 per word, so at most the empty residency or none at all).
  EXPECT_LE(r.copies, 0u + r.residency[0].size());
  for (std::size_t i = 0; i < prof.object_count(); ++i) {
    const bool first = r.residency[0][i];
    for (std::size_t ph = 1; ph < r.residency.size(); ++ph) {
      if (!first) {
        EXPECT_FALSE(r.residency[ph][i]);
      }
    }
  }
}

TEST(OverlayGreedy, FeasibleAndAccountsCopies) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult g = allocate_overlay_greedy(p);
  for (const auto& phase_res : g.residency) {
    Bytes used = 0;
    for (std::size_t i = 0; i < phase_res.size(); ++i) {
      if (phase_res[i]) used += p.sizes[i];
    }
    EXPECT_LE(used, p.capacity);
  }
  EXPECT_FALSE(g.exact);
  EXPECT_GE(g.predicted_energy, 0.0);
}

TEST(OverlayGreedy, NotBetterThanExactOnModel) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult exact = allocate_overlay(p);
  const OverlayResult greedy = allocate_overlay_greedy(p);
  EXPECT_GE(greedy.predicted_energy, exact.predicted_energy - 1e-6);
}

TEST(OverlaySim, CountersConsistent) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayResult r = allocate_overlay(rig.problem(prof));
  const OverlaySimReport rep =
      simulate_overlay(rig.tp, rig.layout, rig.exec.walk, prof, r.residency,
                       rig.cache, rig.energies);
  EXPECT_EQ(rep.sim.counters.total_fetches, rig.exec.total_fetches);
  EXPECT_EQ(rep.sim.counters.total_fetches,
            rep.sim.counters.spm_accesses + rep.sim.counters.cache_accesses);
  EXPECT_EQ(rep.copies, r.copies);
  EXPECT_GT(rep.copy_energy, 0.0);
}

TEST(OverlaySim, DynamicBeatsStaticInSimulationToo) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  const OverlayProblem p = rig.problem(prof);
  const OverlayResult dyn = allocate_overlay(p);
  const OverlayResult fixed = allocate_static(p);
  const OverlaySimReport sim_dyn =
      simulate_overlay(rig.tp, rig.layout, rig.exec.walk, prof, dyn.residency,
                       rig.cache, rig.energies);
  const OverlaySimReport sim_fix =
      simulate_overlay(rig.tp, rig.layout, rig.exec.walk, prof,
                       fixed.residency, rig.cache, rig.energies);
  EXPECT_LT(sim_dyn.total_energy(), sim_fix.total_energy());
}

TEST(OverlaySim, ResidencySizeValidated) {
  const TwoPhaseRig rig;
  const PhaseProfile prof = rig.profile(2);
  std::vector<std::vector<bool>> bad(1);  // wrong phase count
  EXPECT_THROW(simulate_overlay(rig.tp, rig.layout, rig.exec.walk, prof, bad,
                                rig.cache, rig.energies),
               PreconditionError);
}

/// A one-phase overlay is a static allocation paid for once: its report
/// must be simulate_spm_system's on the same mask — every counter,
/// evictions included, and the energies bit for bit — with the copy-in
/// cycles on top, and it must record the same sim.* / cache.* metrics.
class OverlayOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(OverlayOracle, OnePhaseEqualsTheStaticSimulation) {
  const prog::Program program = workloads::by_name(GetParam());
  const trace::ExecutionResult exec = trace::Executor::run(program);
  for (const unsigned ways : {1u, 2u}) {
    cachesim::CacheConfig cache = workloads::paper_cache_for(GetParam());
    cache.associativity = ways;
    traceopt::TraceFormationOptions topt;
    topt.cache_line_size = cache.line_size;
    topt.max_trace_size = 512;
    const traceopt::TraceProgram tp =
        traceopt::form_traces(program, exec.profile, topt);
    const traceopt::Layout layout = traceopt::layout_all(tp);
    const energy::EnergyTable energies =
        energy::EnergyTable::build(cache, 512, 0, 0);
    PhaseProfileOptions popt;
    popt.phase_count = 1;
    popt.cache = cache;
    const PhaseProfile prof =
        build_phase_profile(tp, layout, exec.walk, popt);

    // Every third object on the scratchpad: a mask with both tiers busy.
    std::vector<bool> mask(tp.object_count());
    const memsim::LatencyParams lat;
    std::uint64_t copy_cycles = 0;
    for (std::size_t i = 0; i < mask.size(); i += 3) {
      mask[i] = true;
      const std::uint64_t words = tp.objects()[i].raw_size / kWordBytes;
      copy_cycles +=
          lat.miss_base_penalty + words * (lat.miss_per_word + lat.spm_access);
    }

    obs::MetricsRegistry overlay_reg;
    memsim::SimOptions oopt;
    oopt.metrics = &overlay_reg;
    const OverlaySimReport overlay = simulate_overlay(
        tp, layout, exec.walk, prof, {mask}, cache, energies, oopt);
    obs::MetricsRegistry direct_reg;
    memsim::SimOptions dopt;
    dopt.metrics = &direct_reg;
    const memsim::SimReport direct = memsim::simulate_spm_system(
        tp, layout, exec.walk, mask, cache, energies, dopt);

    memsim::SimCounters expected = direct.counters;
    expected.cycles += copy_cycles;
    EXPECT_EQ(overlay.sim.counters, expected) << ways << "-way";
    EXPECT_GT(overlay.sim.counters.cache_evictions, 0u) << ways << "-way";
    EXPECT_EQ(overlay.sim.spm_energy, direct.spm_energy) << ways << "-way";
    EXPECT_EQ(overlay.sim.cache_energy, direct.cache_energy) << ways << "-way";
    EXPECT_EQ(overlay.sim.total_energy, direct.total_energy) << ways << "-way";
    EXPECT_EQ(overlay.copies, (mask.size() + 2) / 3) << ways << "-way";

    const obs::MetricsSnapshot o = overlay_reg.snapshot();
    const obs::MetricsSnapshot d = direct_reg.snapshot();
    for (const char* key : {"sim.fetches", "sim.spm_accesses", "cache.hits",
                            "cache.misses", "cache.evictions"}) {
      EXPECT_EQ(o.counters.at(key), d.counters.at(key))
          << key << ", " << ways << "-way";
    }
    EXPECT_EQ(o.counters.at("sim.cycles"), d.counters.at("sim.cycles") +
                                               copy_cycles)
        << ways << "-way";
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OverlayOracle,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

TEST(OverlayBeam, NeverLosesToStaticOnRealWorkload) {
  // Large instances route to the beam-DP path; seeding every pool with the
  // merged-profile residency guarantees it can always reproduce the static
  // solution, so its model energy must be <= static's.
  const prog::Program program = workloads::make_g721();
  const auto exec = trace::Executor::run(program);
  const auto cache = workloads::paper_cache_for("g721");
  for (const Bytes spm : {256u, 1024u}) {
    traceopt::TraceFormationOptions topt;
    topt.cache_line_size = cache.line_size;
    topt.max_trace_size = spm;
    const auto tp = traceopt::form_traces(program, exec.profile, topt);
    const auto layout = traceopt::layout_all(tp);
    PhaseProfileOptions popt;
    popt.phase_count = 4;
    popt.cache = cache;
    const PhaseProfile prof =
        build_phase_profile(tp, layout, exec.walk, popt);
    const auto energies = energy::EnergyTable::build(cache, spm, 0, 0);
    const OverlayProblem p = OverlayProblem::from(prof, tp, energies, spm);
    const OverlayResult dyn = allocate_overlay(p);
    const OverlayResult fixed = allocate_static(p);
    EXPECT_LE(dyn.predicted_energy, fixed.predicted_energy + 1e-6)
        << "spm " << spm;
  }
}

}  // namespace
}  // namespace casa::overlay
