#include <gtest/gtest.h>

#include "casa/data/data_sim.hpp"
#include "casa/data/unified_alloc.hpp"
#include "casa/prog/builder.hpp"
#include "casa/trace/executor.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::data {
namespace {

using prog::FunctionScope;
using prog::ProgramBuilder;

cachesim::CacheConfig small_dcache() {
  cachesim::CacheConfig c;
  c.size = 128;
  c.line_size = 16;
  return c;
}

struct Rig {
  prog::Program program;
  trace::ExecutionResult exec;
  DataSpec spec;

  Rig() : program(make()), exec(trace::Executor::run(program)) {
    const auto fn = [&](const char* n) {
      for (const auto& f : program.functions()) {
        if (f.name() == n) return f.id();
      }
      throw PreconditionError("no fn");
    };
    const auto a = spec.add_object("array_a", 256);
    const auto b = spec.add_object("array_b", 256);
    const auto s = spec.add_object("scalars", 16);
    spec.bind(a, fn("work1"), 0.5);
    spec.bind(b, fn("work2"), 0.5);
    spec.bind(s, fn("work1"), 0.25, /*sequential=*/false);
  }

  static prog::Program make() {
    ProgramBuilder b("d");
    b.function("main", [](FunctionScope& f) {
      f.loop(1000, [](FunctionScope& l) {
        l.call("work1");
        l.call("work2");
      });
    });
    b.function("work1", [](FunctionScope& f) { f.code(64, "w1"); });
    b.function("work2", [](FunctionScope& f) { f.code(64, "w2"); });
    return b.build();
  }
};

TEST(DataSpec, ValidatesInputs) {
  DataSpec s;
  EXPECT_THROW(s.add_object("x", 0), PreconditionError);
  EXPECT_THROW(s.add_object("x", 10), PreconditionError);
  const auto a = s.add_object("ok", 64);
  EXPECT_THROW(s.bind(a + 1, FunctionId(0), 0.5), PreconditionError);
  EXPECT_THROW(s.bind(a, FunctionId(0), 0.0), PreconditionError);
  s.bind(a, FunctionId(0), 0.5);
  EXPECT_EQ(s.total_size(), 64u);
}

TEST(DataSim, AccessCountsTrackBindingRates) {
  const Rig rig;
  const DataProfile prof = profile_data(rig.program, rig.exec.walk, rig.spec,
                                        small_dcache());
  // work1 executes 1000 times x 16 words x 0.5 = ~8000 accesses to array_a.
  EXPECT_NEAR(static_cast<double>(prof.accesses[0]), 8000.0, 80.0);
  EXPECT_NEAR(static_cast<double>(prof.accesses[1]), 8000.0, 80.0);
  EXPECT_NEAR(static_cast<double>(prof.accesses[2]), 4000.0, 40.0);
  EXPECT_EQ(prof.total_accesses,
            prof.accesses[0] + prof.accesses[1] + prof.accesses[2]);
}

TEST(DataSim, StreamingArraysConflictInSmallDCache) {
  // Two 256 B arrays streamed alternately through a 128 B D-cache must
  // evict each other.
  const Rig rig;
  const DataProfile prof = profile_data(rig.program, rig.exec.walk, rig.spec,
                                        small_dcache());
  EXPECT_GT(prof.graph.miss_weight(MemoryObjectId(0), MemoryObjectId(1)) +
                prof.graph.miss_weight(MemoryObjectId(1), MemoryObjectId(0)),
            1000u);
}

TEST(DataSim, HitsPlusMissesEqualAccesses) {
  const Rig rig;
  const DataProfile prof = profile_data(rig.program, rig.exec.walk, rig.spec,
                                        small_dcache());
  for (std::size_t i = 0; i < rig.spec.objects().size(); ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    EXPECT_EQ(prof.graph.hits(mo) + prof.graph.total_misses(mo),
              prof.accesses[i]);
  }
}

TEST(DataSim, SimulationMatchesProfileWhenNothingPlaced) {
  const Rig rig;
  const DataProfile prof = profile_data(rig.program, rig.exec.walk, rig.spec,
                                        small_dcache());
  const DataEnergy e = DataEnergy::build(small_dcache(), 256);
  const std::vector<bool> none(rig.spec.objects().size(), false);
  const DataSimReport sim = simulate_data(rig.program, rig.exec.walk,
                                          rig.spec, none, small_dcache(), e);
  EXPECT_EQ(sim.total_accesses, prof.total_accesses);
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < rig.spec.objects().size(); ++i) {
    misses += prof.graph.total_misses(MemoryObjectId((std::uint32_t)i));
  }
  EXPECT_EQ(sim.dcache_misses, misses);
}

TEST(DataSim, PlacingArrayKillsItsTraffic) {
  const Rig rig;
  const DataEnergy e = DataEnergy::build(small_dcache(), 256);
  std::vector<bool> on_spm(rig.spec.objects().size(), false);
  on_spm[0] = true;
  const DataSimReport sim = simulate_data(rig.program, rig.exec.walk,
                                          rig.spec, on_spm, small_dcache(), e);
  EXPECT_GT(sim.spm_accesses, 0u);
  const std::vector<bool> none(rig.spec.objects().size(), false);
  const DataSimReport base = simulate_data(rig.program, rig.exec.walk,
                                           rig.spec, none, small_dcache(), e);
  EXPECT_LT(sim.total_energy, base.total_energy);
  EXPECT_LT(sim.dcache_misses, base.dcache_misses);
}

TEST(DataSim, EnergyComesFromTheCounters) {
  // The same form as memsim::report_from_counters: per-access adds would
  // drift from it in the last bits.
  const Rig rig;
  const DataEnergy e = DataEnergy::build(small_dcache(), 256);
  for (const std::vector<bool>& on_spm :
       {std::vector<bool>{false, false, false},
        std::vector<bool>{true, false, false},
        std::vector<bool>{false, true, true}}) {
    const DataSimReport sim = simulate_data(
        rig.program, rig.exec.walk, rig.spec, on_spm, small_dcache(), e);
    ASSERT_EQ(sim.spm_accesses + sim.dcache_hits + sim.dcache_misses,
              sim.total_accesses);
    EXPECT_EQ(sim.total_energy,
              static_cast<double>(sim.spm_accesses) * e.spm_access +
                  (static_cast<double>(sim.dcache_hits) * e.dcache_hit +
                   static_cast<double>(sim.dcache_misses) * e.dcache_miss));
  }
}

TEST(DataSim, DeterministicAcrossRuns) {
  const Rig rig;
  const DataProfile a = profile_data(rig.program, rig.exec.walk, rig.spec,
                                     small_dcache());
  const DataProfile b = profile_data(rig.program, rig.exec.walk, rig.spec,
                                     small_dcache());
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
}

TEST(DataSpecs, BundledWorkloadsHaveSpecs) {
  for (const char* name : {"adpcm", "g721", "gsm"}) {
    const prog::Program p = workloads::by_name(name);
    const DataSpec spec = data_spec_for(p, name);
    EXPECT_GE(spec.objects().size(), 4u) << name;
    EXPECT_GE(spec.bindings().size(), 4u) << name;
  }
  const prog::Program p = workloads::make_epic();
  EXPECT_THROW(data_spec_for(p, "epic"), PreconditionError);
}

// -------------------------------------------------------------- unified ---

UnifiedProblem unified_problem(const conflict::ConflictGraph& code,
                               const conflict::ConflictGraph& dat) {
  UnifiedProblem p;
  p.code_graph = &code;
  p.code_sizes = {64, 64};
  p.data_graph = &dat;
  p.data_sizes = {64, 64};
  p.capacity = 128;
  p.e_icache_hit = 1.0;
  p.e_icache_miss = 30.0;
  p.e_dcache_hit = 1.2;
  p.e_dcache_miss = 32.0;
  p.e_spm = 0.4;
  return p;
}

conflict::ConflictGraph two_node_graph(std::uint64_t f0, std::uint64_t f1,
                                       std::uint64_t mutual) {
  std::vector<conflict::Edge> edges;
  if (mutual > 0) {
    edges.push_back({MemoryObjectId(0), MemoryObjectId(1), mutual});
    edges.push_back({MemoryObjectId(1), MemoryObjectId(0), mutual});
  }
  return conflict::ConflictGraph(2, {f0, f1}, {0, 0},
                                 {f0 - mutual, f1 - mutual},
                                 std::move(edges));
}

TEST(Unified, PrefersConflictHeavyDataOverHotCode) {
  // Code: hot but conflict-free. Data: cooler but thrashing pair. With room
  // for two objects, cache-aware allocation takes the data pair's endpoint
  // + hottest code; Steinke takes the two hottest by linear value.
  const auto code = two_node_graph(10000, 9000, 0);
  const auto dat = two_node_graph(3000, 2900, 2500);
  const UnifiedProblem p = unified_problem(code, dat);

  const UnifiedResult aware = allocate_unified(p);
  const UnifiedResult blind = allocate_unified_steinke(p);

  // Cache-aware must cover the data conflict.
  EXPECT_TRUE(aware.data_on_spm[0] || aware.data_on_spm[1]);
  // Conflict-blind picks the two hottest (both code).
  EXPECT_TRUE(blind.code_on_spm[0]);
  EXPECT_TRUE(blind.code_on_spm[1]);
  EXPECT_GT(aware.predicted_saving, blind.predicted_saving);
}

TEST(Unified, CapacityShared) {
  const auto code = two_node_graph(10000, 9000, 0);
  const auto dat = two_node_graph(8000, 7000, 0);
  UnifiedProblem p = unified_problem(code, dat);
  p.capacity = 128;
  const UnifiedResult r = allocate_unified(p);
  EXPECT_LE(r.used_bytes, p.capacity);
  int placed = 0;
  for (const bool b : r.code_on_spm) placed += b;
  for (const bool b : r.data_on_spm) placed += b;
  EXPECT_EQ(placed, 2);
}

TEST(Unified, RestrictedVariantsRespectSides) {
  const auto code = two_node_graph(10000, 9000, 0);
  const auto dat = two_node_graph(8000, 7000, 0);
  const UnifiedProblem p = unified_problem(code, dat);
  const UnifiedResult c = allocate_code_only(p);
  for (const bool b : c.data_on_spm) EXPECT_FALSE(b);
  const UnifiedResult d = allocate_data_only(p);
  for (const bool b : d.code_on_spm) EXPECT_FALSE(b);
  // Unified dominates both restrictions on the model objective.
  const UnifiedResult u = allocate_unified(p);
  EXPECT_GE(u.predicted_saving, c.predicted_saving - 1e-9);
  EXPECT_GE(u.predicted_saving, d.predicted_saving - 1e-9);
}

TEST(Unified, ValidationCatchesBadEnergies) {
  const auto code = two_node_graph(100, 100, 0);
  const auto dat = two_node_graph(100, 100, 0);
  UnifiedProblem p = unified_problem(code, dat);
  p.e_spm = 5.0;
  EXPECT_THROW(allocate_unified(p), PreconditionError);
}

}  // namespace
}  // namespace casa::data
