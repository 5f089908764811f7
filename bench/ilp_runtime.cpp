// Solver-runtime benchmark (paper §4: "the maximum runtime of the ILP
// solver for our set of real-life benchmarks (upto 19.5kBytes program size)
// was found to be less than a second").
//
// Measures, per workload at its largest paper scratchpad size: the
// specialized branch & bound, the generic ILP with the tight linearization,
// and (on the small instance) the paper's literal linearization. Every
// instance is the presolved problem the allocator solves: the traces,
// layout and energy table come from Workbench::prepare_job on the default
// profile, the conflict graph from conflict::build_conflict_graph, so
// BM_SpecializedBnB/g721_1024 is Table 1's g721@1024 solve. One more
// specialized instance comes from the mpeg design-space sweep: 16 B lines,
// a 1 KiB 2-way I-cache and a 1024 B scratchpad, a dense conflict graph
// on which the specialized engine's Lagrangian bound prunes little and
// backs off.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "casa/baseline/steinke.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/core/formulation.hpp"
#include "casa/ilp/branch_bound.hpp"
#include "casa/report/workbench.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

/// A workload's program and its default-profile Workbench (profiling is
/// not what we measure).
struct Workload {
  prog::Program program;
  std::unique_ptr<report::Workbench> bench;
};

const report::Workbench& workbench(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Workload>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto w = std::make_unique<Workload>();
    w->program = workloads::by_name(name);
    w->bench = std::make_unique<report::Workbench>(w->program);
    it = cache.emplace(name, std::move(w)).first;
  }
  return *it->second->bench;
}

/// The presolved problem CasaAllocator solves for `name` under `cache`
/// with a `spm`-byte scratchpad, built once.
const core::SavingsProblem& instance(const std::string& name, Bytes spm,
                                     const cachesim::CacheConfig& cache) {
  static std::map<std::string, core::SavingsProblem> problems;
  const std::string key = name + "/" + std::to_string(spm) + "/" +
                          std::to_string(cache.size) + "/" +
                          std::to_string(cache.line_size) + "/" +
                          std::to_string(cache.associativity);
  auto it = problems.find(key);
  if (it != problems.end()) return it->second;

  const report::Workbench& bench = workbench(name);
  // The greedy engine keeps set-up cheap; the solves under test run below.
  core::CasaOptions greedy;
  greedy.engine = core::CasaEngine::kGreedy;
  const report::Workbench::PreparedJob pj = bench.prepare_job(
      report::Workbench::Job::casa_job(cache, spm, greedy), nullptr);
  conflict::BuildOptions bopt;
  bopt.cache = cache;
  const conflict::ConflictGraph graph = conflict::build_conflict_graph(
      *pj.tp, *pj.layout, bench.execution().walk, bopt);
  return problems
      .emplace(key, core::presolve(core::CasaProblem::from(
                        *pj.tp, graph, pj.energies, spm)))
      .first->second;
}

/// Table 1's instance: the workload's paper cache.
const core::SavingsProblem& instance(const std::string& name, Bytes spm) {
  return instance(name, spm, workloads::paper_cache_for(name));
}

/// An LRU I-cache of the design-space sweep's geometries.
cachesim::CacheConfig sweep_cache(Bytes size, Bytes line,
                                  unsigned associativity) {
  cachesim::CacheConfig cache;
  cache.size = size;
  cache.line_size = line;
  cache.associativity = associativity;
  return cache;
}

/// Records the search effort of the last solve. Both counts are
/// deterministic, so tools/bench_check.sh gates them exactly: a changed
/// branching order or pivot path fails even when wall-clock does not move.
void report_search(benchmark::State& state, const ilp::SolveStats& stats) {
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["simplex_iterations"] =
      static_cast<double>(stats.simplex_iterations);
}

void BM_SpecializedBnB(benchmark::State& state, const std::string& name,
                       Bytes spm, const cachesim::CacheConfig& cache) {
  const core::SavingsProblem& sp = instance(name, spm, cache);
  ilp::SolveStats stats;
  for (auto _ : state) {
    core::CasaBranchBound solver;
    const core::CasaBranchBoundResult r = solver.solve(sp);
    benchmark::DoNotOptimize(r.saving);
    stats = r.stats;
  }
  report_search(state, stats);
  state.counters["items"] = static_cast<double>(sp.item_count());
  state.counters["edges"] = static_cast<double>(sp.edges.size());
}

void BM_GenericIlpTight(benchmark::State& state, const std::string& name,
                        Bytes spm) {
  const core::SavingsProblem& sp = instance(name, spm);
  ilp::SolveStats stats;
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(sp, core::Linearization::kTight);
    ilp::BranchAndBound solver;
    benchmark::DoNotOptimize(solver.solve(cm.model));
    stats = solver.last_stats();
  }
  report_search(state, stats);
}

/// The production configuration of the generic solver on the largest
/// bundled workload: presolve + knapsack warm start + branch priorities,
/// tight linearization. Reports the explored node count as a counter so
/// tools/bench_check.sh can gate search effort alongside wall-clock.
void BM_GenericIlpWarmStarted(benchmark::State& state, const std::string& name,
                              Bytes spm) {
  const core::SavingsProblem& sp = instance(name, spm);
  ilp::SolveStats stats;
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(sp, core::Linearization::kTight);
    ilp::BranchAndBoundOptions opt;
    opt.warm_hint = core::warm_assignment(
        cm, sp, baseline::knapsack_seed(sp.weight, sp.value, sp.capacity));
    opt.branch_priority.assign(cm.model.var_count(), 0);
    for (const VarId l : cm.l_vars) opt.branch_priority[l.index()] = 1;
    ilp::BranchAndBound solver(opt);
    benchmark::DoNotOptimize(solver.solve(cm.model));
    stats = solver.last_stats();
  }
  report_search(state, stats);
  state.counters["items"] = static_cast<double>(sp.item_count());
}

void BM_GenericIlpPaperLinearization(benchmark::State& state,
                                     const std::string& name, Bytes spm) {
  const core::SavingsProblem& sp = instance(name, spm);
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(sp, core::Linearization::kPaper);
    ilp::BranchAndBoundOptions opt;
    opt.branch_priority.assign(cm.model.var_count(), 0);
    for (const VarId l : cm.l_vars) opt.branch_priority[l.index()] = 1;
    ilp::BranchAndBound solver(opt);
    benchmark::DoNotOptimize(solver.solve(cm.model));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_SpecializedBnB, adpcm_256, "adpcm", 256,
                  workloads::paper_cache_for("adpcm"));
BENCHMARK_CAPTURE(BM_SpecializedBnB, g721_1024, "g721", 1024,
                  workloads::paper_cache_for("g721"));
BENCHMARK_CAPTURE(BM_SpecializedBnB, mpeg_1024, "mpeg", 1024,
                  workloads::paper_cache_for("mpeg"));
BENCHMARK_CAPTURE(BM_SpecializedBnB, mpeg_L16_1K_2w_1024, "mpeg", 1024,
                  sweep_cache(1024, 16, 2));
BENCHMARK_CAPTURE(BM_GenericIlpTight, adpcm_256, "adpcm", 256);
BENCHMARK_CAPTURE(BM_GenericIlpTight, g721_512, "g721", 512);
BENCHMARK_CAPTURE(BM_GenericIlpWarmStarted, mpeg_1024, "mpeg", 1024);
BENCHMARK_CAPTURE(BM_GenericIlpPaperLinearization, adpcm_64, "adpcm", 64);

BENCHMARK_MAIN();
