// Solver-runtime benchmark (paper §4: "the maximum runtime of the ILP
// solver for our set of real-life benchmarks (upto 19.5kBytes program size)
// was found to be less than a second").
//
// Measures, per workload at its largest paper scratchpad size: the
// specialized branch & bound, the generic ILP with the tight linearization,
// and (on the small instance) the paper's literal linearization.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "casa/baseline/steinke.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/core/formulation.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/ilp/branch_bound.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

/// Cached per-workload problem instance (profiling is not what we measure).
struct Instance {
  prog::Program program;
  core::SavingsProblem sp;
};

const Instance& instance(const std::string& name, Bytes spm) {
  static std::map<std::string, std::unique_ptr<Instance>> cache;
  const std::string key = name + "/" + std::to_string(spm);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto inst = std::make_unique<Instance>(
      Instance{workloads::by_name(name), core::SavingsProblem{}});
  const auto exec = trace::Executor::run(inst->program);
  const auto cache_cfg = workloads::paper_cache_for(name);
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = cache_cfg.line_size;
  topt.max_trace_size = spm;
  const auto tp = traceopt::form_traces(inst->program, exec.profile, topt);
  const auto layout = traceopt::layout_all(tp);
  conflict::BuildOptions bopt;
  bopt.cache = cache_cfg;
  const auto graph =
      conflict::build_conflict_graph(tp, layout, exec.walk, bopt);
  const auto energies = energy::EnergyTable::build(cache_cfg, spm, 0, 0);
  inst->sp = core::presolve(
      core::CasaProblem::from(tp, graph, energies, spm));
  it = cache.emplace(key, std::move(inst)).first;
  return *it->second;
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
                       Bytes spm) {
  const Instance& inst = instance(name, spm);
  ilp::SolveStats stats;
  for (auto _ : state) {
    core::CasaBranchBound solver;
    const core::CasaBranchBoundResult r = solver.solve(inst.sp);
    benchmark::DoNotOptimize(r.saving);
    stats = r.stats;
  }
  report_search(state, stats);
  state.counters["items"] = static_cast<double>(inst.sp.item_count());
  state.counters["edges"] = static_cast<double>(inst.sp.edges.size());
}

void BM_GenericIlpTight(benchmark::State& state, const std::string& name,
                        Bytes spm) {
  const Instance& inst = instance(name, spm);
  ilp::SolveStats stats;
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(inst.sp, core::Linearization::kTight);
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
  const Instance& inst = instance(name, spm);
  ilp::SolveStats stats;
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(inst.sp, core::Linearization::kTight);
    ilp::BranchAndBoundOptions opt;
    opt.warm_hint = core::warm_assignment(
        cm, inst.sp,
        baseline::knapsack_seed(inst.sp.weight, inst.sp.value,
                                inst.sp.capacity));
    opt.branch_priority.assign(cm.model.var_count(), 0);
    for (const VarId l : cm.l_vars) opt.branch_priority[l.index()] = 1;
    ilp::BranchAndBound solver(opt);
    benchmark::DoNotOptimize(solver.solve(cm.model));
    stats = solver.last_stats();
  }
  report_search(state, stats);
  state.counters["items"] = static_cast<double>(inst.sp.item_count());
}

void BM_GenericIlpPaperLinearization(benchmark::State& state,
                                     const std::string& name, Bytes spm) {
  const Instance& inst = instance(name, spm);
  for (auto _ : state) {
    const core::CasaModel cm =
        core::build_casa_model(inst.sp, core::Linearization::kPaper);
    ilp::BranchAndBoundOptions opt;
    opt.branch_priority.assign(cm.model.var_count(), 0);
    for (const VarId l : cm.l_vars) opt.branch_priority[l.index()] = 1;
    ilp::BranchAndBound solver(opt);
    benchmark::DoNotOptimize(solver.solve(cm.model));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_SpecializedBnB, adpcm_256, "adpcm", 256);
BENCHMARK_CAPTURE(BM_SpecializedBnB, g721_1024, "g721", 1024);
BENCHMARK_CAPTURE(BM_SpecializedBnB, mpeg_1024, "mpeg", 1024);
BENCHMARK_CAPTURE(BM_GenericIlpTight, adpcm_256, "adpcm", 256);
BENCHMARK_CAPTURE(BM_GenericIlpTight, g721_512, "g721", 512);
BENCHMARK_CAPTURE(BM_GenericIlpWarmStarted, mpeg_1024, "mpeg", 1024);
BENCHMARK_CAPTURE(BM_GenericIlpPaperLinearization, adpcm_64, "adpcm", 64);

BENCHMARK_MAIN();
