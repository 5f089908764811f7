#include "casa/report/workbench.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "casa/check/rules.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/error.hpp"
#include "casa/traceopt/layout.hpp"

namespace casa::report {

namespace {

trace::ExecutorOptions exec_opts(const WorkbenchOptions& o) {
  trace::ExecutorOptions e;
  e.seed = o.exec_seed;
  return e;
}

memsim::SimOptions sim_opts(obs::MetricsRegistry* reg) {
  memsim::SimOptions s;
  s.metrics = reg;
  return s;
}

/// Allocation telemetry shared by every solving flow. Counters sum across
/// run_many jobs; per-run quantities (tree depth, solve time) go in as
/// distributions so merging keeps min/max instead of a meaningless sum.
void record_alloc(obs::MetricsRegistry* reg, const core::AllocationResult& a) {
  if (reg == nullptr) return;
  reg->add(obs::metric_names::kSolverNodes, a.solver_stats.nodes);
  reg->add(obs::metric_names::kSolverIncumbentUpdates,
           a.solver_stats.incumbent_updates);
  reg->add(obs::metric_names::kSolverBoundPrunes, a.solver_stats.bound_prunes);
  reg->add(obs::metric_names::kSolverInfeasiblePrunes,
           a.solver_stats.infeasible_prunes);
  reg->add(obs::metric_names::kSolverSimplexIterations,
           a.solver_stats.simplex_iterations);
  reg->add(obs::metric_names::kSolverPresolvedItems, a.presolved_items);
  reg->add(obs::metric_names::kSolverPresolvedEdges, a.presolved_edges);
  reg->observe(obs::metric_names::kSolverMaxDepth,
               static_cast<double>(a.solver_stats.max_depth));
  reg->observe(obs::metric_names::kSolverSeconds, a.solve_seconds);
  reg->observe(obs::metric_names::kAllocSpmUsedBytes,
               static_cast<double>(a.used_bytes));
  // Generic-ILP search telemetry: how much work presolve and the warm
  // start removed, and whether any LP relaxation ran into its pivot budget.
  reg->add(obs::metric_names::kIlpPresolveFixed, a.solver_stats.presolve_fixed);
  reg->add(obs::metric_names::kIlpWarmstartUsed,
           a.solver_stats.warm_start_used ? 1 : 0);
  reg->add(obs::metric_names::kIlpWarmstartRcFixed, a.solver_stats.rc_fixed);
  reg->observe(obs::metric_names::kIlpWarmstartRootGap, a.solver_stats.root_gap);
  reg->add(obs::metric_names::kIlpLpLimitRetries, a.solver_stats.lp_limit_retries);
  reg->add(obs::metric_names::kIlpSubtrees, a.solver_stats.subtrees);
}

/// Inter-stage analyzer handle: null when checking is disabled. Stages
/// validate their freshly produced artifact and escalate immediately, so a
/// broken artifact never reaches the next stage.
std::unique_ptr<check::CheckRunner> make_checker(const WorkbenchOptions& o,
                                                 obs::MetricsRegistry* reg) {
  if (!o.check_artifacts) return nullptr;
  return std::make_unique<check::CheckRunner>(reg);
}

/// Span name of a job kind's flow — identical whether the flow runs whole
/// (run_*) or staged (prepare_job / finish_*), so dashboards see one path.
const char* flow_name(Workbench::Job::Kind kind) {
  switch (kind) {
    case Workbench::Job::Kind::kCasa:
      return "run_casa";
    case Workbench::Job::Kind::kSteinke:
      return "run_steinke";
    case Workbench::Job::Kind::kLoopCache:
      return "run_loopcache";
    case Workbench::Job::Kind::kCacheOnly:
      return "run_cache_only";
  }
  return "run_unknown";
}

/// Stable error classification for JobResult: most-derived types first so
/// a transient fault never reads as a generic casa::Error. The kinds are
/// part of the batch API (drivers switch on them), so keep them stable.
void classify_error(const std::exception_ptr& err, std::string& kind,
                    std::string& message) {
  try {
    std::rethrow_exception(err);
  } catch (const fault::TransientError& e) {
    kind = "transient";
    message = e.what();
  } catch (const fault::FaultError& e) {
    kind = "fault";
    message = e.what();
  } catch (const check::CheckError& e) {
    kind = "check";
    message = e.what();
  } catch (const PreconditionError& e) {
    kind = "precondition";
    message = e.what();
  } catch (const SolveError& e) {
    kind = "solve";
    message = e.what();
  } catch (const Error& e) {
    kind = "casa";
    message = e.what();
  } catch (const std::exception& e) {
    kind = "std";
    message = e.what();
  } catch (...) {
    kind = "unknown";
    message = "non-standard exception";
  }
}

}  // namespace

std::string_view to_string(FlowKind kind) {
  switch (kind) {
    case FlowKind::kCasa:
      return "casa";
    case FlowKind::kSteinke:
      return "steinke";
    case FlowKind::kLoopCache:
      return "loopcache";
    case FlowKind::kCacheOnly:
      return "cache_only";
  }
  return "?";
}

FlowError::FlowError(std::string_view accessor, FlowKind flow)
    : Error("Outcome::" + std::string(accessor) +
            "() read off the wrong flow: this outcome is from the '" +
            std::string(to_string(flow)) + "' flow"),
      accessor_(accessor),
      flow_(flow) {}

std::size_t Outcome::conflict_edges() const {
  if (flow_ != FlowKind::kCasa) throw FlowError("conflict_edges", flow_);
  return conflict_edges_;
}

unsigned Outcome::lc_regions() const {
  if (flow_ != FlowKind::kLoopCache) throw FlowError("lc_regions", flow_);
  return lc_regions_;
}

const core::AllocationResult& Outcome::alloc() const {
  if (flow_ != FlowKind::kCasa) throw FlowError("alloc", flow_);
  return alloc_;
}

void Outcome::set_conflict_edges(std::size_t edges) {
  if (flow_ != FlowKind::kCasa) throw FlowError("set_conflict_edges", flow_);
  conflict_edges_ = edges;
}

void Outcome::set_lc_regions(unsigned regions) {
  if (flow_ != FlowKind::kLoopCache) throw FlowError("set_lc_regions", flow_);
  lc_regions_ = regions;
}

void Outcome::set_alloc(core::AllocationResult alloc) {
  if (flow_ != FlowKind::kCasa) throw FlowError("set_alloc", flow_);
  alloc_ = std::move(alloc);
}

Workbench::Workbench(const prog::Program& program, WorkbenchOptions opt)
    : program_(&program),
      opt_(opt),
      exec_(trace::Executor::run(program, exec_opts(opt))) {}

Bytes Workbench::trace_budget(const Job& job) {
  // Traces must stay individually placeable (paper §3.2) but never smaller
  // than one line.
  const Bytes budget = job.kind == Job::Kind::kCacheOnly ? 1_KiB : job.size;
  return std::max<Bytes>(budget, job.cache.line_size);
}

traceopt::TraceProgram Workbench::form(const Job& job) const {
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = job.cache.line_size;
  topt.max_trace_size = trace_budget(job);
  topt.fuse_ratio = opt_.fuse_ratio;
  return traceopt::form_traces(*program_, exec_.profile, topt);
}

Outcome Workbench::run_casa(const cachesim::CacheConfig& cache,
                            Bytes spm_size,
                            const core::CasaOptions& copt) const {
  return run_casa_into(opt_.metrics, cache, spm_size, copt);
}

Workbench::PreparedJob Workbench::prepare_casa(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const cachesim::CacheConfig& cache, Bytes spm_size,
    const core::CasaOptions& copt,
    const conflict::ConflictGraph* given) const {
  fault::at(fault::site_names::kSimPrepare);
  PreparedJob pj;
  pj.job = Job::casa_job(cache, spm_size, copt);
  pj.partial = Outcome(FlowKind::kCasa);

  std::shared_ptr<traceopt::TraceProgram> tp;
  {
    const obs::Span s(reg, obs::trace_names::kTraceFormation);
    tp = std::make_shared<traceopt::TraceProgram>(form(pj.job));
    if (chk) {
      check::check_trace_program(*tp, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }

  std::shared_ptr<traceopt::Layout> layout;
  {
    const obs::Span s(reg, obs::trace_names::kLayout);
    layout = std::make_shared<traceopt::Layout>(traceopt::layout_all(*tp));
    if (chk) {
      check::check_layout(*tp, *layout, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }

  std::unique_ptr<conflict::ConflictGraph> built;
  const conflict::ConflictGraph* graph = given;
  {
    const obs::Span s(reg, obs::trace_names::kConflictGraph);
    if (graph == nullptr) {
      conflict::BuildOptions bopt;
      bopt.cache = cache;
      built = std::make_unique<conflict::ConflictGraph>(
          conflict::build_conflict_graph(*tp, *layout, exec_.walk, bopt));
      graph = built.get();
    }
    if (reg != nullptr) {
      reg->add(obs::metric_names::kConflictNodes, graph->node_count());
      reg->add(obs::metric_names::kConflictEdges, graph->edge_count());
    }
    if (chk) {
      check::check_conflict_graph(*tp, *layout, *graph, cache, *chk);
      chk->throw_if_errors();
    }
  }

  Outcome& out = pj.partial;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    pj.energies = energy::EnergyTable::build(cache, spm_size, 0, 0);
    const core::CasaProblem problem =
        core::CasaProblem::from(*tp, *graph, pj.energies, spm_size);
    if (chk) {
      check::check_energy_table(pj.energies, spm_size > 0, false, *chk);
      // The model the generic solver would consume must be well-formed no
      // matter which engine actually runs — the formulation stage is an
      // artifact in its own right.
      const core::SavingsProblem sp = core::presolve(problem);
      const core::CasaModel cm = core::build_casa_model(sp, copt.linearization);
      check::check_casa_model(cm, sp, copt.linearization, *chk);
      chk->throw_if_errors();
    }
    const core::CasaAllocator allocator(copt);
    fault::at(fault::site_names::kSolverAllocate);
    out.set_alloc(allocator.allocate(problem));
    record_alloc(reg, out.alloc());
    if (chk) {
      check::check_allocation(problem, out.alloc(), *chk);
      chk->throw_if_errors();
    }
    // A truncated solve must never be reported as an allocation — an empty
    // incumbent would masquerade as "nothing fits" and a partial one as the
    // optimum. This guard also covers runs with check_artifacts disabled.
    CASA_CHECK(out.alloc().solver_status == ilp::SolveStatus::kOptimal,
               "CASA solve was truncated (status " +
                   std::string(ilp::to_string(out.alloc().solver_status)) +
                   "); raise max_nodes instead of reporting a partial "
                   "allocation");
  }
  out.object_count = tp->object_count();
  out.set_conflict_edges(graph->edge_count());
  out.spm_used = out.alloc().used_bytes;

  // Copy semantics: the main-memory image keeps every object; fetches of
  // scratchpad objects simply go to the scratchpad.
  pj.on_spm = out.alloc().on_spm;
  pj.tp = std::move(tp);
  pj.layout = std::move(layout);
  return pj;
}

Outcome Workbench::run_casa_into(obs::MetricsRegistry* reg,
                                 const cachesim::CacheConfig& cache,
                                 Bytes spm_size,
                                 const core::CasaOptions& copt) const {
  const obs::Span flow(reg, obs::trace_names::kRunCasa);
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return finish_core(
      prepare_casa(reg, chk.get(), cache, spm_size, copt, nullptr), reg);
}

Outcome Workbench::run_steinke(const cachesim::CacheConfig& cache,
                               Bytes spm_size) const {
  return run_steinke_into(opt_.metrics, cache, spm_size);
}

Workbench::PreparedJob Workbench::prepare_steinke(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const cachesim::CacheConfig& cache, Bytes spm_size) const {
  fault::at(fault::site_names::kSimPrepare);
  PreparedJob pj;
  pj.job = Job::steinke_job(cache, spm_size);
  pj.partial = Outcome(FlowKind::kSteinke);

  std::shared_ptr<traceopt::TraceProgram> tp;
  {
    const obs::Span s(reg, obs::trace_names::kTraceFormation);
    tp = std::make_shared<traceopt::TraceProgram>(form(pj.job));
    if (chk) {
      check::check_trace_program(*tp, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  pj.energies = energy::EnergyTable::build(cache, spm_size, 0, 0);
  if (chk) {
    check::check_energy_table(pj.energies, spm_size > 0, false, *chk);
    chk->throw_if_errors();
  }

  baseline::SteinkeResult sel;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    sel = baseline::allocate_steinke(
        *tp, spm_size, pj.energies.cache_hit - pj.energies.spm_access);
    if (chk) {
      std::vector<Bytes> sizes;
      sizes.reserve(tp->object_count());
      for (const auto& mo : tp->objects()) sizes.push_back(mo.raw_size);
      check::check_spm_selection(sizes, spm_size, sel.on_spm, sel.used_bytes,
                                 *chk);
      chk->throw_if_errors();
    }
  }
  pj.partial.object_count = tp->object_count();
  pj.partial.spm_used = sel.used_bytes;

  std::shared_ptr<traceopt::Layout> layout;
  {
    const obs::Span s(reg, obs::trace_names::kLayout);
    if (opt_.steinke_moves) {
      // Move semantics: scratchpad objects leave the image; the residue is
      // compacted, changing every remaining object's cache mapping.
      const std::vector<bool> excluded(sel.on_spm.begin(), sel.on_spm.end());
      layout = std::make_shared<traceopt::Layout>(
          traceopt::layout_excluding(*tp, excluded));
    } else {
      layout =
          std::make_shared<traceopt::Layout>(traceopt::layout_all(*tp));
    }
    if (chk) {
      check::check_layout(*tp, *layout, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  pj.on_spm = std::move(sel.on_spm);
  pj.tp = std::move(tp);
  pj.layout = std::move(layout);
  return pj;
}

Outcome Workbench::run_steinke_into(obs::MetricsRegistry* reg,
                                    const cachesim::CacheConfig& cache,
                                    Bytes spm_size) const {
  const obs::Span flow(reg, obs::trace_names::kRunSteinke);
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return finish_core(prepare_steinke(reg, chk.get(), cache, spm_size), reg);
}

Outcome Workbench::run_loopcache(const cachesim::CacheConfig& cache,
                                 Bytes lc_size, unsigned max_regions) const {
  return run_loopcache_into(opt_.metrics, cache, lc_size, max_regions);
}

Workbench::PreparedJob Workbench::prepare_loopcache(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const cachesim::CacheConfig& cache, Bytes lc_size,
    unsigned max_regions) const {
  fault::at(fault::site_names::kSimPrepare);
  PreparedJob pj;
  pj.job = Job::loopcache_job(cache, lc_size, max_regions);
  pj.partial = Outcome(FlowKind::kLoopCache);

  // Fair comparison (paper §5): the loop-cache flow also runs on the
  // trace-formed program, laid out in full (nothing leaves the image).
  std::shared_ptr<traceopt::TraceProgram> tp;
  {
    const obs::Span s(reg, obs::trace_names::kTraceFormation);
    tp = std::make_shared<traceopt::TraceProgram>(form(pj.job));
    if (chk) {
      check::check_trace_program(*tp, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  std::shared_ptr<traceopt::Layout> layout;
  {
    const obs::Span s(reg, obs::trace_names::kLayout);
    layout = std::make_shared<traceopt::Layout>(traceopt::layout_all(*tp));
    if (chk) {
      check::check_layout(*tp, *layout, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  pj.energies = energy::EnergyTable::build(cache, 0, lc_size, max_regions);
  if (chk) {
    check::check_energy_table(pj.energies, false, lc_size > 0, *chk);
    chk->throw_if_errors();
  }

  loopcache::RossResult sel;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    const std::vector<loopcache::Region> candidates =
        loopcache::enumerate_regions(*tp, *layout, exec_.profile);
    loopcache::LoopCacheConfig lcfg;
    lcfg.size = lc_size;
    lcfg.max_regions = max_regions;
    sel = loopcache::allocate_ross(candidates, lcfg);
  }
  pj.partial.object_count = tp->object_count();
  pj.partial.spm_used = sel.used_bytes;
  pj.partial.set_lc_regions(
      static_cast<unsigned>(sel.selected.regions().size()));
  if (reg != nullptr) {
    reg->add(obs::metric_names::kLcRegions, pj.partial.lc_regions());
  }

  pj.regions =
      std::make_shared<const loopcache::RegionSet>(std::move(sel.selected));
  pj.tp = std::move(tp);
  pj.layout = std::move(layout);
  return pj;
}

Outcome Workbench::run_loopcache_into(obs::MetricsRegistry* reg,
                                      const cachesim::CacheConfig& cache,
                                      Bytes lc_size,
                                      unsigned max_regions) const {
  const obs::Span flow(reg, obs::trace_names::kRunLoopcache);
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return finish_core(
      prepare_loopcache(reg, chk.get(), cache, lc_size, max_regions), reg);
}

Outcome Workbench::run_cache_only(const cachesim::CacheConfig& cache) const {
  return run_cache_only_into(opt_.metrics, cache);
}

Workbench::PreparedJob Workbench::prepare_cache_only(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const cachesim::CacheConfig& cache) const {
  fault::at(fault::site_names::kSimPrepare);
  PreparedJob pj;
  pj.job = Job::cache_only_job(cache);
  pj.partial = Outcome(FlowKind::kCacheOnly);

  std::shared_ptr<traceopt::TraceProgram> tp;
  {
    const obs::Span s(reg, obs::trace_names::kTraceFormation);
    tp = std::make_shared<traceopt::TraceProgram>(form(pj.job));
    if (chk) {
      check::check_trace_program(*tp, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  std::shared_ptr<traceopt::Layout> layout;
  {
    const obs::Span s(reg, obs::trace_names::kLayout);
    layout = std::make_shared<traceopt::Layout>(traceopt::layout_all(*tp));
    if (chk) {
      check::check_layout(*tp, *layout, cache.line_size, *chk);
      chk->throw_if_errors();
    }
  }
  pj.energies = energy::EnergyTable::build(
      cache, /*spm_size=*/kWordBytes * 2, 0, 0);
  if (chk) {
    check::check_energy_table(pj.energies, true, false, *chk);
    chk->throw_if_errors();
  }

  pj.partial.object_count = tp->object_count();
  pj.on_spm.assign(tp->object_count(), false);
  pj.tp = std::move(tp);
  pj.layout = std::move(layout);
  return pj;
}

Outcome Workbench::run_cache_only_into(
    obs::MetricsRegistry* reg, const cachesim::CacheConfig& cache) const {
  const obs::Span flow(reg, obs::trace_names::kRunCacheOnly);
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return finish_core(prepare_cache_only(reg, chk.get(), cache), reg);
}

Workbench::PreparedJob Workbench::prepare_core(const Job& job,
                                               obs::MetricsRegistry* reg,
                                               check::CheckRunner* chk,
                                               const conflict::ConflictGraph*
                                                   graph) const {
  switch (job.kind) {
    case Job::Kind::kCasa:
      return prepare_casa(reg, chk, job.cache, job.size, job.casa, graph);
    case Job::Kind::kSteinke:
      return prepare_steinke(reg, chk, job.cache, job.size);
    case Job::Kind::kLoopCache:
      return prepare_loopcache(reg, chk, job.cache, job.size,
                               job.max_regions);
    case Job::Kind::kCacheOnly:
      return prepare_cache_only(reg, chk, job.cache);
  }
  return PreparedJob{};
}

Outcome Workbench::finish_core(const PreparedJob& pj,
                               obs::MetricsRegistry* reg) const {
  fault::at(fault::site_names::kSimFinish);
  Outcome out = pj.partial;
  const obs::Span s(reg, obs::trace_names::kSimulation);
  if (pj.regions != nullptr) {
    out.sim = memsim::simulate_loopcache_system(*pj.tp, *pj.layout, exec_.walk,
                                                *pj.regions, pj.job.cache,
                                                pj.energies, sim_opts(reg));
  } else {
    out.sim = memsim::simulate_spm_system(*pj.tp, *pj.layout, exec_.walk,
                                          pj.on_spm, pj.job.cache,
                                          pj.energies, sim_opts(reg));
  }
  return out;
}

Workbench::PreparedJob Workbench::prepare_job(
    const Job& job, obs::MetricsRegistry* reg,
    const conflict::ConflictGraph* graph) const {
  const obs::Span flow(reg, flow_name(job.kind));
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return prepare_core(job, reg, chk.get(), graph);
}

Outcome Workbench::finish_job(const PreparedJob& pj,
                              obs::MetricsRegistry* reg) const {
  const obs::Span flow(reg, flow_name(pj.job.kind));
  return finish_core(pj, reg);
}

Outcome Workbench::finish_with_counters(const PreparedJob& pj,
                                        const memsim::SimCounters& counters,
                                        obs::MetricsRegistry* reg) const {
  fault::at(fault::site_names::kSimFinish);
  const obs::Span flow(reg, flow_name(pj.job.kind));
  Outcome out = pj.partial;
  const obs::Span s(reg, obs::trace_names::kSimulation);
  out.sim = memsim::report_from_counters(counters, pj.energies,
                                         pj.regions != nullptr);
  memsim::record_sim_counters(reg, counters);
  return out;
}

Outcome Workbench::run_job(const Job& job, obs::MetricsRegistry* reg) const {
  switch (job.kind) {
    case Job::Kind::kCasa:
      return run_casa_into(reg, job.cache, job.size, job.casa);
    case Job::Kind::kSteinke:
      return run_steinke_into(reg, job.cache, job.size);
    case Job::Kind::kLoopCache:
      return run_loopcache_into(reg, job.cache, job.size, job.max_regions);
    case Job::Kind::kCacheOnly:
      return run_cache_only_into(reg, job.cache);
  }
  return Outcome{};
}

namespace {

/// The historical run_many contract: fail-fast batch, Outcome-only view.
std::vector<Outcome> outcomes_of(std::vector<JobResult> results) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(results.size());
  for (JobResult& r : results) outcomes.push_back(std::move(r.outcome));
  return outcomes;
}

}  // namespace

JobResult Workbench::evaluate(const Job& job) const {
  // Single-job evaluation is the batch containment contract without the
  // fan-out: classify-and-contain, record into options().metrics directly
  // (one job needs no shard ordering to stay deterministic).
  const BatchOptions bopt;
  return evaluate_job(job, 0, bopt, opt_.metrics);
}

std::vector<Outcome> Workbench::run_many(const std::vector<Job>& jobs,
                                         unsigned threads) const {
  BatchOptions bopt;
  bopt.threads = threads;
  return outcomes_of(evaluate_batch(jobs, bopt, nullptr));
}

std::vector<Outcome> Workbench::run_many(const std::vector<Job>& jobs,
                                         unsigned threads,
                                         sim::MetricsShards* shards) const {
  BatchOptions bopt;
  bopt.threads = threads;
  return outcomes_of(evaluate_batch(jobs, bopt, shards));
}

std::vector<JobResult> Workbench::run_jobs(const std::vector<Job>& jobs,
                                           const BatchOptions& bopt,
                                           sim::MetricsShards* shards) const {
  return evaluate_batch(jobs, bopt, shards);
}

JobResult Workbench::evaluate_job(const Job& job, std::size_t job_idx,
                                  const BatchOptions& bopt,
                                  obs::MetricsRegistry* shard) const {
  // Bind the job index as the thread's fault argument: spec clauses with
  // arg=N target exactly this job, deterministically for any schedule.
  const fault::ScopedArg scope(job_idx);
  JobResult res;
  for (unsigned attempt = 0;; ++attempt) {
    // Fresh registry per attempt, merged into the shard only on success: a
    // job that fails (or retries) mid-flow leaves no partial counts behind,
    // so merged batch metrics reflect completed jobs only.
    obs::MetricsRegistry attempt_reg;
    try {
      res.outcome = run_job(job, shard != nullptr ? &attempt_reg : nullptr);
      res.status = attempt == 0 ? JobStatus::kOk : JobStatus::kRetriedOk;
      res.attempts = attempt + 1;
      if (shard != nullptr) shard->merge_from(attempt_reg.snapshot());
      return res;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      if (attempt < bopt.max_retries && fault::is_transient(err)) {
        fault::RetryPolicy policy;
        policy.max_retries = bopt.max_retries;
        policy.backoff_us = bopt.retry_backoff_us;
        fault::backoff_sleep(policy, attempt);
        if (obs::Tracer* tracer = obs::Tracer::current()) {
          tracer->instant(obs::trace_names::kRunnerRetry,
                          static_cast<double>(attempt + 1),
                          obs::trace_names::kCatFault);
        }
        continue;
      }
      return failed_job_result(err, attempt + 1);
    }
  }
}

std::vector<JobResult> Workbench::evaluate_batch(
    std::span<const Job> jobs, const BatchOptions& bopt,
    sim::MetricsShards* shards) const {
  CASA_CHECK(shards == nullptr || shards->size() == jobs.size(),
             "MetricsShards size must match the job count");
  // Root trace span for the whole batch: every per-task flow tail the
  // runner emits lands inside it, so worker timelines link back here.
  const obs::TraceSpan batch(obs::Tracer::current(), obs::trace_names::kRunMany,
                             obs::trace_names::kCatSim);
  const fault::InjectorStats faults_before = fault::stats();
  sim::RunnerOptions ropt;
  ropt.threads = bopt.threads;
  const sim::ParallelRunner runner(ropt);

  // Identical jobs produce identical outcomes (flows are deterministic), so
  // repeated sweep points run once: each job maps to the index of its first
  // equal occurrence, duplicates copy that JobResult and record nothing.
  std::vector<std::size_t> unique;
  std::vector<std::size_t> rep_of(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::size_t rep = i;
    for (const std::size_t u : unique) {
      if (jobs[u] == jobs[i]) {
        rep = u;
        break;
      }
    }
    rep_of[i] = rep;
    if (rep == i) unique.push_back(i);
  }

  // Tasks never record into opt_.metrics directly: each gets a private
  // shard, and the shards merge in job order afterwards — that is what
  // keeps merged counters identical on 1 thread and on N.
  std::unique_ptr<sim::MetricsShards> local;
  sim::MetricsShards* sh = shards;
  if (sh == nullptr && opt_.metrics != nullptr) {
    local = std::make_unique<sim::MetricsShards>(jobs.size());
    sh = local.get();
  }

  // evaluate_job never throws — every failure is contained in its
  // JobResult — so the fan-out itself cannot abort.
  const std::vector<JobResult> evaluated = runner.map<JobResult>(
      unique.size(),
      [this, &jobs, &unique, &bopt, sh](std::size_t i, std::uint64_t) {
        // Every flow is internally seeded (executor seed fixed at
        // construction, cache seeds fixed per run_*), so the per-task seed
        // is deliberately unused: a job must produce the same outcome
        // whether it runs in a batch or alone.
        const std::size_t job_idx = unique[i];
        return evaluate_job(jobs[job_idx], job_idx, bopt,
                            sh != nullptr ? &sh->shard(job_idx) : nullptr);
      });

  std::vector<std::size_t> unique_pos(jobs.size());
  for (std::size_t i = 0; i < unique.size(); ++i) unique_pos[unique[i]] = i;
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(evaluated[unique_pos[rep_of[i]]]);
  }

  std::size_t failed = 0;
  std::size_t retried = 0;
  for (const JobResult& r : results) {
    if (r.status == JobStatus::kFailed) ++failed;
    if (r.status == JobStatus::kRetriedOk) ++retried;
  }

  if (opt_.metrics != nullptr && sh != nullptr) {
    opt_.metrics->merge_from(sh->merged());
    opt_.metrics->add(obs::metric_names::kRunnerJobs, jobs.size());
    opt_.metrics->add(obs::metric_names::kRunnerDedupHits,
                      jobs.size() - unique.size());
    opt_.metrics->set_gauge(obs::metric_names::kRunnerThreads,
                            static_cast<double>(runner.threads()));
    if (failed != 0) {
      opt_.metrics->add(obs::metric_names::kRunnerJobsFailed, failed);
    }
    if (retried != 0) {
      opt_.metrics->add(obs::metric_names::kRunnerJobsRetried, retried);
    }
    const std::uint64_t fired = fault::stats().fires - faults_before.fires;
    if (fired != 0) {
      opt_.metrics->add(obs::metric_names::kFaultInjected, fired);
    }
  }

  if (bopt.fail_fast) {
    for (const JobResult& r : results) {
      if (r.status == JobStatus::kFailed) std::rethrow_exception(r.error);
    }
  } else if (opt_.check_artifacts) {
    // Degraded batches are reported, not thrown: the diagnostic lands in
    // the check.* counters (and any check artifact the caller writes), the
    // healthy outcomes stay usable data.
    check::CheckRunner chk(opt_.metrics);
    check::check_batch(batch_summary_of(results), chk);
  }
  return results;
}

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRetriedOk:
      return "retried_ok";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

JobResult failed_job_result(std::exception_ptr error, unsigned attempts) {
  JobResult res;
  res.status = JobStatus::kFailed;
  res.attempts = attempts;
  res.error = error;
  classify_error(error, res.error_kind, res.message);
  return res;
}

check::BatchSummary batch_summary_of(const std::vector<JobResult>& results) {
  check::BatchSummary summary;
  summary.jobs = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    if (r.status == JobStatus::kRetriedOk) ++summary.retried;
    if (r.status != JobStatus::kFailed) continue;
    ++summary.failed;
    std::ostringstream line;
    line << "job " << i << ": " << r.error_kind << ": " << r.message;
    summary.failures.push_back(line.str());
  }
  return summary;
}

}  // namespace casa::report
