// The pipeline stages behind every Workbench entry point: one prepare path
// for all four flows (trace formation, layout, energy table, the flow's
// allocation step) and the two ways to finish a prepared job. evaluate.cpp
// holds the fault-contained entry points that drive them.
#include "casa/report/workbench.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/trace_names.hpp"
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

// Caps on the job fields that size a replay's tables or a flow's search,
// each far above every value the experiments, tests and goldens use (64 KiB
// caches, 4 KiB scratchpads, 8 regions).
constexpr Bytes kMaxCacheBytes = 1024_KiB;
constexpr Bytes kMaxSizeBytes = 1024_KiB;
constexpr unsigned kMaxRegions = 64;

/// Refuses `key` of the job (`in` = "job") or of its cache (`in` =
/// "cache"), spelled as the serve protocol spells it.
[[noreturn]] void reject(const char* in, const char* key, std::uint64_t value,
                         const std::string& why) {
  throw PreconditionError(std::string(in) + " '" + key +
                          "' = " + std::to_string(value) + ": " + why);
}

/// Checks every field `job`'s flow reads, once, before any stage runs: the
/// cache geometry, and for the flows that read them the scratchpad or
/// loop-cache size and the region budget. Each failure names its key.
void validate(const Workbench::Job& job) {
  const cachesim::CacheConfig& c = job.cache;
  if (!is_pow2(c.size) || c.size > kMaxCacheBytes) {
    reject("cache", "size", c.size,
           "must be a power of two of at most " +
               std::to_string(kMaxCacheBytes) + " bytes");
  }
  if (!is_pow2(c.line_size) || c.line_size < kWordBytes ||
      c.line_size > c.size) {
    reject("cache", "line_size", c.line_size,
           "must be a power of two from one word to the cache size");
  }
  if (!is_pow2(c.associativity) ||
      c.associativity > c.size / c.line_size) {
    reject("cache", "associativity", c.associativity,
           "must be a power of two of at most the cache's lines");
  }
  if (job.kind == Workbench::Job::Kind::kCacheOnly) return;
  if (job.size < 2 * kWordBytes || job.size % kWordBytes != 0 ||
      job.size > kMaxSizeBytes) {
    reject("job", "size", job.size,
           "must be a multiple of the 4-byte word from 8 to " +
               std::to_string(kMaxSizeBytes) + " bytes");
  }
  if (job.kind == Workbench::Job::Kind::kLoopCache &&
      (job.max_regions == 0 || job.max_regions > kMaxRegions)) {
    reject("job", "max_regions", job.max_regions,
           "must be from 1 to " + std::to_string(kMaxRegions));
  }
}

/// Allocation telemetry shared by every solving flow. Counters sum across
/// batch jobs; per-run quantities (tree depth, solve time) go in as
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
/// (evaluate) or stops before the replay (prepare_job), so dashboards see
/// one path.
std::string_view flow_name(Workbench::Job::Kind kind) {
  switch (kind) {
    case Workbench::Job::Kind::kCasa:
      return obs::trace_names::kRunCasa;
    case Workbench::Job::Kind::kSteinke:
      return obs::trace_names::kRunSteinke;
    case Workbench::Job::Kind::kLoopCache:
      return obs::trace_names::kRunLoopcache;
    case Workbench::Job::Kind::kCacheOnly:
      return obs::trace_names::kRunCacheOnly;
  }
  return "run_unknown";
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

traceopt::TraceProgram Workbench::form(const Job& job) const {
  // Traces must stay individually placeable (paper §3.2) but never smaller
  // than one line.
  const Bytes budget = job.kind == Job::Kind::kCacheOnly ? 1_KiB : job.size;
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = job.cache.line_size;
  topt.max_trace_size = std::max<Bytes>(budget, job.cache.line_size);
  topt.fuse_ratio = opt_.fuse_ratio;
  return traceopt::form_traces(*program_, exec_.profile, topt);
}

Workbench::PreparedJob Workbench::prepare_core(
    const Job& job, obs::MetricsRegistry* reg, check::CheckRunner* chk) const {
  validate(job);
  fault::at(fault::site_names::kSimPrepare);
  const cachesim::CacheConfig& cache = job.cache;
  const auto checked = [chk](const auto& rule) {
    if (chk == nullptr) return;
    rule(*chk);
    chk->throw_if_errors();
  };
  PreparedJob pj;
  pj.job = job;
  pj.partial = Outcome(job.kind);
  Outcome& out = pj.partial;

  std::shared_ptr<const traceopt::TraceProgram> tp;
  {
    const obs::Span s(reg, obs::trace_names::kTraceFormation);
    tp = std::make_shared<const traceopt::TraceProgram>(form(job));
    checked([&](check::CheckRunner& c) {
      check::check_trace_program(*tp, cache.line_size, c);
    });
  }
  out.object_count = tp->object_count();

  // Every flow lays out the whole trace-formed program (for the loop cache
  // that is the fair comparison of paper §5), except that Steinke lays out
  // after its allocation: under move semantics its scratchpad objects leave
  // the image and the residue is compacted, changing every remaining
  // object's cache mapping.
  const auto lay_out = [&](const std::vector<bool>* excluded) {
    const obs::Span s(reg, obs::trace_names::kLayout);
    pj.layout = std::make_shared<const traceopt::Layout>(
        excluded != nullptr ? traceopt::layout_excluding(*tp, *excluded)
                            : traceopt::layout_all(*tp));
    checked([&](check::CheckRunner& c) {
      check::check_layout(*tp, *pj.layout, cache.line_size, c);
    });
  };
  if (job.kind != Job::Kind::kSteinke) lay_out(nullptr);

  // The cache-only flow prices a two-word scratchpad that holds nothing.
  const bool lc = job.kind == Job::Kind::kLoopCache;
  const Bytes spm_size = job.kind == Job::Kind::kCacheOnly ? kWordBytes * 2
                         : lc                              ? 0
                                                           : job.size;
  pj.energies = energy::EnergyTable::build(cache, spm_size, lc ? job.size : 0,
                                           lc ? job.max_regions : 0);
  checked([&](check::CheckRunner& c) {
    check::check_energy_table(pj.energies, spm_size > 0, lc && job.size > 0,
                              c);
  });

  switch (job.kind) {
    case Job::Kind::kCasa: {
      std::optional<conflict::ConflictGraph> graph;
      {
        const obs::Span s(reg, obs::trace_names::kConflictGraph);
        conflict::BuildOptions bopt;
        bopt.cache = cache;
        graph.emplace(
            conflict::build_conflict_graph(*tp, *pj.layout, exec_.walk, bopt));
        if (reg != nullptr) {
          reg->add(obs::metric_names::kConflictNodes, graph->node_count());
          reg->add(obs::metric_names::kConflictEdges, graph->edge_count());
        }
        checked([&](check::CheckRunner& c) {
          check::check_conflict_graph(*tp, *pj.layout, *graph, cache, c);
        });
      }
      const obs::Span s(reg, obs::trace_names::kAllocation);
      const core::CasaProblem problem =
          core::CasaProblem::from(*tp, *graph, pj.energies, job.size);
      // The model the generic solver would consume must be well-formed no
      // matter which engine actually runs — the formulation stage is an
      // artifact in its own right.
      checked([&](check::CheckRunner& c) {
        const core::SavingsProblem sp = core::presolve(problem);
        const core::CasaModel cm =
            core::build_casa_model(sp, job.casa.linearization);
        check::check_casa_model(cm, sp, job.casa.linearization, c);
      });
      fault::at(fault::site_names::kSolverAllocate);
      out.set_alloc(core::CasaAllocator(job.casa).allocate(problem));
      record_alloc(reg, out.alloc());
      checked([&](check::CheckRunner& c) {
        check::check_allocation(problem, out.alloc(), c);
      });
      // A truncated solve must never be reported as an allocation — an
      // empty incumbent would masquerade as "nothing fits" and a partial
      // one as the optimum. This guard also covers runs with
      // check_artifacts disabled.
      CASA_CHECK(out.alloc().solver_status == ilp::SolveStatus::kOptimal,
                 "CASA solve was truncated (status " +
                     std::string(ilp::to_string(out.alloc().solver_status)) +
                     "); raise max_nodes instead of reporting a partial "
                     "allocation");
      out.set_conflict_edges(graph->edge_count());
      out.spm_used = out.alloc().used_bytes;
      // Copy semantics: the main-memory image keeps every object; fetches
      // of scratchpad objects simply go to the scratchpad.
      pj.on_spm = out.alloc().on_spm;
      break;
    }
    case Job::Kind::kSteinke: {
      {
        const obs::Span s(reg, obs::trace_names::kAllocation);
        baseline::SteinkeResult sel = baseline::allocate_steinke(
            *tp, job.size, pj.energies.cache_hit - pj.energies.spm_access);
        checked([&](check::CheckRunner& c) {
          std::vector<Bytes> sizes;
          sizes.reserve(tp->object_count());
          for (const auto& mo : tp->objects()) sizes.push_back(mo.raw_size);
          check::check_spm_selection(sizes, job.size, sel.on_spm,
                                     sel.used_bytes, c);
        });
        out.spm_used = sel.used_bytes;
        pj.on_spm = std::move(sel.on_spm);
      }
      lay_out(opt_.steinke_moves ? &pj.on_spm : nullptr);
      break;
    }
    case Job::Kind::kLoopCache: {
      loopcache::RossResult sel;
      {
        const obs::Span s(reg, obs::trace_names::kAllocation);
        loopcache::LoopCacheConfig lcfg;
        lcfg.size = job.size;
        lcfg.max_regions = job.max_regions;
        sel = loopcache::allocate_ross(
            loopcache::enumerate_regions(*tp, *pj.layout, exec_.profile),
            lcfg);
      }
      out.spm_used = sel.used_bytes;
      out.set_lc_regions(static_cast<unsigned>(sel.selected.regions().size()));
      if (reg != nullptr) {
        reg->add(obs::metric_names::kLcRegions, out.lc_regions());
      }
      pj.regions =
          std::make_shared<const loopcache::RegionSet>(std::move(sel.selected));
      break;
    }
    case Job::Kind::kCacheOnly:
      pj.on_spm.assign(tp->object_count(), false);
      break;
  }
  pj.tp = std::move(tp);
  return pj;
}

Outcome Workbench::run(const Job& job, obs::MetricsRegistry* reg) const {
  const obs::Span flow(reg, flow_name(job.kind));
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  PreparedJob pj = prepare_core(job, reg, chk.get());
  fault::at(fault::site_names::kSimFinish);
  Outcome out = std::move(pj.partial);
  const obs::Span s(reg, obs::trace_names::kSimulation);
  if (pj.regions != nullptr) {
    out.sim = memsim::simulate_loopcache_system(*pj.tp, *pj.layout, exec_.walk,
                                                *pj.regions, job.cache,
                                                pj.energies, sim_opts(reg));
  } else {
    out.sim = memsim::simulate_spm_system(*pj.tp, *pj.layout, exec_.walk,
                                          pj.on_spm, job.cache, pj.energies,
                                          sim_opts(reg));
  }
  return out;
}

Workbench::PreparedJob Workbench::prepare_job(const Job& job,
                                              obs::MetricsRegistry* reg) const {
  const obs::Span flow(reg, flow_name(job.kind));
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return prepare_core(job, reg, chk.get());
}

}  // namespace casa::report
