// casa_cli — run any allocation experiment from the command line.
//
//   casa_cli --workload=mpeg --technique=casa --spm=512
//   casa_cli --workload=g721 --cache=1024 --assoc=2 --policy=fifo
//            --technique=steinke --spm=256 --csv
//   casa_cli --workload=adpcm --technique=loopcache --spm=256 --lc-regions=4
//   casa_cli --workload=mpeg --technique=casa --spm=512 --dot=conflicts.dot
//   casa_cli --workload=g721 --spm=512 --check
//
// Techniques: none (cache only), casa, greedy (CASA objective, heuristic
// solver), steinke, loopcache. Prints a human-readable report or, with
// --csv, a single comma-separated row (with a header comment) suitable for
// scripting sweeps. --check skips the experiment and instead runs the
// casa::check semantic analyzer over every inter-stage artifact the
// configuration produces (trace program, layout, conflict graph, both ILP
// linearizations, allocation, energy tables), printing each diagnostic and
// exiting non-zero on errors.
#include <fstream>
#include <iostream>
#include <optional>

#include "casa/check/rules.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/io/serialize.hpp"
#include "casa/obs/export.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/trace_analysis.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/report/workbench.hpp"
#include "casa/support/args.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

using namespace casa;

namespace {

cachesim::ReplacementPolicy policy_from(const std::string& name) {
  if (name == "lru") return cachesim::ReplacementPolicy::kLru;
  if (name == "fifo") return cachesim::ReplacementPolicy::kFifo;
  if (name == "rr") return cachesim::ReplacementPolicy::kRoundRobin;
  if (name == "random") return cachesim::ReplacementPolicy::kRandom;
  throw PreconditionError("unknown --policy: " + name +
                          " (lru|fifo|rr|random)");
}

/// Standalone analyzer (--check): rebuild every inter-stage artifact for
/// the configuration and run the full rule catalogue over it. Returns the
/// process exit code (0 clean, 1 when any error-severity diagnostic fired).
int run_check(const prog::Program& program, const report::Workbench& bench,
              const cachesim::CacheConfig& cache, Bytes spm, double fuse,
              obs::MetricsRegistry* reg, const std::string& check_json) {
  check::CheckRunner runner(reg);

  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = cache.line_size;
  topt.max_trace_size = std::max<Bytes>(spm, cache.line_size);
  topt.fuse_ratio = fuse;
  const traceopt::TraceProgram tp =
      traceopt::form_traces(program, bench.execution().profile, topt);
  check::check_trace_program(tp, cache.line_size, runner);

  const traceopt::Layout layout = traceopt::layout_all(tp);
  check::check_layout(tp, layout, cache.line_size, runner);

  conflict::BuildOptions bopt;
  bopt.cache = cache;
  const conflict::ConflictGraph graph =
      conflict::build_conflict_graph(tp, layout, bench.execution().walk, bopt);
  check::check_conflict_graph(tp, layout, graph, cache, runner);

  const energy::EnergyTable energies =
      energy::EnergyTable::build(cache, spm, 0, 0);
  check::check_energy_table(energies, spm > 0, false, runner);
  check::check_energy_scaling(energy::arm7_tech(), runner);

  const core::CasaProblem problem =
      core::CasaProblem::from(tp, graph, energies, spm);
  const core::SavingsProblem sp = core::presolve(problem);
  for (const auto lin :
       {core::Linearization::kPaper, core::Linearization::kTight}) {
    const core::CasaModel cm = core::build_casa_model(sp, lin);
    check::check_casa_model(cm, sp, lin, runner);
  }

  const core::CasaAllocator allocator;
  const core::AllocationResult alloc = allocator.allocate(problem);
  check::check_allocation(problem, alloc, runner);

  for (const check::Diagnostic& d : runner.diagnostics()) {
    std::cout << d.to_string() << "\n";
  }
  std::cout << runner.summary() << " — " << tp.object_count() << " objects, "
            << graph.edge_count() << " conflict edges, "
            << sp.item_count() << " items / " << sp.edges.size()
            << " presolved edges\n";

  if (!check_json.empty()) {
    const auto render = [&runner](std::ostream& os) {
      check::write_check_json(os, runner, "casa_cli");
    };
    unsigned attempts = 1;
    if (check_json == "-") {
      attempts = obs::write_artifact_guarded(
          std::cout, fault::site_names::kIoCheckWrite, render);
    } else {
      std::ofstream out(check_json);
      CASA_CHECK(out.good(), "cannot open check output file: " + check_json);
      attempts = obs::write_artifact_guarded(
          out, fault::site_names::kIoCheckWrite, render);
      std::cerr << "check artifact written to " << check_json << "\n";
    }
    if (attempts > 1 && reg != nullptr) {
      reg->add(obs::metric_names::kIoArtifactRetries, attempts - 1);
    }
  }
  return runner.ok() ? 0 : 1;
}

int run(ArgParser& args) {
  const std::string workload =
      args.get("workload", "adpcm", "adpcm|g721|mpeg|epic|pegwit|gsm|jpeg");
  const std::string technique =
      args.get("technique", "casa", "none|casa|greedy|steinke|loopcache");
  const std::uint64_t cache_size =
      args.get_u64("cache", 0, "I-cache bytes (0 = paper default)");
  const std::uint64_t assoc = args.get_u64("assoc", 1, "associativity");
  const std::string policy =
      args.get("policy", "lru", "replacement: lru|fifo|rr|random");
  const std::uint64_t spm =
      args.get_u64("spm", 256, "scratchpad / loop-cache bytes");
  const std::uint64_t lc_regions =
      args.get_u64("lc-regions", 4, "loop-cache preloadable regions");
  const std::uint64_t seed = args.get_u64("seed", 42, "profiling seed");
  const std::uint64_t ilp_threads = args.get_u64(
      "ilp-threads", 1,
      "branch & bound worker threads (0 = hardware concurrency; results "
      "are thread-count-invariant)");
  const bool no_warm_start = args.get_flag(
      "no-warm-start", "disable the knapsack/root-LP incumbent seed");
  const bool no_ilp_presolve = args.get_flag(
      "no-ilp-presolve", "disable the bound-box presolve before search");
  const double fuse = args.get_double("fuse-ratio", 0.5,
                                      "trace formation fusion threshold");
  const bool csv = args.get_flag("csv", "emit one CSV row");
  const std::string dot =
      args.get("dot", "", "write the conflict graph to this DOT file");
  const std::string save_problem = args.get(
      "save-problem", "",
      "write the allocator input (casa-problem v1) to this file");
  const std::string metrics_json = args.get(
      "metrics-json", "",
      "write a casa-metrics v1 telemetry artifact to this file ('-' means "
      "stdout, the same sink as --metrics-stdout; each distinct sink is "
      "written exactly once)");
  const bool metrics_stdout = args.get_flag(
      "metrics-stdout",
      "print the telemetry artifact to stdout (redundant with "
      "--metrics-json -)");
  const std::string trace_json = args.get(
      "trace-json", "",
      "write a casa-trace v1 Chrome-trace artifact (Perfetto-loadable) to "
      "this file ('-' = stdout)");
  const bool trace_summary = args.get_flag(
      "trace-summary",
      "print per-phase self/total time, per-thread utilization and the "
      "critical path of this run's trace");
  const bool do_check = args.get_flag(
      "check", "run the artifact analyzer instead of the experiment");
  const std::string check_json = args.get(
      "check-json", "",
      "write a casa-check v1 diagnostics artifact to this file ('-' = "
      "stdout; implies --check)");
  const std::string fault_spec = args.get(
      "fault-spec", "",
      "arm deterministic fault injection from this spec (overrides the "
      "CASA_FAULT_SPEC environment variable; see docs/faults.md)");

  if (args.help_requested()) {
    std::cout << "casa_cli options:\n" << args.help();
    return 0;
  }
  try {
    args.reject_unknown();
  } catch (const PreconditionError& e) {
    std::cerr << e.what() << "\nrun with --help for usage\n";
    return 2;
  }

  // Injection arms before any pipeline work so every registered site is
  // live; disarmed runs pay one relaxed load per site. The trace hook turns
  // each fire into a fault.injected instant when tracing is attached.
  if (!fault_spec.empty()) {
    fault::arm(fault::parse_spec(fault_spec));
  } else {
    fault::arm_from_env();
  }
  if (fault::armed()) obs::install_fault_trace_hook();

  const bool want_metrics = metrics_stdout || !metrics_json.empty();
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* reg = want_metrics ? &registry : nullptr;
  if (reg != nullptr) {
    reg->set_config("workload", workload);
    reg->set_config("technique", technique);
    reg->set_config("assoc", std::to_string(assoc));
    reg->set_config("policy", policy);
    reg->set_config("spm", std::to_string(spm));
    reg->set_config("seed", std::to_string(seed));
    reg->set_config("fuse_ratio", std::to_string(fuse));
    if (fault::armed()) {
      reg->set_gauge(obs::metric_names::kFaultArmedSites,
                     static_cast<double>(fault::armed_site_count()));
    }
  }

  // Tracing attaches before the Workbench profiles the workload, so the
  // "profiling" span and everything after it land on the timeline.
  const bool want_trace = trace_summary || !trace_json.empty();
  std::optional<obs::Tracer> tracer;
  if (want_trace) {
    tracer.emplace();
    obs::Tracer::set_current(&*tracer);
  }
  const auto finish_trace = [&] {
    if (!want_trace) return;
    obs::Tracer::set_current(nullptr);
    const obs::TraceData data = tracer->drain();
    if (!trace_json.empty()) {
      const auto render = [&data](std::ostream& os) {
        io::write_trace_json(os, data, "casa_cli");
      };
      if (trace_json == "-") {
        obs::write_artifact_guarded(std::cout,
                                    fault::site_names::kIoTraceWrite, render);
      } else {
        std::ofstream out(trace_json);
        CASA_CHECK(out.good(),
                   "cannot open trace output file: " + trace_json);
        obs::write_artifact_guarded(out, fault::site_names::kIoTraceWrite,
                                    render);
        std::cerr << "trace artifact written to " << trace_json << "\n";
      }
    }
    if (trace_summary) {
      obs::write_trace_summary(std::cout, obs::analyze_trace(data));
    }
  };

  const prog::Program program = workloads::by_name(workload);
  report::WorkbenchOptions wopt;
  wopt.exec_seed = seed;
  wopt.fuse_ratio = fuse;
  wopt.metrics = reg;
  // The constructor profiles the workload — that is pipeline work too, so
  // it gets a span alongside the run_* flow phases.
  std::optional<report::Workbench> bench_storage;
  {
    const obs::Span s(reg, obs::trace_names::kProfiling);
    bench_storage.emplace(program, wopt);
  }
  const report::Workbench& bench = *bench_storage;

  cachesim::CacheConfig cache = workloads::paper_cache_for(workload);
  if (cache_size != 0) cache.size = cache_size;
  cache.associativity = checked_unsigned(assoc, "--assoc");
  cache.policy = policy_from(policy);
  cache.validate();
  if (reg != nullptr) reg->set_config("cache", std::to_string(cache.size));

  if (do_check || !check_json.empty()) {
    const int rc = run_check(program, bench, cache, spm, fuse, reg,
                             check_json);
    finish_trace();
    return rc;
  }

  core::CasaOptions copt;
  copt.ilp_threads = checked_unsigned(ilp_threads, "--ilp-threads");
  copt.ilp_warm_start = !no_warm_start;
  copt.ilp_presolve = !no_ilp_presolve;

  using Job = report::Workbench::Job;
  Job job;
  if (technique == "none") {
    job = Job::cache_only_job(cache);
  } else if (technique == "casa") {
    job = Job::casa_job(cache, spm, copt);
  } else if (technique == "greedy") {
    copt.engine = core::CasaEngine::kGreedy;
    job = Job::casa_job(cache, spm, copt);
  } else if (technique == "steinke") {
    job = Job::steinke_job(cache, spm);
  } else if (technique == "loopcache") {
    job = Job::loopcache_job(cache, spm,
                             checked_unsigned(lc_regions, "--lc-regions"));
  } else {
    throw PreconditionError("unknown --technique: " + technique);
  }
  const report::Outcome outcome = bench.evaluate(job).value();

  if (!save_problem.empty()) {
    traceopt::TraceFormationOptions topt;
    topt.cache_line_size = cache.line_size;
    topt.max_trace_size = std::max<Bytes>(spm, cache.line_size);
    topt.fuse_ratio = fuse;
    const auto tp =
        traceopt::form_traces(program, bench.execution().profile, topt);
    const auto layout = traceopt::layout_all(tp);
    conflict::BuildOptions bopt;
    bopt.cache = cache;
    const auto graph = conflict::build_conflict_graph(
        tp, layout, bench.execution().walk, bopt);
    const auto energies = energy::EnergyTable::build(cache, spm, 0, 0);
    const auto problem = core::CasaProblem::from(tp, graph, energies, spm);
    std::ofstream out(save_problem);
    CASA_CHECK(out.good(), "cannot open output file: " + save_problem);
    io::write_problem(out, problem);
    std::cerr << "allocator input written to " << save_problem << "\n";
  }

  if (!dot.empty()) {
    traceopt::TraceFormationOptions topt;
    topt.cache_line_size = cache.line_size;
    topt.max_trace_size = std::max<Bytes>(spm, cache.line_size);
    topt.fuse_ratio = fuse;
    const auto tp =
        traceopt::form_traces(program, bench.execution().profile, topt);
    const auto layout = traceopt::layout_all(tp);
    conflict::BuildOptions bopt;
    bopt.cache = cache;
    const auto graph = conflict::build_conflict_graph(
        tp, layout, bench.execution().walk, bopt);
    std::ofstream out(dot);
    CASA_CHECK(out.good(), "cannot open DOT output file: " + dot);
    out << graph.to_dot();
    std::cerr << "conflict graph (" << graph.node_count() << " nodes, "
              << graph.edge_count() << " edges) written to " << dot << "\n";
  }

  if (want_metrics) {
    obs::ArtifactOptions aopt;
    aopt.tool = "casa_cli";
    const obs::ArtifactSinkPlan plan =
        obs::plan_artifact_sinks(metrics_json, metrics_stdout);
    if (!plan.note.empty()) {
      std::cerr << "casa_cli: note: " << plan.note << "\n";
    }
    // The guard re-renders per attempt, and each render snapshots fresh
    // after folding in the injector totals and any failed attempts of this
    // very write — a retried metrics artifact reports its own retries.
    unsigned renders = 0;
    std::uint64_t synced_fires = 0;
    const auto render = [&](std::ostream& os) {
      if (renders++ > 0) {
        registry.add(obs::metric_names::kIoArtifactRetries, 1);
      }
      const std::uint64_t fired = fault::stats().fires;
      if (fired > synced_fires) {
        registry.add(obs::metric_names::kFaultInjected, fired - synced_fires);
        synced_fires = fired;
      }
      io::write_metrics_json(os, registry.snapshot(), aopt);
    };
    if (!plan.file.empty()) {
      std::ofstream out(plan.file);
      CASA_CHECK(out.good(), "cannot open metrics output file: " + plan.file);
      obs::write_artifact_guarded(out, fault::site_names::kIoMetricsWrite,
                                  render);
      std::cerr << "metrics artifact written to " << plan.file << "\n";
    }
    if (plan.to_stdout) {
      obs::write_artifact_guarded(std::cout,
                                  fault::site_names::kIoMetricsWrite, render);
    }
  }

  finish_trace();

  const auto& c = outcome.sim.counters;
  if (csv) {
    std::cout << "# workload,technique,cache,assoc,policy,spm,energy_uJ,"
                 "fetches,spm_acc,lc_acc,hits,misses,cycles\n"
              << workload << ',' << technique << ',' << cache.size << ','
              << cache.associativity << ',' << policy << ',' << spm << ','
              << to_micro_joules(outcome.sim.total_energy) << ','
              << c.total_fetches << ',' << c.spm_accesses << ','
              << c.lc_accesses << ',' << c.cache_hits << ','
              << c.cache_misses << ',' << c.cycles << '\n';
    return 0;
  }

  std::cout << workload << " / " << technique << " — cache " << cache.size
            << "B " << cache.associativity << "-way "
            << cachesim::to_string(cache.policy) << ", spm/lc " << spm
            << "B\n"
            << "  energy        " << to_micro_joules(outcome.sim.total_energy)
            << " uJ\n"
            << "  fetches       " << c.total_fetches << " (spm "
            << c.spm_accesses << ", lc " << c.lc_accesses << ", cache "
            << c.cache_accesses << ")\n"
            << "  cache misses  " << c.cache_misses << "\n"
            << "  cycles        " << c.cycles << "\n";
  if (technique == "casa" || technique == "greedy") {
    const core::AllocationResult& alloc = outcome.alloc();
    const auto& st = alloc.solver_stats;
    std::cout << "  allocation    " << alloc.used_bytes << "/" << spm
              << " B via " << core::to_string(alloc.engine_used)
              << " (" << (alloc.exact ? "optimal" : "heuristic")
              << ", " << alloc.solver_nodes << " nodes, "
              << st.bound_prunes + st.infeasible_prunes << " prunes, "
              << alloc.solve_seconds * 1e3 << " ms)\n";
    if (alloc.engine_used == core::CasaEngine::kGenericIlp) {
      std::cout << "  ilp search    presolve fixed " << st.presolve_fixed
                << ", warm start "
                << (st.warm_start_used ? "seeded" : "unused")
                << " (root gap " << st.root_gap << ", rc-fixed "
                << st.rc_fixed << "), " << st.subtrees << " subtrees, "
                << st.lp_limit_retries << " LP retries\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
