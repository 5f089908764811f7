// `casa-result v1` — one evaluated Workbench job and its Outcome as a
// self-describing JSON artifact. This is the persistence format of the
// casa_serve result cache: a hit streams the stored bytes back verbatim,
// so every field is encoded exactly (raw integers, obs::format_double for
// doubles, 0/1 for booleans) and write → read → write is byte-identical.
#include <istream>
#include <ostream>
#include <sstream>

#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/ilp/model.hpp"
#include "casa/io/json.hpp"
#include "casa/io/serialize.hpp"
#include "casa/obs/build_info.hpp"
#include "casa/obs/export.hpp"
#include "casa/support/error.hpp"

namespace casa::io {

namespace {

const char* lin_to_string(core::Linearization l) {
  return l == core::Linearization::kPaper ? "paper" : "tight";
}

core::Linearization lin_from(const std::string& s) {
  if (s == "paper") return core::Linearization::kPaper;
  if (s == "tight") return core::Linearization::kTight;
  throw PreconditionError("result json: bad linearization '" + s + "'");
}

/// Reverse of the repo's to_string overloads: match against every
/// enumerator's spelling, reject anything else.
template <typename E>
E enum_from(const std::string& s, std::initializer_list<E> values,
            const char* what) {
  for (const E v : values) {
    if (s == to_string(v)) return v;
  }
  throw PreconditionError(std::string("result json: bad ") + what + " '" +
                          s + "'");
}

std::uint64_t u64_of(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  CASA_CHECK(v.kind == JsonValue::Kind::kNumber,
             "result json: '" + key + "' must be a number");
  return to_u64(v.str);
}

bool bool_of(const JsonValue& obj, const std::string& key) {
  const std::uint64_t v = u64_of(obj, key);
  CASA_CHECK(v <= 1, "result json: '" + key + "' must be 0 or 1");
  return v == 1;
}

std::string str_of(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  CASA_CHECK(v.kind == JsonValue::Kind::kString,
             "result json: '" + key + "' must be a string");
  return v.str;
}

void write_sim(std::ostream& os, const memsim::SimReport& sim,
               const char* indent) {
  const memsim::SimCounters& c = sim.counters;
  os << indent << "\"sim\": {\n"
     << indent << "  \"total_fetches\": " << c.total_fetches << ",\n"
     << indent << "  \"spm_accesses\": " << c.spm_accesses << ",\n"
     << indent << "  \"lc_accesses\": " << c.lc_accesses << ",\n"
     << indent << "  \"cache_accesses\": " << c.cache_accesses << ",\n"
     << indent << "  \"cache_hits\": " << c.cache_hits << ",\n"
     << indent << "  \"cache_misses\": " << c.cache_misses << ",\n"
     << indent << "  \"cache_evictions\": " << c.cache_evictions << ",\n"
     << indent << "  \"mainmem_words\": " << c.mainmem_words << ",\n"
     << indent << "  \"cycles\": " << c.cycles << ",\n"
     << indent << "  \"total_energy\": " << obs::format_double(sim.total_energy)
     << ",\n"
     << indent << "  \"spm_energy\": " << obs::format_double(sim.spm_energy)
     << ",\n"
     << indent << "  \"cache_energy\": " << obs::format_double(sim.cache_energy)
     << ",\n"
     << indent << "  \"lc_energy\": " << obs::format_double(sim.lc_energy)
     << "\n"
     << indent << "}";
}

memsim::SimReport read_sim(const JsonValue& v) {
  memsim::SimReport sim;
  memsim::SimCounters& c = sim.counters;
  c.total_fetches = u64_of(v, "total_fetches");
  c.spm_accesses = u64_of(v, "spm_accesses");
  c.lc_accesses = u64_of(v, "lc_accesses");
  c.cache_accesses = u64_of(v, "cache_accesses");
  c.cache_hits = u64_of(v, "cache_hits");
  c.cache_misses = u64_of(v, "cache_misses");
  c.cache_evictions = u64_of(v, "cache_evictions");
  c.mainmem_words = u64_of(v, "mainmem_words");
  c.cycles = u64_of(v, "cycles");
  sim.total_energy = num(member(v, "total_energy"), "total_energy");
  sim.spm_energy = num(member(v, "spm_energy"), "spm_energy");
  sim.cache_energy = num(member(v, "cache_energy"), "cache_energy");
  sim.lc_energy = num(member(v, "lc_energy"), "lc_energy");
  return sim;
}

void write_alloc(std::ostream& os, const core::AllocationResult& a) {
  os << "      \"alloc\": {\n        \"on_spm\": [";
  for (std::size_t i = 0; i < a.on_spm.size(); ++i) {
    os << (i ? "," : "") << (a.on_spm[i] ? 1 : 0);
  }
  const ilp::SolveStats& s = a.solver_stats;
  os << "],\n"
     << "        \"used_bytes\": " << a.used_bytes << ",\n"
     << "        \"predicted_energy\": "
     << obs::format_double(a.predicted_energy) << ",\n"
     << "        \"predicted_saving\": "
     << obs::format_double(a.predicted_saving) << ",\n"
     << "        \"solver_nodes\": " << a.solver_nodes << ",\n"
     << "        \"exact\": " << (a.exact ? 1 : 0) << ",\n"
     << "        \"solver_status\": \"" << to_string(a.solver_status)
     << "\",\n"
     << "        \"solve_seconds\": " << obs::format_double(a.solve_seconds)
     << ",\n"
     << "        \"engine_used\": \"" << to_string(a.engine_used) << "\",\n"
     << "        \"presolved_items\": " << a.presolved_items << ",\n"
     << "        \"presolved_edges\": " << a.presolved_edges << ",\n"
     << "        \"solver_stats\": {\n"
     << "          \"nodes\": " << s.nodes << ",\n"
     << "          \"max_depth\": " << s.max_depth << ",\n"
     << "          \"incumbent_updates\": " << s.incumbent_updates << ",\n"
     << "          \"bound_prunes\": " << s.bound_prunes << ",\n"
     << "          \"infeasible_prunes\": " << s.infeasible_prunes << ",\n"
     << "          \"simplex_iterations\": " << s.simplex_iterations << ",\n"
     << "          \"presolve_fixed\": " << s.presolve_fixed << ",\n"
     << "          \"lp_limit_retries\": " << s.lp_limit_retries << ",\n"
     << "          \"subtrees\": " << s.subtrees << ",\n"
     << "          \"rc_fixed\": " << s.rc_fixed << ",\n"
     << "          \"warm_start_used\": " << (s.warm_start_used ? 1 : 0)
     << ",\n"
     << "          \"root_gap\": " << obs::format_double(s.root_gap) << "\n"
     << "        }\n      }";
}

core::AllocationResult read_alloc(const JsonValue& v) {
  core::AllocationResult a;
  const JsonValue& mask = member(v, "on_spm");
  CASA_CHECK(mask.kind == JsonValue::Kind::kArray,
             "result json: 'on_spm' must be an array");
  for (const JsonValue& bit : mask.items) {
    CASA_CHECK(bit.kind == JsonValue::Kind::kNumber &&
                   (bit.str == "0" || bit.str == "1"),
               "result json: 'on_spm' entries must be 0 or 1");
    a.on_spm.push_back(bit.str == "1");
  }
  a.used_bytes = u64_of(v, "used_bytes");
  a.predicted_energy = num(member(v, "predicted_energy"), "predicted_energy");
  a.predicted_saving = num(member(v, "predicted_saving"), "predicted_saving");
  a.solver_nodes = u64_of(v, "solver_nodes");
  a.exact = bool_of(v, "exact");
  a.solver_status = enum_from(
      str_of(v, "solver_status"),
      {ilp::SolveStatus::kOptimal, ilp::SolveStatus::kInfeasible,
       ilp::SolveStatus::kUnbounded, ilp::SolveStatus::kLimit},
      "solver_status");
  a.solve_seconds = num(member(v, "solve_seconds"), "solve_seconds");
  a.engine_used = enum_from(
      str_of(v, "engine_used"),
      {core::CasaEngine::kAuto, core::CasaEngine::kSpecializedBnB,
       core::CasaEngine::kGenericIlp, core::CasaEngine::kGreedy},
      "engine_used");
  a.presolved_items = u64_of(v, "presolved_items");
  a.presolved_edges = u64_of(v, "presolved_edges");
  const JsonValue& sv = member(v, "solver_stats");
  ilp::SolveStats& s = a.solver_stats;
  s.nodes = u64_of(sv, "nodes");
  s.max_depth = u64_of(sv, "max_depth");
  s.incumbent_updates = u64_of(sv, "incumbent_updates");
  s.bound_prunes = u64_of(sv, "bound_prunes");
  s.infeasible_prunes = u64_of(sv, "infeasible_prunes");
  s.simplex_iterations = u64_of(sv, "simplex_iterations");
  s.presolve_fixed = u64_of(sv, "presolve_fixed");
  s.lp_limit_retries = u64_of(sv, "lp_limit_retries");
  s.subtrees = u64_of(sv, "subtrees");
  s.rc_fixed = u64_of(sv, "rc_fixed");
  s.warm_start_used = bool_of(sv, "warm_start_used");
  s.root_gap = num(member(sv, "root_gap"), "root_gap");
  return a;
}

}  // namespace

void write_result_json(std::ostream& os, const report::Workbench::Job& job,
                       const report::JobResult& result,
                       std::string_view workload, std::string_view tool) {
  CASA_CHECK(result.ok(),
             "result json: only successful results are persisted");
  const obs::BuildInfo& info = obs::build_info();
  const report::Outcome& out = result.outcome;
  os << "{\n  \"schema\": \"casa-result v1\",\n  \"run\": {\n"
     << "    \"tool\": \"" << obs::json_escape(tool) << "\",\n"
     << "    \"git\": \"" << obs::json_escape(info.git_describe) << "\",\n"
     << "    \"build_type\": \"" << obs::json_escape(info.build_type)
     << "\",\n"
     << "    \"compiler\": \"" << obs::json_escape(info.compiler) << "\"\n"
     << "  },\n"
     << "  \"workload\": \"" << obs::json_escape(workload) << "\",\n"
     << "  \"job\": {\n"
     << "    \"kind\": \"" << to_string(job.kind) << "\",\n"
     << "    \"cache\": { \"size\": " << job.cache.size
     << ", \"line_size\": " << job.cache.line_size
     << ", \"associativity\": " << job.cache.associativity
     << ", \"policy\": \"" << to_string(job.cache.policy) << "\" },\n"
     << "    \"size\": " << job.size << ",\n"
     << "    \"max_regions\": " << job.max_regions << ",\n"
     << "    \"casa\": {\n"
     << "      \"engine\": \"" << to_string(job.casa.engine) << "\",\n"
     << "      \"linearization\": \"" << lin_to_string(job.casa.linearization)
     << "\",\n"
     << "      \"generic_ilp_max_edges\": " << job.casa.generic_ilp_max_edges
     << ",\n"
     << "      \"max_nodes\": " << job.casa.max_nodes << ",\n"
     << "      \"ilp_threads\": " << job.casa.ilp_threads << ",\n"
     << "      \"ilp_subtree_depth\": " << job.casa.ilp_subtree_depth << ",\n"
     << "      \"ilp_warm_start\": " << (job.casa.ilp_warm_start ? 1 : 0)
     << ",\n"
     << "      \"ilp_presolve\": " << (job.casa.ilp_presolve ? 1 : 0) << "\n"
     << "    }\n  },\n"
     << "  \"result\": {\n"
     << "    \"status\": \"" << to_string(result.status) << "\",\n"
     << "    \"attempts\": " << result.attempts << ",\n"
     << "    \"outcome\": {\n"
     << "      \"flow\": \"" << to_string(out.flow()) << "\",\n"
     << "      \"object_count\": " << out.object_count << ",\n"
     << "      \"spm_used\": " << out.spm_used << ",\n";
  write_sim(os, out.sim, "      ");
  if (out.flow() == report::FlowKind::kCasa) {
    os << ",\n      \"conflict_edges\": " << out.conflict_edges() << ",\n";
    write_alloc(os, out.alloc());
  } else if (out.flow() == report::FlowKind::kLoopCache) {
    os << ",\n      \"lc_regions\": " << out.lc_regions();
  }
  os << "\n    }\n  }\n}\n";
}

LoadedResult read_result_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const JsonValue root = JsonReader(std::move(buf).str()).parse();

  const JsonValue& schema = member(root, "schema");
  CASA_CHECK(schema.kind == JsonValue::Kind::kString &&
                 schema.str == "casa-result v1",
             "result json: unsupported schema '" + schema.str + "'");
  const JsonValue& run = member(root, "run");
  for (const char* key : {"tool", "git", "build_type", "compiler"}) {
    str_of(run, key);
  }

  LoadedResult loaded;
  loaded.workload = str_of(root, "workload");

  using FlowKind = report::FlowKind;
  const std::initializer_list<FlowKind> kFlows = {
      FlowKind::kCasa, FlowKind::kSteinke, FlowKind::kLoopCache,
      FlowKind::kCacheOnly};
  const JsonValue& jv = member(root, "job");
  report::Workbench::Job& job = loaded.job;
  job.kind = enum_from(str_of(jv, "kind"), kFlows, "job kind");
  const JsonValue& cv = member(jv, "cache");
  job.cache.size = u64_of(cv, "size");
  job.cache.line_size = u64_of(cv, "line_size");
  job.cache.associativity =
      checked_unsigned(u64_of(cv, "associativity"), "associativity");
  job.cache.policy = enum_from(
      str_of(cv, "policy"),
      {cachesim::ReplacementPolicy::kLru, cachesim::ReplacementPolicy::kFifo,
       cachesim::ReplacementPolicy::kRoundRobin,
       cachesim::ReplacementPolicy::kRandom},
      "cache policy");
  job.size = u64_of(jv, "size");
  job.max_regions = checked_unsigned(u64_of(jv, "max_regions"), "max_regions");
  const JsonValue& ov = member(jv, "casa");
  job.casa.engine = enum_from(
      str_of(ov, "engine"),
      {core::CasaEngine::kAuto, core::CasaEngine::kSpecializedBnB,
       core::CasaEngine::kGenericIlp, core::CasaEngine::kGreedy},
      "engine");
  job.casa.linearization = lin_from(str_of(ov, "linearization"));
  job.casa.generic_ilp_max_edges = u64_of(ov, "generic_ilp_max_edges");
  job.casa.max_nodes = u64_of(ov, "max_nodes");
  job.casa.ilp_threads =
      checked_unsigned(u64_of(ov, "ilp_threads"), "ilp_threads");
  job.casa.ilp_subtree_depth =
      checked_unsigned(u64_of(ov, "ilp_subtree_depth"), "ilp_subtree_depth");
  job.casa.ilp_warm_start = bool_of(ov, "ilp_warm_start");
  job.casa.ilp_presolve = bool_of(ov, "ilp_presolve");

  const JsonValue& rv = member(root, "result");
  report::JobResult& result = loaded.result;
  const std::string status = str_of(rv, "status");
  if (status == "ok") {
    result.status = report::JobStatus::kOk;
  } else if (status == "retried_ok") {
    result.status = report::JobStatus::kRetriedOk;
  } else {
    CASA_CHECK(false, "result json: bad status '" + status + "'");
  }
  result.attempts = checked_unsigned(u64_of(rv, "attempts"), "attempts");

  const JsonValue& outv = member(rv, "outcome");
  const FlowKind flow = enum_from(str_of(outv, "flow"), kFlows, "flow");
  CASA_CHECK(flow == job.kind,
             "result json: outcome flow contradicts the job kind");
  report::Outcome out(flow);
  out.object_count = u64_of(outv, "object_count");
  out.spm_used = u64_of(outv, "spm_used");
  out.sim = read_sim(member(outv, "sim"));
  if (flow == FlowKind::kCasa) {
    out.set_conflict_edges(u64_of(outv, "conflict_edges"));
    out.set_alloc(read_alloc(member(outv, "alloc")));
  } else if (flow == FlowKind::kLoopCache) {
    out.set_lc_regions(
        checked_unsigned(u64_of(outv, "lc_regions"), "lc_regions"));
  }
  result.outcome = std::move(out);
  return loaded;
}

}  // namespace casa::io
