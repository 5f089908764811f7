#include "casa/svc/protocol.hpp"

#include <ostream>
#include <sstream>

#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/io/json.hpp"
#include "casa/obs/export.hpp"
#include "casa/support/error.hpp"

namespace casa::svc {

namespace {

using io::JsonValue;

std::uint64_t u64_field(const JsonValue& obj, const std::string& key,
                        std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  CASA_CHECK(v->kind == JsonValue::Kind::kNumber,
             "serve request: '" + key + "' must be a number");
  return io::to_u64(v->str);
}

std::string str_field(const JsonValue& obj, const std::string& key,
                      const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  CASA_CHECK(v->kind == JsonValue::Kind::kString,
             "serve request: '" + key + "' must be a string");
  return v->str;
}

report::FlowKind flow_from(const std::string& s) {
  using FlowKind = report::FlowKind;
  for (const FlowKind f : {FlowKind::kCasa, FlowKind::kSteinke,
                           FlowKind::kLoopCache, FlowKind::kCacheOnly}) {
    if (s == to_string(f)) return f;
  }
  throw PreconditionError("serve request: unknown flow '" + s + "'");
}

cachesim::CacheConfig cache_from(const JsonValue& v) {
  CASA_CHECK(v.kind == JsonValue::Kind::kObject,
             "serve request: 'cache' must be an object");
  cachesim::CacheConfig config;
  config.size = u64_field(v, "size", config.size);
  config.line_size = u64_field(v, "line_size", config.line_size);
  config.associativity = checked_unsigned(
      u64_field(v, "associativity", config.associativity), "associativity");
  const std::string policy = str_field(v, "policy", "LRU");
  bool known = false;
  for (const auto p :
       {cachesim::ReplacementPolicy::kLru, cachesim::ReplacementPolicy::kFifo,
        cachesim::ReplacementPolicy::kRoundRobin,
        cachesim::ReplacementPolicy::kRandom}) {
    if (policy == to_string(p)) {
      config.policy = p;
      known = true;
    }
  }
  CASA_CHECK(known, "serve request: unknown cache policy '" + policy + "'");
  return config;
}

report::Workbench::Job job_from(const JsonValue& v) {
  CASA_CHECK(v.kind == JsonValue::Kind::kObject,
             "serve request: a job must be an object");
  report::Workbench::Job job;
  job.kind = flow_from(str_field(v, "kind", "casa"));
  if (const JsonValue* cache = v.find("cache")) job.cache = cache_from(*cache);
  job.size = u64_field(v, "size", job.size);
  job.max_regions = checked_unsigned(
      u64_field(v, "max_regions", job.max_regions), "max_regions");
  if (const JsonValue* casa = v.find("casa")) {
    CASA_CHECK(casa->kind == JsonValue::Kind::kObject,
               "serve request: 'casa' must be an object");
    core::CasaOptions& o = job.casa;
    const std::string engine = str_field(*casa, "engine", "auto");
    bool known = false;
    for (const auto e :
         {core::CasaEngine::kAuto, core::CasaEngine::kSpecializedBnB,
          core::CasaEngine::kGenericIlp, core::CasaEngine::kGreedy}) {
      if (engine == to_string(e)) {
        o.engine = e;
        known = true;
      }
    }
    CASA_CHECK(known, "serve request: unknown engine '" + engine + "'");
    const std::string lin = str_field(*casa, "linearization", "tight");
    CASA_CHECK(lin == "paper" || lin == "tight",
               "serve request: unknown linearization '" + lin + "'");
    o.linearization = lin == "paper" ? core::Linearization::kPaper
                                     : core::Linearization::kTight;
    o.generic_ilp_max_edges =
        u64_field(*casa, "generic_ilp_max_edges", o.generic_ilp_max_edges);
    o.max_nodes = u64_field(*casa, "max_nodes", o.max_nodes);
    o.ilp_threads = checked_unsigned(
        u64_field(*casa, "ilp_threads", o.ilp_threads), "ilp_threads");
    o.ilp_subtree_depth = checked_unsigned(
        u64_field(*casa, "ilp_subtree_depth", o.ilp_subtree_depth),
        "ilp_subtree_depth");
    o.ilp_warm_start =
        u64_field(*casa, "ilp_warm_start", o.ilp_warm_start ? 1 : 0) != 0;
    o.ilp_presolve =
        u64_field(*casa, "ilp_presolve", o.ilp_presolve ? 1 : 0) != 0;
  }
  return job;
}

/// Compact, deterministic outcome rendering: a pure function of the
/// Outcome, so equal Outcomes always serialize to identical bytes (the
/// warm-cache byte-identity contract).
void write_outcome(std::ostream& os, const report::Outcome& out) {
  const memsim::SimCounters& c = out.sim.counters;
  os << "{\"flow\":\"" << to_string(out.flow())
     << "\",\"object_count\":" << out.object_count
     << ",\"spm_used\":" << out.spm_used
     << ",\"total_fetches\":" << c.total_fetches
     << ",\"spm_accesses\":" << c.spm_accesses
     << ",\"lc_accesses\":" << c.lc_accesses
     << ",\"cache_accesses\":" << c.cache_accesses
     << ",\"cache_hits\":" << c.cache_hits
     << ",\"cache_misses\":" << c.cache_misses
     << ",\"cache_evictions\":" << c.cache_evictions
     << ",\"mainmem_words\":" << c.mainmem_words << ",\"cycles\":" << c.cycles
     << ",\"total_energy\":" << obs::format_double(out.sim.total_energy)
     << ",\"spm_energy\":" << obs::format_double(out.sim.spm_energy)
     << ",\"cache_energy\":" << obs::format_double(out.sim.cache_energy)
     << ",\"lc_energy\":" << obs::format_double(out.sim.lc_energy);
  if (out.flow() == report::FlowKind::kCasa) {
    const core::AllocationResult& a = out.alloc();
    os << ",\"conflict_edges\":" << out.conflict_edges()
       << ",\"predicted_energy\":" << obs::format_double(a.predicted_energy)
       << ",\"predicted_saving\":" << obs::format_double(a.predicted_saving)
       << ",\"engine_used\":\"" << to_string(a.engine_used)
       << "\",\"solver_nodes\":" << a.solver_nodes
       << ",\"exact\":" << (a.exact ? 1 : 0);
  } else if (out.flow() == report::FlowKind::kLoopCache) {
    os << ",\"lc_regions\":" << out.lc_regions();
  }
  os << "}";
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue root = io::JsonReader(line).parse();
  CASA_CHECK(root.kind == JsonValue::Kind::kObject,
             "serve request: expected a JSON object");
  Request req;
  const std::string op = str_field(root, "op", "");
  if (op == "stats") {
    req.op = Request::Op::kStats;
    return req;
  }
  if (op == "flush") {
    req.op = Request::Op::kFlush;
    return req;
  }
  CASA_CHECK(op == "evaluate" || op == "batch" || op == "sweep",
             "serve request: unknown op '" + op + "'");
  req.workload = str_field(root, "workload", "");
  CASA_CHECK(!req.workload.empty(),
             "serve request: '" + op + "' needs a workload");
  if (op == "evaluate") {
    req.op = Request::Op::kEvaluate;
    const JsonValue* job = root.find("job");
    CASA_CHECK(job != nullptr, "serve request: 'evaluate' needs a job");
    req.jobs.push_back(job_from(*job));
    return req;
  }
  if (op == "batch") {
    req.op = Request::Op::kBatch;
    const JsonValue* jobs = root.find("jobs");
    CASA_CHECK(jobs != nullptr && jobs->kind == JsonValue::Kind::kArray &&
                   !jobs->items.empty(),
               "serve request: 'batch' needs a non-empty jobs array");
    for (const JsonValue& j : jobs->items) req.jobs.push_back(job_from(j));
    return req;
  }
  if (op == "sweep") {
    req.op = Request::Op::kSweep;
    cachesim::CacheConfig cache;
    if (const JsonValue* c = root.find("cache")) cache = cache_from(*c);
    const JsonValue* spm = root.find("spm");
    CASA_CHECK(spm != nullptr && spm->kind == JsonValue::Kind::kArray,
               "serve request: 'sweep' needs an spm size array");
    const JsonValue* flows = root.find("flows");
    CASA_CHECK(flows != nullptr && flows->kind == JsonValue::Kind::kArray &&
                   !flows->items.empty(),
               "serve request: 'sweep' needs a flows array");
    const unsigned regions =
        checked_unsigned(u64_field(root, "max_regions", 4), "max_regions");
    for (const JsonValue& f : flows->items) {
      CASA_CHECK(f.kind == JsonValue::Kind::kString,
                 "serve request: flow names must be strings");
      const report::FlowKind kind = flow_from(f.str);
      if (kind == report::FlowKind::kCacheOnly) {
        req.jobs.push_back(report::Workbench::Job::cache_only_job(cache));
        continue;
      }
      CASA_CHECK(!spm->items.empty(),
                 "serve request: 'sweep' needs at least one spm size");
      for (const JsonValue& size : spm->items) {
        CASA_CHECK(size.kind == JsonValue::Kind::kNumber,
                   "serve request: spm sizes must be numbers");
        const Bytes bytes = io::to_u64(size.str);
        switch (kind) {
          case report::FlowKind::kCasa:
            req.jobs.push_back(
                report::Workbench::Job::casa_job(cache, bytes));
            break;
          case report::FlowKind::kSteinke:
            req.jobs.push_back(
                report::Workbench::Job::steinke_job(cache, bytes));
            break;
          case report::FlowKind::kLoopCache:
            req.jobs.push_back(
                report::Workbench::Job::loopcache_job(cache, bytes, regions));
            break;
          case report::FlowKind::kCacheOnly:
            break;
        }
      }
    }
    return req;
  }
  throw PreconditionError("serve request: unknown op '" + op + "'");
}

void write_response_line(std::ostream& os, std::size_t index,
                         const EvalResponse& resp) {
  if (resp.rejected) {
    os << "{\"reply\":\"rejected\",\"index\":" << index
       << ",\"retry_after_ms\":" << resp.retry_after_ms << "}\n";
    return;
  }
  os << "{\"reply\":\"result\",\"index\":" << index << ",\"status\":\""
     << to_string(resp.result.status) << "\",\"provenance\":\""
     << to_string(resp.provenance)
     << "\",\"attempts\":" << resp.result.attempts;
  if (resp.result.ok()) {
    os << ",\"outcome\":";
    write_outcome(os, resp.result.outcome);
  } else {
    os << ",\"error_kind\":\"" << obs::json_escape(resp.result.error_kind)
       << "\",\"message\":\"" << obs::json_escape(resp.result.message)
       << "\"";
  }
  os << "}\n";
}

void write_stats_line(std::ostream& os, const EvalService::Stats& stats) {
  os << "{\"reply\":\"stats\",\"requests\":" << stats.requests
     << ",\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
     << ",\"inflight_joins\":" << stats.inflight_joins
     << ",\"rejections\":" << stats.rejections
     << ",\"persist_loads\":" << stats.persist_loads
     << ",\"persist_errors\":" << stats.persist_errors
     << ",\"verified_hits\":" << stats.verified_hits
     << ",\"queue_depth\":" << stats.queue_depth
     << ",\"cache_entries\":" << stats.cache.entries
     << ",\"cache_bytes\":" << stats.cache.bytes
     << ",\"cache_evictions\":" << stats.cache.evictions << "}\n";
}

void write_ok_line(std::ostream& os) { os << "{\"reply\":\"ok\"}\n"; }

void write_done_line(std::ostream& os, std::size_t results) {
  os << "{\"reply\":\"done\",\"results\":" << results << "}\n";
}

void write_error_line(std::ostream& os, const std::string& message) {
  os << "{\"reply\":\"error\",\"message\":\"" << obs::json_escape(message)
     << "\"}\n";
}

}  // namespace casa::svc
