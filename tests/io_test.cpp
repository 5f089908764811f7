#include <gtest/gtest.h>

#include <sstream>

#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/io/json.hpp"
#include "casa/io/serialize.hpp"

namespace casa::io {
namespace {

conflict::ConflictGraph sample_graph() {
  std::vector<conflict::Edge> edges{
      {MemoryObjectId(0), MemoryObjectId(1), 42},
      {MemoryObjectId(1), MemoryObjectId(0), 17},
      {MemoryObjectId(2), MemoryObjectId(0), 5}};
  return conflict::ConflictGraph(3, {1000, 800, 60}, {3, 1, 2},
                                 {955, 782, 53}, std::move(edges));
}

core::CasaProblem sample_problem(const conflict::ConflictGraph& g) {
  core::CasaProblem p;
  p.graph = &g;
  p.sizes = {64, 96, 32};
  p.capacity = 128;
  p.e_cache_hit = 0.8;
  p.e_cache_miss = 31.5;
  p.e_spm = 0.3;
  return p;
}

TEST(IoGraph, RoundTripPreservesEverything) {
  const auto g = sample_graph();
  std::stringstream ss;
  write_conflict_graph(ss, g);
  const auto g2 = read_conflict_graph(ss);

  ASSERT_EQ(g2.node_count(), g.node_count());
  ASSERT_EQ(g2.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    EXPECT_EQ(g2.fetches(mo), g.fetches(mo));
    EXPECT_EQ(g2.cold_misses(mo), g.cold_misses(mo));
    EXPECT_EQ(g2.hits(mo), g.hits(mo));
  }
  EXPECT_EQ(g2.miss_weight(MemoryObjectId(0), MemoryObjectId(1)), 42u);
  EXPECT_EQ(g2.miss_weight(MemoryObjectId(1), MemoryObjectId(0)), 17u);
}

TEST(IoGraph, RejectsBadHeader) {
  std::stringstream ss("casa-conflict-graph v999\nnodes 0\nend\n");
  EXPECT_THROW(read_conflict_graph(ss), PreconditionError);
}

TEST(IoGraph, RejectsOutOfRangeEdge) {
  std::stringstream ss(
      "casa-conflict-graph v1\nnodes 1\n"
      "node 0 fetches 1 cold 0 hits 1\nedge 0 7 3\nend\n");
  EXPECT_THROW(read_conflict_graph(ss), PreconditionError);
}

TEST(IoGraph, RejectsMissingEnd) {
  std::stringstream ss(
      "casa-conflict-graph v1\nnodes 1\nnode 0 fetches 1 cold 0 hits 1\n");
  EXPECT_THROW(read_conflict_graph(ss), PreconditionError);
}

TEST(IoGraph, RejectsNodeCountMismatch) {
  std::stringstream ss("casa-conflict-graph v1\nnodes 2\n"
                       "node 0 fetches 1 cold 0 hits 1\nend\n");
  EXPECT_THROW(read_conflict_graph(ss), PreconditionError);
}

TEST(IoProblem, RoundTripSolvesIdentically) {
  const auto g = sample_graph();
  const auto p = sample_problem(g);

  std::stringstream ss;
  write_problem(ss, p);
  const LoadedProblem loaded = read_problem(ss);

  EXPECT_EQ(loaded.problem.capacity, p.capacity);
  EXPECT_EQ(loaded.problem.sizes, p.sizes);
  EXPECT_DOUBLE_EQ(loaded.problem.e_cache_hit, p.e_cache_hit);

  const core::AllocationResult a = core::CasaAllocator().allocate(p);
  const core::AllocationResult b =
      core::CasaAllocator().allocate(loaded.problem);
  EXPECT_EQ(a.on_spm, b.on_spm);
  EXPECT_NEAR(a.predicted_energy, b.predicted_energy, 1e-6);
}

TEST(IoProblem, LoadedProblemOwnsItsGraph) {
  std::stringstream ss;
  {
    const auto g = sample_graph();
    write_problem(ss, sample_problem(g));
  }  // original graph destroyed
  const LoadedProblem loaded = read_problem(ss);
  EXPECT_EQ(loaded.problem.graph, loaded.graph.get());
  EXPECT_EQ(loaded.graph->node_count(), 3u);
}

TEST(IoProblem, RejectsCorruptEnergyLine) {
  const auto g = sample_graph();
  std::stringstream ss;
  write_problem(ss, sample_problem(g));
  std::string text = ss.str();
  const auto pos = text.find("energy hit");
  text.replace(pos, 10, "energy pot");
  std::stringstream bad(text);
  EXPECT_THROW(read_problem(bad), PreconditionError);
}

TEST(IoAllocation, RoundTrip) {
  const std::vector<bool> mask{true, false, true, false, false, true};
  std::stringstream ss;
  write_allocation(ss, mask);
  EXPECT_EQ(read_allocation(ss), mask);
}

TEST(IoAllocation, EmptyMask) {
  const std::vector<bool> mask(4, false);
  std::stringstream ss;
  write_allocation(ss, mask);
  EXPECT_EQ(read_allocation(ss), mask);
}

TEST(IoAllocation, RejectsIndexOutOfRange) {
  std::stringstream ss("casa-allocation v1\nobjects 2\nspm 5\nend\n");
  EXPECT_THROW(read_allocation(ss), PreconditionError);
}

TEST(Io, WhitespaceAndBlankLinesTolerated) {
  const auto g = sample_graph();
  std::stringstream ss;
  write_conflict_graph(ss, g);
  std::stringstream padded("\n\n" + ss.str());
  EXPECT_NO_THROW(read_conflict_graph(padded));
}

// ---------------------------------------------------------------------------
// casa-trace v1.

obs::TraceEvent trace_event(obs::TraceEventKind kind, std::uint32_t tid,
                            std::uint64_t ts_ns, std::string name,
                            std::string cat) {
  obs::TraceEvent e;
  e.kind = kind;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.name = std::move(name);
  e.cat = std::move(cat);
  return e;
}

// Every event kind, two tracks (one pool worker, one plain thread), a paired
// flow, and odd nanosecond timestamps that stress the microsecond encoding.
obs::TraceData sample_trace() {
  obs::TraceData data;
  data.tracks.push_back({0, -1, "main"});
  data.tracks.push_back({1, 0, "sim-0"});
  using K = obs::TraceEventKind;
  data.events.push_back(trace_event(K::kBegin, 0, 0, "run_casa", "phase"));
  obs::TraceEvent tail = trace_event(K::kFlowBegin, 0, 1'001, "task", "flow");
  tail.flow_id = 9;
  data.events.push_back(tail);
  obs::TraceEvent head = trace_event(K::kFlowEnd, 1, 2'003, "task", "flow");
  head.flow_id = 9;
  data.events.push_back(head);
  data.events.push_back(trace_event(K::kBegin, 1, 2'003, "task", "sim"));
  obs::TraceEvent inst =
      trace_event(K::kInstant, 1, 2'500, "ilp.incumbent", "ilp");
  inst.value = -12.75;
  data.events.push_back(inst);
  obs::TraceEvent ctr = trace_event(K::kCounter, 1, 2'750, "ilp.nodes", "ilp");
  ctr.value = 4096;
  data.events.push_back(ctr);
  data.events.push_back(trace_event(K::kEnd, 1, 123'456'789, "task", "sim"));
  data.events.push_back(
      trace_event(K::kEnd, 0, 987'654'321, "run_casa", "phase"));
  return data;
}

std::string trace_text(const obs::TraceData& data) {
  std::ostringstream os;
  io::write_trace_json(os, data, "io_test");
  return os.str();
}

TEST(IoTrace, RoundTripIsExact) {
  const obs::TraceData data = sample_trace();
  std::istringstream is(trace_text(data));
  const obs::TraceData back = read_trace_json(is);
  EXPECT_EQ(back, data);
}

TEST(IoTrace, RejectsWrongSchema) {
  std::string text = trace_text(sample_trace());
  const auto pos = text.find("casa-trace v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "casa-trace v9");
  std::istringstream is(text);
  EXPECT_THROW(read_trace_json(is), PreconditionError);
}

TEST(IoTrace, RejectsUnknownPhase) {
  std::string text = trace_text(sample_trace());
  const auto pos = text.find("\"ph\": \"C\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"ph\": \"X\"");
  std::istringstream is(text);
  EXPECT_THROW(read_trace_json(is), PreconditionError);
}

TEST(IoTrace, RejectsMissingTimestamp) {
  std::string text = trace_text(sample_trace());
  const auto pos = text.find("\"ts\": ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\"xs\": ");
  std::istringstream is(text);
  EXPECT_THROW(read_trace_json(is), PreconditionError);
}

TEST(IoTrace, RejectsMissingRunProvenance) {
  std::string text = trace_text(sample_trace());
  const auto pos = text.find("\"tool\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\"fool\"");
  std::istringstream is(text);
  EXPECT_THROW(read_trace_json(is), PreconditionError);
}

TEST(IoTrace, RejectsUnpairedFlowInCompleteTrace) {
  obs::TraceData data = sample_trace();
  // Drop the flow head: with dropped == 0 the trace claims to be complete,
  // so the dangling tail is corruption, not truncation.
  std::erase_if(data.events, [](const obs::TraceEvent& e) {
    return e.kind == obs::TraceEventKind::kFlowEnd;
  });
  std::istringstream complete(trace_text(data));
  EXPECT_THROW(read_trace_json(complete), PreconditionError);

  // The same artifact with a nonzero drop count is legitimate truncation.
  data.dropped = 1;
  std::istringstream truncated(trace_text(data));
  EXPECT_NO_THROW(read_trace_json(truncated));
}

TEST(IoTrace, RejectsTrailingGarbage) {
  std::string text = trace_text(sample_trace());
  text += "}";
  std::istringstream is(text);
  EXPECT_THROW(read_trace_json(is), PreconditionError);
}

// A fully-populated synthetic CASA outcome: every optional field engaged,
// doubles with non-terminating binary fractions, so the byte-identity
// assertions exercise the exact-encoding contract rather than round
// numbers.
report::JobResult sample_result() {
  report::Outcome out(report::FlowKind::kCasa);
  out.object_count = 29;
  out.spm_used = 480;
  out.sim.counters.total_fetches = 1745509;
  out.sim.counters.spm_accesses = 1649458;
  out.sim.counters.cache_accesses = 96051;
  out.sim.counters.cache_hits = 96007;
  out.sim.counters.cache_misses = 44;
  out.sim.counters.mainmem_words = 176;
  out.sim.counters.cycles = 1746037;
  out.sim.total_energy = 495858.251762;
  out.sim.spm_energy = 417835.4222944;
  out.sim.cache_energy = 78022.8294676;
  out.set_conflict_edges(17);
  core::AllocationResult alloc;
  alloc.on_spm = {true, false, true, true, false};
  alloc.used_bytes = 480;
  alloc.predicted_energy = 494006.4394612;
  alloc.predicted_saving = 890228.97718;
  alloc.solver_nodes = 8;
  alloc.exact = true;
  alloc.solve_seconds = 0.125;
  alloc.engine_used = core::CasaEngine::kGenericIlp;
  alloc.solver_stats.nodes = 8;
  alloc.solver_stats.max_depth = 3;
  alloc.solver_stats.simplex_iterations = 214;
  out.set_alloc(std::move(alloc));

  report::JobResult result;
  result.status = report::JobStatus::kRetriedOk;
  result.outcome = std::move(out);
  result.attempts = 2;
  return result;
}

report::Workbench::Job sample_job() {
  cachesim::CacheConfig cache;
  cache.size = 1024;
  cache.line_size = 16;
  cache.associativity = 2;
  core::CasaOptions opt;
  opt.engine = core::CasaEngine::kGenericIlp;
  opt.max_nodes = 5000;
  return report::Workbench::Job::casa_job(cache, 512, opt);
}

TEST(IoResult, RoundTripIsExactAndByteIdentical) {
  const report::Workbench::Job job = sample_job();
  const report::JobResult result = sample_result();

  std::ostringstream first;
  write_result_json(first, job, result, "adpcm", "casa_serve");
  const std::string text = std::move(first).str();

  std::istringstream is(text);
  const LoadedResult loaded = read_result_json(is);
  EXPECT_EQ(loaded.workload, "adpcm");
  EXPECT_TRUE(loaded.job == job);
  EXPECT_EQ(loaded.result.status, result.status);
  EXPECT_EQ(loaded.result.attempts, result.attempts);
  EXPECT_TRUE(loaded.result.outcome == result.outcome);

  // write(read(write(x))) == write(x): the hit-streams-stored-bytes
  // contract of the serve cache.
  std::ostringstream second;
  write_result_json(second, loaded.job, loaded.result, loaded.workload,
                    "casa_serve");
  EXPECT_EQ(std::move(second).str(), text);
}

TEST(IoResult, RejectsCorruptedAndWrongSchemaArtifacts) {
  std::ostringstream os;
  write_result_json(os, sample_job(), sample_result(), "adpcm");
  const std::string text = std::move(os).str();

  std::istringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(read_result_json(truncated), PreconditionError);

  std::string wrong_schema = text;
  const std::size_t at = wrong_schema.find("casa-result v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 14, "casa-result v9");
  std::istringstream wrong(wrong_schema);
  EXPECT_THROW(read_result_json(wrong), PreconditionError);

  std::istringstream garbage("not an artifact at all");
  EXPECT_THROW(read_result_json(garbage), PreconditionError);
}

TEST(IoResult, RejectsUnsignedFieldsPast32Bits) {
  // Every field the reader narrows to unsigned refuses 2^32 + 2 (which
  // used to wrap to 2) and names its key.
  report::JobResult lc;
  lc.outcome = report::Outcome(report::FlowKind::kLoopCache);
  lc.outcome.set_lc_regions(3);
  cachesim::CacheConfig cache;
  cache.size = 1024;
  const struct {
    report::Workbench::Job job;
    report::JobResult result;
  } artifacts[] = {
      {sample_job(), sample_result()},
      {report::Workbench::Job::loopcache_job(cache, 256, 3), lc},
  };
  for (const char* key : {"associativity", "max_regions", "ilp_threads",
                          "ilp_subtree_depth", "attempts", "lc_regions"}) {
    SCOPED_TRACE(key);
    bool found = false;
    for (const auto& a : artifacts) {
      std::ostringstream os;
      write_result_json(os, a.job, a.result, "adpcm");
      std::string text = std::move(os).str();
      const std::string field = std::string("\"") + key + "\":";
      const std::size_t at = text.find(field);
      if (at == std::string::npos) continue;
      found = true;
      const std::size_t begin =
          text.find_first_of("0123456789", at + field.size());
      const std::size_t end = text.find_first_not_of("0123456789", begin);
      text.replace(begin, end - begin, "4294967298");
      std::istringstream is(text);
      try {
        (void)read_result_json(is);
        ADD_FAILURE() << "artifact accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
    EXPECT_TRUE(found) << "no sample artifact carries the key";
  }
}

TEST(IoResult, RefusesToSerializeFailedResults) {
  report::JobResult failed;
  failed.status = report::JobStatus::kFailed;
  std::ostringstream os;
  EXPECT_THROW(write_result_json(os, sample_job(), failed, "adpcm"),
               PreconditionError);
}

struct U64Case {
  const char* text;
  bool ok;
  std::uint64_t value;
};

TEST(IoJson, ToU64AcceptsOnlyAsciiDigitsThatFit) {
  const U64Case cases[] = {
      {"0", true, 0},
      {"7", true, 7},
      {"007", true, 7},
      {"1745509", true, 1745509},
      {"18446744073709551615", true, 18446744073709551615ull},
      {"18446744073709551616", false, 0},   // 2^64: overflow
      {"99999999999999999999", false, 0},   // overflow in the last digit
      {"184467440737095516150", false, 0},  // overflow before the last
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 12", false, 0},
      {"12 ", false, 0},
      {"12abc", false, 0},
      {"1.0", false, 0},
      {"1e3", false, 0},
      {"0x10", false, 0},
      {"-0", false, 0},
      {"\t5", false, 0},
  };
  for (const U64Case& c : cases) {
    SCOPED_TRACE(std::string("to_u64(\"") + c.text + "\")");
    if (c.ok) {
      EXPECT_EQ(to_u64(c.text), c.value);
    } else {
      EXPECT_THROW(to_u64(c.text), PreconditionError);
    }
  }
}

TEST(IoJson, NestingIsCappedAtMaxDepth) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  const std::size_t max = JsonReader::kMaxDepth;
  struct DepthCase {
    std::string text;
    bool ok;
  };
  const DepthCase cases[] = {
      {nested(1, '[', ']'), true},
      {nested(max, '[', ']'), true},
      {nested(max + 1, '[', ']'), false},
      {"[" + std::string(max - 1, '[') + "1" + std::string(max, ']'), true},
      {std::string(300000, '['), false},  // the serve-crash reproducer
      {std::string(300000, '{'), false},
  };
  for (const DepthCase& c : cases) {
    SCOPED_TRACE("depth case of " + std::to_string(c.text.size()) + " bytes");
    if (c.ok) {
      EXPECT_NO_THROW(JsonReader(c.text).parse());
    } else {
      EXPECT_THROW(JsonReader(c.text).parse(), PreconditionError);
    }
  }

  // Objects count toward the same depth as arrays.
  std::string objects;
  for (std::size_t i = 0; i < max; ++i) objects += "{\"k\":";
  EXPECT_NO_THROW(JsonReader(objects + "1" + std::string(max, '}')).parse());
  EXPECT_THROW(
      JsonReader("[" + objects + "1" + std::string(max, '}') + "]").parse(),
      PreconditionError);
}

}  // namespace
}  // namespace casa::io
