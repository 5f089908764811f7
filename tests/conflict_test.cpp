#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "casa/conflict/graph_builder.hpp"
#include "casa/prog/builder.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::conflict {
namespace {

using prog::FunctionScope;
using prog::ProgramBuilder;

/// Two functions whose bodies alternate every iteration; with a cache
/// smaller than their combined footprint and a layout that maps them onto
/// the same sets, they must ping-pong.
struct PingPong {
  prog::Program program;
  trace::ExecutionResult exec;
  traceopt::TraceProgram tp;
  traceopt::Layout layout;

  PingPong()
      : program(make()),
        exec(trace::Executor::run(program)),
        tp(traceopt::form_traces(program, exec.profile, topts())),
        layout(traceopt::layout_all(tp)) {}

  static prog::Program make() {
    ProgramBuilder b("pp");
    b.function("main", [](FunctionScope& f) {
      f.loop(1000, [](FunctionScope& l) {
        l.call("f1");
        l.call("f2");
      });
    });
    // Each body fills a 128 B cache by itself: f1 at ~[28,156), f2 right
    // after; both cover every set of the tiny cache.
    b.function("f1", [](FunctionScope& f) { f.code(128, "body1"); });
    b.function("f2", [](FunctionScope& f) { f.code(128, "body2"); });
    return b.build();
  }
  static traceopt::TraceFormationOptions topts() {
    traceopt::TraceFormationOptions o;
    o.cache_line_size = 16;
    o.max_trace_size = 128;
    return o;
  }
  static cachesim::CacheConfig cache() {
    cachesim::CacheConfig c;
    c.size = 128;
    c.line_size = 16;
    c.associativity = 1;
    return c;
  }
};

TEST(ConflictGraph, PingPongProducesMutualEdges) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);

  const auto& blocks1 = p.program.function(FunctionId(1)).blocks();
  const auto& blocks2 = p.program.function(FunctionId(2)).blocks();
  const MemoryObjectId mo1 = p.tp.object_of(blocks1[0]);
  const MemoryObjectId mo2 = p.tp.object_of(blocks2[0]);

  // Each body misses on ~every iteration, attributed to the other body.
  EXPECT_GT(g.miss_weight(mo1, mo2), 500u);
  EXPECT_GT(g.miss_weight(mo2, mo1), 500u);
}

TEST(ConflictGraph, HitsPlusMissesEqualFetches) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    EXPECT_EQ(g.hits(mo) + g.total_misses(mo), g.fetches(mo));
  }
}

TEST(ConflictGraph, FetchesMatchProfile) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    total += g.fetches(MemoryObjectId(static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(total, p.exec.total_fetches);
}

TEST(ConflictGraph, ColdMissesBoundedByLineCount) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    cold += g.cold_misses(MemoryObjectId(static_cast<std::uint32_t>(i)));
  }
  // A line's first-ever miss is cold; there are span/line lines total.
  EXPECT_LE(cold, p.layout.span() / 16);
  EXPECT_GT(cold, 0u);
}

TEST(ConflictGraph, BigCacheHasNoConflicts) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  opt.cache.size = 8_KiB;  // everything fits
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.total_conflict_misses(), 0u);
}

TEST(ConflictGraph, NonConflictingLayoutNoEdges) {
  // Working set equals cache size: sequential bodies share no sets.
  ProgramBuilder b("fit");
  b.function("main", [](FunctionScope& f) {
    f.loop(100, [](FunctionScope& l) { l.call("f1"); });
  });
  b.function("f1", [](FunctionScope& f) { f.code(64, "body"); });
  const prog::Program program = b.build();
  const auto exec = trace::Executor::run(program);
  traceopt::TraceFormationOptions topt;
  topt.max_trace_size = 128;
  const auto tp = traceopt::form_traces(program, exec.profile, topt);
  const auto layout = traceopt::layout_all(tp);
  BuildOptions opt;
  opt.cache = PingPong::cache();  // 128 B: whole program ~128 B fits
  opt.cache.size = 512;
  const ConflictGraph g = build_conflict_graph(tp, layout, exec.walk, opt);
  EXPECT_EQ(g.total_conflict_misses(), 0u);
}

TEST(ConflictGraph, EdgesSortedAndQueryable) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  const auto& edges = g.edges();
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_TRUE(edges[i - 1].from < edges[i].from ||
                (edges[i - 1].from == edges[i].from &&
                 edges[i - 1].to < edges[i].to));
  }
  std::uint64_t via_out = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    for (const Edge& e :
         g.out_edges(MemoryObjectId(static_cast<std::uint32_t>(i)))) {
      via_out += e.misses;
    }
  }
  EXPECT_EQ(via_out, g.total_conflict_misses());
}

TEST(ConflictGraph, MissWeightZeroForAbsentEdge) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  // main's loop glue object vs itself-ish: query an arbitrary absent pair.
  const MemoryObjectId a(0);
  EXPECT_EQ(g.miss_weight(a, a), 0u);
}

TEST(ConflictGraph, DotExportContainsNodesAndEdges) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph g = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(ConflictGraph, DeterministicAcrossBuilds) {
  const PingPong p;
  BuildOptions opt;
  opt.cache = PingPong::cache();
  const ConflictGraph a = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  const ConflictGraph b = build_conflict_graph(p.tp, p.layout, p.exec.walk, opt);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].misses, b.edges()[i].misses);
  }
}

// ------------------------------------------- line vs word builds, per geometry

/// Field-by-field equality: fetches, hits and cold misses per node, and
/// every edge with its weight.
void expect_graph_eq(const ConflictGraph& got, const ConflictGraph& want,
                     const std::string& label) {
  ASSERT_EQ(got.node_count(), want.node_count()) << label;
  for (std::size_t i = 0; i < want.node_count(); ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    EXPECT_EQ(got.fetches(mo), want.fetches(mo)) << label << " node " << i;
    EXPECT_EQ(got.hits(mo), want.hits(mo)) << label << " node " << i;
    EXPECT_EQ(got.cold_misses(mo), want.cold_misses(mo))
        << label << " node " << i;
  }
  ASSERT_EQ(got.edge_count(), want.edge_count()) << label;
  for (std::size_t k = 0; k < want.edge_count(); ++k) {
    const Edge& a = got.edges()[k];
    const Edge& b = want.edges()[k];
    EXPECT_TRUE(a.from == b.from && a.to == b.to && a.misses == b.misses)
        << label << " edge " << k << ": " << a.from.value() << "->"
        << a.to.value() << " x" << a.misses << " vs " << b.from.value()
        << "->" << b.to.value() << " x" << b.misses;
  }
}

/// A workload's trace program, layout and compiled stream at one line size.
struct Formed {
  prog::Program program;
  trace::ExecutionResult exec;
  traceopt::TraceProgram tp;
  traceopt::Layout layout;
  trace::CompiledStream stream;

  Formed(const std::string& name, Bytes line)
      : program(workloads::by_name(name)),
        exec(trace::Executor::run(program)),
        tp(traceopt::form_traces(program, exec.profile, topts(line))),
        layout(traceopt::layout_all(tp)),
        stream(traceopt::compile_fetch_stream(tp, layout, line)) {}

  static traceopt::TraceFormationOptions topts(Bytes line) {
    traceopt::TraceFormationOptions o;
    o.cache_line_size = line;
    o.max_trace_size = 512;
    return o;
  }
};

cachesim::CacheConfig config(Bytes line, unsigned sets, unsigned assoc) {
  cachesim::CacheConfig c;
  c.line_size = line;
  c.associativity = assoc;
  c.size = static_cast<Bytes>(sets) * assoc * line;
  return c;
}

/// Per-workload oracle over a geometry family: set counts {1..64} x LRU
/// associativities {1,2,4,8} at both paper line sizes, 28 geometries. Every
/// member's line build, which replays on the tag model for its geometry
/// (cachesim::LruTags<1..8>), must equal the word-granular single-config
/// build through Cache: fetches, hits and cold misses per node, and every
/// edge with its weight. It is the widest oracle the multi-way tag models
/// have.
class FamilyOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyOracle, EveryMemberMatchesTheSingleConfigBuild) {
  for (const Bytes line : {16u, 32u}) {
    const Formed f(GetParam(), line);
    for (unsigned sets = 1; sets <= 64; sets *= 2) {
      for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        BuildOptions opt;
        opt.cache = config(line, sets, assoc);
        const ConflictGraph lines =
            build_conflict_graph(f.tp, f.stream, f.exec.walk, opt);
        opt.use_compiled_stream = false;
        const ConflictGraph words =
            build_conflict_graph(f.tp, f.layout, f.exec.walk, opt);
        expect_graph_eq(lines, words,
                        GetParam() + " line=" + std::to_string(line) +
                            " sets=" + std::to_string(sets) +
                            " assoc=" + std::to_string(assoc));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FamilyOracle,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace casa::conflict
