// Conflict-graph construction: the profiling cache pass.
//
// Replays the dynamic block walk through the configured I-cache with every
// memory object cached (no scratchpad — the paper builds G before
// allocation). For each miss the previously recorded evictor of the missing
// line determines the conflict edge; fills record the current object as the
// future evictor of whatever line they displaced.
//
// By default the walk is replayed at line granularity by the replay kernel
// (memsim/replay.hpp) over a pre-compiled fetch stream, on the model
// cachesim::with_line_model picks (the direct-mapped tag model at one way,
// Cache otherwise), with conflict::MissAttribution as its per-run step. The
// word-granular reference survives behind BuildOptions as the oracle.
//
// A design-space sweep needs G for many cache geometries over one trace
// program and layout. build_conflict_graphs reads every LRU member's graph
// off ONE cachesim::StackSimulator walk, fed by the same kernel: an S-set,
// A-way LRU set holds the A most recent distinct lines of its recency list,
// so a member misses on a first touch or at stack distance >= A, and its
// fill evicts the line at depth A-1 exactly when A lines sit above the
// accessed one. Each member keeps its own evictor table and m_ij counts and
// attributes the miss as the single-config replay does; hits follow as
// fetches minus misses. The graphs are bit-identical to
// build_conflict_graph's, which stays the oracle (tests/conflict_test.cpp)
// and serves non-LRU members.
#pragma once

#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/conflict/conflict_graph.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/memory_object.hpp"

namespace casa::conflict {

struct BuildOptions {
  cachesim::CacheConfig cache;
  /// Seed for the cache's random replacement policy (unused otherwise).
  std::uint64_t seed = 1;
  /// Replay at line granularity (fast path). The word-granular reference is
  /// kept for oracle tests; both produce identical graphs.
  bool use_compiled_stream = true;
};

/// Builds G for `tp` laid out by `layout` over the dynamic `walk`.
ConflictGraph build_conflict_graph(const traceopt::TraceProgram& tp,
                                   const traceopt::Layout& layout,
                                   const trace::BlockWalk& walk,
                                   const BuildOptions& opt);

/// As above but replaying a caller-compiled stream (must have been compiled
/// from the same layout with opt.cache.line_size lines); lets sweeps reuse
/// one compilation across builds.
ConflictGraph build_conflict_graph(const traceopt::TraceProgram& tp,
                                   const trace::CompiledStream& stream,
                                   const trace::BlockWalk& walk,
                                   const BuildOptions& opt);

/// One graph per entry of `caches`, each equal to what
/// build_conflict_graph(tp, stream, walk, {cache}) returns for it (default
/// seed). Every config must use the stream's line size. The distinct LRU
/// configs share one stack replay when there are at least two of them;
/// non-LRU configs, and a lone LRU geometry, are built one by one.
/// Duplicated configs are built once.
std::vector<ConflictGraph> build_conflict_graphs(
    const traceopt::TraceProgram& tp, const trace::CompiledStream& stream,
    const trace::BlockWalk& walk,
    const std::vector<cachesim::CacheConfig>& caches);

}  // namespace casa::conflict
