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
// cachesim::with_line_model picks (the LRU tag model at one way and at 2,
// 4 or 8 LRU ways, Cache otherwise), with conflict::MissAttribution as its
// per-run step. The word-granular reference survives behind BuildOptions
// as the oracle (tests/conflict_test.cpp and
// tests/compiled_stream_test.cpp hold every geometry to it). A
// design-space sweep builds one graph per geometry, each from its own
// replay of one compiled stream.
#pragma once

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

}  // namespace casa::conflict
