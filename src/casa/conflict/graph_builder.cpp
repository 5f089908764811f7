#include "casa/conflict/graph_builder.hpp"

#include "casa/cachesim/line_model.hpp"
#include "casa/conflict/miss_attribution.hpp"
#include "casa/memsim/replay.hpp"
#include "casa/support/error.hpp"

namespace casa::conflict {

namespace {

ConflictGraph replay_words(const traceopt::TraceProgram& tp,
                           const traceopt::Layout& layout,
                           const trace::BlockWalk& walk,
                           const BuildOptions& opt) {
  const std::size_t n = tp.object_count();
  const prog::Program& program = tp.program();
  cachesim::Cache cache(opt.cache, opt.seed);
  const Bytes line = opt.cache.line_size;
  MissAttribution st(n, layout.base() / line,
                     (layout.base() + layout.span() + line - 1) / line);
  std::vector<std::uint64_t> hits(n, 0);

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const Addr base = layout.block_addr(bb);
    const Bytes size = program.block(bb).size;
    for (Bytes off = 0; off < size; off += kWordBytes) {
      const Addr addr = base + off;
      ++st.fetches[mo.index()];
      const cachesim::AccessResult r = cache.access(addr);
      if (r.hit) {
        ++hits[mo.index()];
      } else {
        st.on_miss(mo, cache.line_of(addr), r.evicted_line);
      }
    }
  }
  return st.finish(std::move(hits));
}

/// The line-granular build: the replay kernel on the model for
/// `opt.cache`, attributing each missing run (MissAttribution). Fetches are
/// summed once per executed block; hits follow as fetches minus misses.
ConflictGraph replay_lines(const traceopt::TraceProgram& tp,
                           const trace::CompiledStream& stream,
                           const trace::BlockWalk& walk,
                           const BuildOptions& opt) {
  const auto [first_line, end_line] = stream.line_span();
  MissAttribution st(tp.object_count(), first_line, end_line);
  cachesim::with_line_model(opt.cache, opt.seed, [&](auto& cache) {
    memsim::ReplayTally t;
    memsim::replay(cache,
                   {.tp = &tp, .stream = &stream, .object_words = st.fetches},
                   walk, t, st);
  });
  return st.finish();
}

}  // namespace

ConflictGraph build_conflict_graph(const traceopt::TraceProgram& tp,
                                   const traceopt::Layout& layout,
                                   const trace::BlockWalk& walk,
                                   const BuildOptions& opt) {
  CASA_CHECK(opt.cache.line_size > 0, "cache line size must be positive");
  if (!opt.use_compiled_stream) return replay_words(tp, layout, walk, opt);
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(tp, layout, opt.cache.line_size);
  return replay_lines(tp, stream, walk, opt);
}

ConflictGraph build_conflict_graph(const traceopt::TraceProgram& tp,
                                   const trace::CompiledStream& stream,
                                   const trace::BlockWalk& walk,
                                   const BuildOptions& opt) {
  CASA_CHECK(stream.line_size() == opt.cache.line_size,
             "stream was compiled for a different line size");
  return replay_lines(tp, stream, walk, opt);
}

}  // namespace casa::conflict
