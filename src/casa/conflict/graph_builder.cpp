#include "casa/conflict/graph_builder.hpp"

#include <algorithm>
#include <bit>

#include "casa/support/error.hpp"

namespace casa::conflict {

namespace {

/// m_ij counters keyed by i << 32 | j: open addressing with linear probing
/// over a power-of-two table kept at most half full. Object ids are below
/// 2^32 - 1, so the all-ones key never occurs and marks an empty slot.
class PairCounts {
 public:
  PairCounts() : slots_(kInitialSlots) {}

  void increment(std::uint64_t key) {
    Slot* s = probe(key);
    if (s->key == kEmpty) {
      if (2 * (used_ + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        s = probe(key);
      }
      s->key = key;
      ++used_;
    }
    ++s->count;
  }

  /// One edge per counted pair, in slot order (ConflictGraph sorts them).
  std::vector<Edge> edges() const {
    std::vector<Edge> out;
    out.reserve(used_);
    for (const Slot& s : slots_) {
      if (s.key == kEmpty) continue;
      const auto from = static_cast<std::uint32_t>(s.key >> 32);
      const auto to = static_cast<std::uint32_t>(s.key);
      out.push_back(Edge{MemoryObjectId(from), MemoryObjectId(to), s.count});
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 256;

  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t count = 0;
  };

  Slot* probe(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of the product spread both halves.
    std::size_t i = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >>
        (64 - std::countr_zero(slots_.size())));
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask;
    return &slots_[i];
  }

  void rehash(std::size_t n) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    for (const Slot& s : old) {
      if (s.key != kEmpty) *probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// Mutable build state shared by both replay granularities.
struct BuildState {
  std::vector<std::uint64_t> fetches;
  std::vector<std::uint64_t> cold;
  std::vector<std::uint64_t> hits;
  PairCounts m;
  // Line first_line + k -> object whose fill evicted it (invalid: none).
  // Every replayed line lies in [first_line, first_line + evicted_by.size()).
  std::vector<MemoryObjectId> evicted_by;
  std::uint64_t first_line = 0;

  BuildState(std::size_t n, std::uint64_t first, std::uint64_t end_line)
      : fetches(n, 0), cold(n, 0), hits(n, 0),
        evicted_by(end_line - first), first_line(first) {}

  MemoryObjectId& evictor(std::uint64_t line) {
    CASA_CHECK(line - first_line < evicted_by.size(),
               "replayed line outside the layout's image");
    return evicted_by[line - first_line];
  }

  /// Miss bookkeeping for one missing line access by `mo` (paper eq. 5/6):
  /// attribute the miss to its recorded evictor, or count it cold.
  void on_miss(MemoryObjectId mo, std::uint64_t line,
               const cachesim::AccessResult& r) {
    MemoryObjectId& ev = evictor(line);
    if (!ev.valid()) {
      ++cold[mo.index()];
    } else {
      m.increment((static_cast<std::uint64_t>(mo.value()) << 32) | ev.value());
      ev = MemoryObjectId::invalid();
    }
    if (r.evicted_line.has_value()) {
      evictor(*r.evicted_line) = mo;
    }
  }

  ConflictGraph finish(std::size_t n) {
    return ConflictGraph(n, std::move(fetches), std::move(cold),
                         std::move(hits), m.edges());
  }
};

ConflictGraph replay_words(const traceopt::TraceProgram& tp,
                           const traceopt::Layout& layout,
                           const trace::BlockWalk& walk,
                           const BuildOptions& opt) {
  const std::size_t n = tp.object_count();
  const prog::Program& program = tp.program();
  cachesim::Cache cache(opt.cache, opt.seed);
  const Bytes line = opt.cache.line_size;
  BuildState st(n, layout.base() / line,
                (layout.base() + layout.span() + line - 1) / line);

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const Addr base = layout.block_addr(bb);
    const Bytes size = program.block(bb).size;
    for (Bytes off = 0; off < size; off += kWordBytes) {
      const Addr addr = base + off;
      ++st.fetches[mo.index()];
      const cachesim::AccessResult r = cache.access(addr);
      if (r.hit) {
        ++st.hits[mo.index()];
        continue;
      }
      st.on_miss(mo, cache.line_of(addr), r);
    }
  }
  return st.finish(n);
}

ConflictGraph replay_lines(const traceopt::TraceProgram& tp,
                           const trace::CompiledStream& stream,
                           const trace::BlockWalk& walk,
                           const BuildOptions& opt) {
  const std::size_t n = tp.object_count();
  cachesim::Cache cache(opt.cache, opt.seed);
  std::uint64_t first_line = ~std::uint64_t{0};
  std::uint64_t end_line = 0;
  for (std::size_t b = 0; b < tp.program().block_count(); ++b) {
    for (const trace::LineRun& run :
         stream.runs(BasicBlockId(static_cast<std::uint32_t>(b)))) {
      first_line = std::min(first_line, run.line);
      end_line = std::max(end_line, run.line + 1);
    }
  }
  BuildState st(n, std::min(first_line, end_line), end_line);

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const std::size_t moi = mo.index();
    CASA_CHECK(stream.cached(bb),
               "conflict build needs every executed block in the layout");
    for (const trace::LineRun& run : stream.runs(bb)) {
      st.fetches[moi] += run.words;
      const cachesim::AccessResult r = cache.access_line(run.addr, run.words);
      if (r.hit) {
        st.hits[moi] += run.words;
        continue;
      }
      // Same-line run: only the first word can miss, the rest hit.
      st.hits[moi] += run.words - 1;
      st.on_miss(mo, run.line, r);
    }
  }
  return st.finish(n);
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
