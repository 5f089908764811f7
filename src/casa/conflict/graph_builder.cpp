#include "casa/conflict/graph_builder.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

#include "casa/cachesim/direct_mapped.hpp"
#include "casa/cachesim/stack_sim.hpp"
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

/// Every fetch that is neither a cold miss nor one of its object's m_ij
/// misses hit. The line replays count misses only and derive hits here.
std::vector<std::uint64_t> hits_from(std::vector<std::uint64_t> fetches,
                                     const std::vector<std::uint64_t>& cold,
                                     const std::vector<Edge>& edges) {
  for (std::size_t i = 0; i < fetches.size(); ++i) fetches[i] -= cold[i];
  for (const Edge& e : edges) fetches[e.from.index()] -= e.misses;
  return fetches;
}

/// Mutable build state shared by both replay granularities.
struct BuildState {
  std::vector<std::uint64_t> fetches;
  std::vector<std::uint64_t> cold;
  PairCounts m;
  // Line first_line + k -> object whose fill evicted it (invalid: none).
  // Every replayed line lies in [first_line, first_line + evicted_by.size()).
  std::vector<MemoryObjectId> evicted_by;
  std::uint64_t first_line = 0;

  BuildState(std::size_t n, std::uint64_t first, std::uint64_t end_line)
      : fetches(n, 0), cold(n, 0),
        evicted_by(end_line - first), first_line(first) {}

  MemoryObjectId& evictor(std::uint64_t line) {
    CASA_CHECK(line - first_line < evicted_by.size(),
               "replayed line outside the layout's image");
    return evicted_by[line - first_line];
  }

  /// Miss bookkeeping for one missing line access by `mo` (paper eq. 5/6):
  /// attribute the miss to its recorded evictor, or count it cold. Takes
  /// the victim by value, so a hit never materializes an AccessResult.
  void on_miss(MemoryObjectId mo, std::uint64_t line,
               std::optional<std::uint64_t> evicted_line) {
    MemoryObjectId& ev = evictor(line);
    if (!ev.valid()) {
      ++cold[mo.index()];
    } else {
      m.increment((static_cast<std::uint64_t>(mo.value()) << 32) | ev.value());
      ev = MemoryObjectId::invalid();
    }
    if (evicted_line.has_value()) evictor(*evicted_line) = mo;
  }

  /// The graph, with `hits` per object; empty derives them (hits_from).
  ConflictGraph finish(std::size_t n, std::vector<std::uint64_t> hits = {}) {
    std::vector<Edge> edges = m.edges();
    if (hits.empty()) hits = hits_from(fetches, cold, edges);
    return ConflictGraph(n, std::move(fetches), std::move(cold),
                         std::move(hits), std::move(edges));
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
        continue;
      }
      st.on_miss(mo, cache.line_of(addr), r.evicted_line);
    }
  }
  return st.finish(n, std::move(hits));
}

/// [first, end) line numbers of every run in `stream`.
std::pair<std::uint64_t, std::uint64_t> line_span(
    const traceopt::TraceProgram& tp, const trace::CompiledStream& stream) {
  std::uint64_t first_line = ~std::uint64_t{0};
  std::uint64_t end_line = 0;
  for (std::size_t b = 0; b < tp.program().block_count(); ++b) {
    for (const trace::LineRun& run :
         stream.runs(BasicBlockId(static_cast<std::uint32_t>(b)))) {
      first_line = std::min(first_line, run.line);
      end_line = std::max(end_line, run.line + 1);
    }
  }
  return {std::min(first_line, end_line), end_line};
}

/// Line-granular replay, one body for both cache models
/// (cachesim::DirectMappedCache at one way, cachesim::Cache otherwise).
/// Fetches are summed once per executed block; per run the loop only
/// attributes misses, and the hits follow as fetches minus misses.
template <class CacheModel>
ConflictGraph replay_runs(CacheModel& cache, const traceopt::TraceProgram& tp,
                          const trace::CompiledStream& stream,
                          const trace::BlockWalk& walk) {
  const std::size_t n = tp.object_count();
  const auto [first_line, end_line] = line_span(tp, stream);
  BuildState st(n, first_line, end_line);

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    CASA_CHECK(stream.cached(bb),
               "conflict build needs every executed block in the layout");
    st.fetches[mo.index()] += stream.words_of(bb);
    for (const trace::LineRun& run : stream.runs(bb)) {
      const cachesim::AccessResult r = cache.access_line(run.addr, run.words);
      // Same-line run: only the first word can miss, the rest hit.
      if (!r.hit) st.on_miss(mo, run.line, r.evicted_line);
    }
  }
  return st.finish(n);
}

ConflictGraph replay_lines(const traceopt::TraceProgram& tp,
                           const trace::CompiledStream& stream,
                           const trace::BlockWalk& walk,
                           const BuildOptions& opt) {
  return cachesim::with_line_model(opt.cache, opt.seed, [&](auto& cache) {
    return replay_runs(cache, tp, stream, walk);
  });
}

/// Family replays above this many objects build per config: the pair
/// index below is objects^2 ids (4 MiB here).
constexpr std::size_t kMaxFamilyObjects = 1024;

/// Runs in `walk`: a bound on any member's miss count, hence on every m_ij.
std::uint64_t walk_runs(const trace::CompiledStream& stream,
                        const trace::BlockWalk& walk) {
  std::uint64_t runs = 0;
  for (const BasicBlockId bb : walk.seq) runs += stream.runs(bb).size();
  return runs;
}

/// Dense ids for (missing object, evictor) pairs, shared by every member
/// of a family replay, so each member's m_ij counts are a plain array —
/// one index load per conflict miss instead of a hash probe.
class PairIds {
 public:
  explicit PairIds(std::size_t objects)
      : objects_(objects), id_of_(objects * objects, kNone) {}

  std::uint32_t id(std::uint32_t from, std::uint32_t to) {
    std::uint32_t& id = id_of_[static_cast<std::size_t>(from) * objects_ + to];
    if (id == kNone) {
      id = static_cast<std::uint32_t>(pairs_.size());
      pairs_.push_back(Edge{MemoryObjectId(from), MemoryObjectId(to), 0});
    }
    return id;
  }
  std::size_t size() const { return pairs_.size(); }
  const Edge& pair(std::size_t id) const { return pairs_[id]; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::size_t objects_;
  std::vector<std::uint32_t> id_of_;  ///< from * objects + to -> id
  std::vector<Edge> pairs_;
};

/// One LRU member of a family replay: BuildState's per-build tables, with
/// the evictor table indexed by the stack engine's dense line ids and the
/// m_ij counts by PairIds. The counts are 32-bit: family replays of 2^32
/// runs or more build per config.
struct Member {
  std::size_t level = 0;  ///< index into StackSimulator::levels()
  unsigned assoc = 1;
  std::vector<MemoryObjectId> evicted_by;
  std::vector<std::uint64_t> cold;
  std::vector<std::uint32_t> m;  ///< pair id -> m_ij
};

/// Reads every member's misses and victims off one stack walk. A member
/// with A ways misses on a first touch or at distance >= A; its fill then
/// evicts the line at depth A-1 iff at least A lines sit above the accessed
/// one (otherwise the set still had an invalid way). Misses are attributed
/// exactly as BuildState::on_miss does.
struct FamilyObserver {
  static constexpr bool kWantsAbove = true;
  std::vector<std::vector<Member*>> by_level;  ///< ascending associativity
  std::vector<unsigned> min_assoc;             ///< by_level[i]'s first
  PairIds* pairs = nullptr;
  std::uint32_t mo = 0;  ///< the fetching object

  void on_level(std::size_t level, std::uint32_t line, bool reuse,
                unsigned distance, const std::uint32_t* above) const {
    // Most accesses hit every member of the level; settle those without
    // touching the member list.
    if (reuse && distance < min_assoc[level]) return;
    for (Member* mb : by_level[level]) {
      // A reuse at distance d hits every member with more than d ways.
      if (reuse && distance < mb->assoc) break;
      MemoryObjectId& ev = mb->evicted_by[line];
      if (!ev.valid()) {
        ++mb->cold[mo];
      } else {
        const std::uint32_t id = pairs->id(mo, ev.value());
        if (id >= mb->m.size()) mb->m.resize(pairs->size(), 0);
        ++mb->m[id];
        ev = MemoryObjectId::invalid();
      }
      if (distance >= mb->assoc) {
        mb->evicted_by[above[mb->assoc - 1]] = MemoryObjectId(mo);
      }
    }
  }
};

/// One observed run. Kept out of line: inlined into replay_family's block
/// loop, the walk measured about 20 % slower.
[[gnu::noinline]] void observe_run(cachesim::StackSimulator& sim,
                                   const trace::LineRun& run,
                                   FamilyObserver& obs) {
  sim.access_line(run.addr, run.words, obs);
}

/// Every member graph of an LRU `family` from one stack replay, in
/// family.configs order.
std::vector<ConflictGraph> replay_family(const traceopt::TraceProgram& tp,
                                         const trace::CompiledStream& stream,
                                         const trace::BlockWalk& walk,
                                         const cachesim::ConfigFamily& family) {
  const std::size_t n = tp.object_count();
  std::vector<Member> members(family.configs.size());
  PairIds pairs(n);
  std::vector<std::uint64_t> fetches(n, 0);
  {
    cachesim::StackSimulator sim(family);
    // Dense line ids count distinct replayed lines, so the span bounds them.
    const auto [first_line, end_line] = line_span(tp, stream);
    FamilyObserver obs;
    obs.by_level.resize(sim.levels().size());
    obs.pairs = &pairs;
    for (std::size_t k = 0; k < members.size(); ++k) {
      Member& mb = members[k];
      mb.level = sim.level_of(family.configs[k].sets());
      mb.assoc = family.configs[k].associativity;
      mb.evicted_by.resize(end_line - first_line);
      mb.cold.assign(n, 0);
      obs.by_level[mb.level].push_back(&mb);
    }
    for (std::vector<Member*>& level : obs.by_level) {
      std::sort(level.begin(), level.end(),
                [](const Member* a, const Member* b) {
                  return a->assoc < b->assoc;
                });
      obs.min_assoc.push_back(level.front()->assoc);
    }
    for (const BasicBlockId bb : walk.seq) {
      const MemoryObjectId mo = tp.object_of(bb);
      CASA_CHECK(stream.cached(bb),
                 "conflict build needs every executed block in the layout");
      obs.mo = mo.value();
      for (const trace::LineRun& run : stream.runs(bb)) {
        fetches[mo.index()] += run.words;
        observe_run(sim, run, obs);
      }
    }
  }

  // Each member's tables go as soon as its graph exists, so the graphs
  // reuse their memory.
  std::vector<ConflictGraph> graphs;
  graphs.reserve(members.size());
  for (Member& mb : members) {
    std::vector<MemoryObjectId>().swap(mb.evicted_by);
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(
        mb.m.size() - std::count(mb.m.begin(), mb.m.end(), 0u)));
    for (std::size_t id = 0; id < mb.m.size(); ++id) {
      if (mb.m[id] == 0) continue;
      edges.push_back(pairs.pair(id));
      edges.back().misses = mb.m[id];
    }
    std::vector<std::uint32_t>().swap(mb.m);
    std::vector<std::uint64_t> hits = hits_from(fetches, mb.cold, edges);
    graphs.emplace_back(n, fetches, std::move(mb.cold), std::move(hits),
                        std::move(edges));
  }
  return graphs;
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

std::vector<ConflictGraph> build_conflict_graphs(
    const traceopt::TraceProgram& tp, const trace::CompiledStream& stream,
    const trace::BlockWalk& walk,
    const std::vector<cachesim::CacheConfig>& caches) {
  // Distinct configs, and the distinct LRU ones as one stack family.
  std::vector<cachesim::CacheConfig> distinct;
  std::vector<std::size_t> slot_of(caches.size());
  for (std::size_t i = 0; i < caches.size(); ++i) {
    CASA_CHECK(caches[i].line_size == stream.line_size(),
               "stream was compiled for a different line size");
    const auto it = std::find(distinct.begin(), distinct.end(), caches[i]);
    slot_of[i] = static_cast<std::size_t>(it - distinct.begin());
    if (it == distinct.end()) distinct.push_back(caches[i]);
  }
  std::vector<std::optional<ConflictGraph>> built(distinct.size());
  cachesim::ConfigFamily lru;
  lru.line_size = stream.line_size();
  std::vector<std::size_t> lru_slots;
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    if (distinct[d].policy != cachesim::ReplacementPolicy::kLru) continue;
    lru.configs.push_back(distinct[d]);
    lru_slots.push_back(d);
  }
  if (lru.configs.size() >= 2 && tp.object_count() <= kMaxFamilyObjects &&
      walk_runs(stream, walk) <= std::numeric_limits<std::uint32_t>::max()) {
    std::vector<ConflictGraph> graphs = replay_family(tp, stream, walk, lru);
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      built[lru_slots[k]].emplace(std::move(graphs[k]));
    }
  }
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    if (built[d].has_value()) continue;
    BuildOptions opt;
    opt.cache = distinct[d];
    built[d].emplace(replay_lines(tp, stream, walk, opt));
  }

  // Duplicates copy; each graph's last use moves it.
  std::vector<std::size_t> uses(distinct.size(), 0);
  for (const std::size_t d : slot_of) ++uses[d];
  std::vector<ConflictGraph> out;
  out.reserve(caches.size());
  for (const std::size_t d : slot_of) {
    if (--uses[d] == 0) {
      out.push_back(std::move(*built[d]));
    } else {
      out.push_back(*built[d]);
    }
  }
  return out;
}

}  // namespace casa::conflict
