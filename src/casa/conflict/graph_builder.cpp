#include "casa/conflict/graph_builder.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "casa/cachesim/direct_mapped.hpp"
#include "casa/cachesim/stack_sim.hpp"
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
                   walk.seq, t, st);
  });
  return st.finish();
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

/// One LRU member of a family replay: MissAttribution's tables, with
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
/// exactly as MissAttribution::on_miss does.
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

/// One observed run of object `mo`. Kept out of line: inlined into the
/// replay kernel's block loop, the walk measured about 20 % slower.
[[gnu::noinline]] void observe_run(cachesim::StackSimulator& sim,
                                   MemoryObjectId mo,
                                   const trace::LineRun& run,
                                   FamilyObserver& obs) {
  obs.mo = mo.value();
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
    const auto [first_line, end_line] = stream.line_span();
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
    memsim::ReplayTally t;
    memsim::replay(sim,
                   memsim::Route{.tp = &tp, .stream = &stream,
                                 .object_words = fetches},
                   walk.seq, t,
                   [&obs](cachesim::StackSimulator& s, MemoryObjectId mo,
                          const trace::LineRun& run) {
                     observe_run(s, mo, run, obs);
                     return false;  // misses are read off per member
                   });
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
