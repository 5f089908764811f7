// One-pass multi-configuration cache simulation (Mattson stack distances).
//
// A design-space sweep evaluates the same fetch stream against many cache
// geometries. For LRU replacement the stream need only be replayed ONCE:
// an access hits in an S-set, A-way LRU cache iff fewer than A distinct
// lines mapping to the same set were touched since the previous access to
// its line (the stack property — LRU caches of growing associativity are
// inclusive). With power-of-two set counts the set index is the line
// number's low bits, so the simulator keeps one LRU recency list per
// (set-count level k, set index) — 2^k short lists per level — and each
// access reads its per-set stack distance at every level at once. Only the
// levels some member uses are kept: a {16, 64}-set family walks two levels,
// not seven. Two properties keep the per-access cost tiny: distances only
// matter up to the family's maximum associativity A (everything deeper
// misses in every member), so each level's walk stops after at most A
// nodes — the cost per access is bounded by levels used x A; and per-level
// node handles make the move-to-front splice O(1) without ever walking to
// a deep node. From the per-level distance histograms the exact
// hit/miss/eviction counters for the whole (set count x associativity)
// family are read off after the pass — bit-identical to running Cache per
// configuration (the oracle suite in tests/stack_sim_test.cpp holds this
// across every bundled workload).
//
// The batch engine's stack pass (Workbench::evaluate_batch) feeds it runs
// through the replay kernel (memsim/replay.hpp) and finishes each group
// member from its counters. Its state is a set of recency lists, so the
// kernel replays a walk's repeated loop iterations on it once: the second
// copy's accesses arrive with the weight of every later copy, which see
// the same stack distances. Conflict graphs are built per geometry on the
// tag models (cachesim/line_model.hpp), which keep one recency list per set
// of a single geometry. Only LRU has the inclusion property: a non-LRU
// member is a PreconditionError, and callers replay those geometries one
// by one on cachesim::with_line_model.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/support/units.hpp"

namespace casa::cachesim {

/// A family of LRU configurations evaluated together: fixed line size,
/// varying (power-of-two) set count and associativity.
struct ConfigFamily {
  Bytes line_size = 16;
  std::vector<CacheConfig> configs;

  /// Full power-of-two grid: set counts {1, 2, ..., max_sets} x
  /// associativities {1, 2, ..., max_associativity} (CacheConfig requires a
  /// power-of-two total size, which pins both axes to powers of two).
  static ConfigFamily grid(Bytes line_size, unsigned max_sets,
                           unsigned max_associativity);

  /// Non-empty, every member validated, LRU, and of the family's line size.
  void validate() const;

  unsigned max_associativity() const;
};

/// Exact per-configuration counters, in Cache's word-granular accounting:
/// a run of `words` fetches adds `words` hits on a line hit, and one miss
/// plus `words - 1` hits on a line miss.
struct StackCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< misses that displaced a valid line

  std::uint64_t accesses() const { return hits + misses; }
  friend bool operator==(const StackCounters&, const StackCounters&) = default;
};

class StackSimulator {
 public:
  /// The state is a recency order (memsim::RecencyState).
  static constexpr bool kRecencyState = true;

  /// Validates `family` (ConfigFamily::validate).
  explicit StackSimulator(ConfigFamily family);

  /// One word fetch at byte address `addr` (== access_line(addr, 1)).
  void access(Addr addr) { access_line(addr, 1); }

  /// Same contract as Cache::access_line: `words` consecutive word fetches
  /// all inside the memory line containing `addr`. The access counts
  /// `weight` times in the histograms and the word total, as if it recurred
  /// that often at the same stack distance; the recency lists move once.
  /// A first touch must have weight 1.
  void access_line(Addr addr, std::uint32_t words, std::uint64_t weight = 1);

  /// Counters for one configuration, as if a fresh Cache had replayed the
  /// whole access sequence. The configuration needs LRU, the family's line
  /// size, a set count that some member has (only those levels are kept)
  /// and an associativity <= the family's maximum — membership in
  /// `family().configs` is not required.
  StackCounters counters(const CacheConfig& config) const;

  /// log2 of every set count some member has, ascending, each once — the
  /// levels the engine keeps and walks.
  const std::vector<unsigned>& levels() const { return levels_; }
  /// Index of `sets` in levels(); throws PreconditionError when no member
  /// has that set count.
  std::size_t level_of(unsigned sets) const;

 private:
  ConfigFamily family_;
  unsigned offset_shift_ = 0;  ///< log2(line_size)
  unsigned a_max_ = 1;         ///< max associativity

  // Engine state. Kept level i (set count 2^levels_[i]) models
  // the member geometries with that many sets: one LRU recency list per
  // set, stitched through per-line node handles (next_[i], prev_[i],
  // indexed by dense line id) so a move-to-front splice at any depth is
  // O(1). Lines never leave a list, so each level's lists partition the
  // distinct lines touched so far.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  std::vector<unsigned> levels_;
  std::vector<std::size_t> set_mask_;              ///< [i] = 2^levels_[i] - 1
  std::vector<std::vector<std::uint32_t>> heads_;  ///< [i][set] -> line id
  std::vector<std::vector<std::uint32_t>> next_;   ///< [i][line id]
  std::vector<std::vector<std::uint32_t>> prev_;   ///< [i][line id]
  /// line number -> dense id + 1 (0 = never touched). Line numbers are
  /// layout offsets / line_size, so this stays small and O(1) beats hashing.
  std::vector<std::uint32_t> line_id_;
  std::uint32_t lines_ = 0;  ///< dense ids minted so far
  /// Distance histograms, levels_.size() x (a_max_+1), distances capped at
  /// a_max_. reuse_: accesses whose line was on the stack; cold_: first
  /// touches (their "distance" is the set's distinct-line count, which
  /// decides whether the fill still found an invalid way).
  std::vector<std::uint64_t> reuse_hist_;
  std::vector<std::uint64_t> cold_hist_;
  std::uint64_t cold_runs_ = 0;
  std::uint64_t total_words_ = 0;
};

}  // namespace casa::cachesim
