// Line-granular tag models, and the one place a replay picks its model.
//
// LruTags<A> keeps each set's A tags in recency order, most recent first
// (the stack order of Mattson et al., 1970), with kEmpty marking an empty
// way (no line number reaches all-ones). An access inserts its line at the
// front and pushes the tags behind it down by one until it pops the line
// itself (a hit) or the last tag falls off (a miss, whose victim that tag
// is, unless it was kEmpty). So a hit on the MRU tag costs one load, one
// store and one compare; A = 1 unrolls to exactly that with no branch.
// Empty ways always sit behind every resident line, so the fill takes an
// empty way while one is left, as Cache's does, and then evicts the least
// recently used line, as Cache's LRU does. The run's length changes
// nothing: the words after a run's first hit its line.
//
// LruTags<1> models a one-way cache under every policy: a one-way set has
// one victim, so LRU, FIFO, round-robin and random all evict it. LruTags
// with more ways models LRU only.
//
// Its whole state is each set's recency order, so replaying an access
// sequence from the state it left once leaves that state again: the replay
// kernel (memsim/replay.hpp) replays a walk's repeated loop iterations on
// it once, weighted, instead of copy by copy. Cache keeps FIFO stamps,
// round-robin cursors and a random stream, so it replays every copy.
//
// Every single-configuration line replay (memsim/replay.hpp's kernel in
// memsim, two-level L1, overlay, conflict graphs and phase profiles) takes
// its model from with_line_model below: LruTags at one way, and at 2, 4 or
// 8 LRU ways; Cache for every other geometry and policy.
// tests/compiled_stream_test.cpp and tests/conflict_test.cpp hold both
// against the word-granular replay through Cache; tests/cachesim_test.cpp
// holds access_line equal to Cache's at every access.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/support/error.hpp"

namespace casa::cachesim {

template <unsigned A>
class LruTags {
  static_assert(A == 1 || A == 2 || A == 4 || A == 8,
                "LruTags models 1, 2, 4 or 8 ways");

 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  /// The state is a recency order (memsim::RecencyState).
  static constexpr bool kRecencyState = true;

  /// Validates `config` (CacheConfig::validate) and requires A ways, and
  /// LRU when A > 1; the policy is irrelevant at one way and accepted as
  /// is.
  explicit LruTags(const CacheConfig& config) {
    config.validate();
    CASA_CHECK(config.associativity == A,
               "the tag model's associativity differs from the cache's");
    CASA_CHECK(A == 1 || config.policy == ReplacementPolicy::kLru,
               "a multi-way tag model needs LRU replacement");
    offset_shift_ = config.offset_bits();
    set_mask_ = config.sets() - 1;
    tags_.assign(static_cast<std::size_t>(config.sets()) * A, kEmpty);
  }

  /// Same contract and result as Cache::access_line on a cache of this
  /// geometry (under any policy and seed at one way): `words` consecutive
  /// word fetches inside the line containing `addr`, of which at most the
  /// first misses.
  AccessResult access_line(Addr addr, std::uint32_t /*words*/) {
    const std::uint64_t line = addr >> offset_shift_;
    std::uint64_t* const set =
        tags_.data() + static_cast<std::size_t>(
                           static_cast<unsigned>(line) & set_mask_) * A;
    std::uint64_t displaced = line;
    for (unsigned w = 0; w < A; ++w) {
      std::swap(displaced, set[w]);
      if (displaced == line) break;
    }
    AccessResult r;
    r.hit = displaced == line;
    if (!r.hit && displaced != kEmpty) r.evicted_line = displaced;
    return r;
  }

  /// Ways holding a line (see evictions_after).
  std::uint64_t filled_ways() const {
    return static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](std::uint64_t tag) { return tag != kEmpty; }));
  }

 private:
  // Not 64-bit: a tag store then cannot alias the geometry, which stays in
  // registers across an inlined replay loop.
  unsigned offset_shift_ = 0;        ///< log2(line_size)
  unsigned set_mask_ = 0;            ///< sets - 1
  std::vector<std::uint64_t> tags_;  ///< per set, A tags MRU-first
};

/// Evictions of a replay that has counted `misses` on `model` since it was
/// built. A way, once filled, stays filled, so every miss evicts but one
/// per filled way; a loop that needs only counts reads `hit` alone and the
/// victim test compiles away. Cache counts its evictions itself.
template <unsigned A>
std::uint64_t evictions_after(const LruTags<A>& model, std::uint64_t misses) {
  return misses - model.filled_ways();
}
inline std::uint64_t evictions_after(const Cache& model, std::uint64_t) {
  return model.evictions();
}

/// Calls `replay(model)` with the line-granular model for `config` and
/// returns its result: LruTags at one way and at 2, 4 or 8 LRU ways, a
/// Cache (seeded with `seed`) otherwise. The one place the replays choose
/// their model.
template <class Replay>
decltype(auto) with_line_model(const CacheConfig& config, std::uint64_t seed,
                               Replay&& replay) {
  const bool lru = config.policy == ReplacementPolicy::kLru;
  if (config.associativity == 1) {
    LruTags<1> model(config);
    return replay(model);
  }
  if (lru && config.associativity == 2) {
    LruTags<2> model(config);
    return replay(model);
  }
  if (lru && config.associativity == 4) {
    LruTags<4> model(config);
    return replay(model);
  }
  if (lru && config.associativity == 8) {
    LruTags<8> model(config);
    return replay(model);
  }
  Cache model(config, seed);
  return replay(model);
}

}  // namespace casa::cachesim
