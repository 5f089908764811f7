// Direct-mapped tag model: Cache's one-way special case at line granularity.
//
// A one-way set holds one line, so the replacement policy never chooses:
// LRU, FIFO, round-robin and random all evict the set's only line. The
// whole state is one tag per set, with kEmpty marking an empty set (no
// line number reaches all-ones). A same-line run misses iff its set's tag
// differs from its line, and the fill evicts iff the displaced tag was
// valid. The run's length changes nothing — one way has no recency to
// refresh — so a hit is one load, one compare and one store, with no
// branch.
//
// Every single-configuration line replay (memsim/replay.hpp's kernel in
// memsim, two-level L1, overlay, conflict graphs and phase profiles) takes
// this model at one way and Cache otherwise (with_line_model below).
// tests/compiled_stream_test.cpp holds both against the word-granular
// replay through Cache; tests/cachesim_test.cpp holds access_line equal to
// Cache's under every policy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/support/error.hpp"

namespace casa::cachesim {

class DirectMappedCache {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Validates `config` (CacheConfig::validate) and requires one way; the
  /// policy is irrelevant at one way and accepted as is.
  explicit DirectMappedCache(const CacheConfig& config) {
    config.validate();
    CASA_CHECK(config.associativity == 1,
               "the direct-mapped model needs associativity 1");
    offset_shift_ = config.offset_bits();
    set_mask_ = config.sets() - 1;
    tags_.assign(config.sets(), kEmpty);
  }

  /// Same contract and result as Cache::access_line on a one-way cache of
  /// this geometry, under any policy and seed: `words` consecutive word
  /// fetches inside the line containing `addr`, of which at most the first
  /// misses.
  AccessResult access_line(Addr addr, std::uint32_t /*words*/) {
    const std::uint64_t line = addr >> offset_shift_;
    std::uint64_t& tag = tags_[static_cast<unsigned>(line) & set_mask_];
    const std::uint64_t displaced = tag;
    tag = line;
    AccessResult r;
    r.hit = displaced == line;
    if (!r.hit && displaced != kEmpty) r.evicted_line = displaced;
    return r;
  }

  /// Sets holding a line (see evictions_after).
  std::uint64_t filled_sets() const {
    return static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](std::uint64_t tag) { return tag != kEmpty; }));
  }

 private:
  // Not 64-bit: a tag store then cannot alias the geometry, which stays in
  // registers across an inlined replay loop.
  unsigned offset_shift_ = 0;        ///< log2(line_size)
  unsigned set_mask_ = 0;            ///< sets - 1
  std::vector<std::uint64_t> tags_;  ///< per set: resident line or kEmpty
};

/// Evictions of a replay that has counted `misses` on `model` since it was
/// built. On one way every miss evicts but a set's first fill, so a loop
/// that needs only counts reads `hit` alone and the victim test compiles
/// away; Cache counts its evictions itself.
inline std::uint64_t evictions_after(const DirectMappedCache& model,
                                     std::uint64_t misses) {
  return misses - model.filled_sets();
}
inline std::uint64_t evictions_after(const Cache& model, std::uint64_t) {
  return model.evictions();
}

/// Calls `replay(model)` with the line-granular model for `config` and
/// returns its result: a DirectMappedCache at one way, a Cache (seeded with
/// `seed`) otherwise. The one place the replays choose their model.
template <class Replay>
decltype(auto) with_line_model(const CacheConfig& config, std::uint64_t seed,
                               Replay&& replay) {
  if (config.associativity == 1) {
    DirectMappedCache model(config);
    return replay(model);
  }
  Cache model(config, seed);
  return replay(model);
}

}  // namespace casa::cachesim
