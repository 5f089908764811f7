// The replay kernel: the one walk over a compiled fetch stream.
//
// Every line-granular replay is this loop: memsim's three simulations, the
// two-level hierarchy, overlay phases, the conflict-graph and phase-profile
// builds and the batch engine's stack pass.
// For each executed block it routes the block to the scratchpad (Route::spm),
// the loop cache (Route::split) or the cache, checks that a cache-bound
// block is in the layout, sums each tier's words once, and counts the
// replayed runs. The caller's `on_run(model, mo, run)` says what a
// cache-bound run does — count a miss, attribute it, forward it to an L2,
// or feed the stack engine — and returns whether it missed; misses are
// summed per block in a register.
//
// The model is what on_run drives: the tag model cachesim::with_line_model
// picks, or a cachesim::StackSimulator. It outlives a call, so overlay
// simulation replays one phase per call on one model. The word-granular
// replays stay as the oracles tests/compiled_stream_test.cpp holds this
// kernel to.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "casa/loopcache/loop_cache.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/traceopt/memory_object.hpp"

namespace casa::memsim {

/// What a line-granular replay counts: the word fetches each tier served,
/// the cache's misses (one per missing same-line run) and evictions, and
/// the cache-bound runs replayed.
struct ReplayTally {
  std::uint64_t spm_words = 0;
  std::uint64_t lc_words = 0;
  std::uint64_t cache_words = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_runs = 0;
};

/// A compiled stream's runs re-cut at loop-cache region edges. Region
/// membership is tested per word, as in the word replay, but once per static
/// word instead of once per fetch. Words inside a region never reach the
/// cache, so each block keeps them as a count and its other words as
/// cache-bound sub-runs (each one line, word-contiguous, in fetch order):
/// the cache sees exactly the word replay's accesses, in the same order.
class RegionSplit {
 public:
  RegionSplit(const trace::CompiledStream& stream,
              const loopcache::RegionSet& regions, std::size_t blocks);

  std::span<const trace::LineRun> runs(BasicBlockId bb) const {
    return {runs_.data() + first_[bb.index()],
            runs_.data() + first_[bb.index() + 1]};
  }
  std::uint64_t lc_words(BasicBlockId bb) const {
    return lc_words_[bb.index()];
  }

 private:
  std::vector<trace::LineRun> runs_;     ///< cache-bound sub-runs
  std::vector<std::uint32_t> first_;     ///< per block, into runs_
  std::vector<std::uint64_t> lc_words_;  ///< per block, loop-cache words
};

/// Where a replay sends each executed block. `tp` and `stream` are
/// required; the rest default to "none".
struct Route {
  const traceopt::TraceProgram* tp = nullptr;
  const trace::CompiledStream* stream = nullptr;
  /// Scratchpad-resident objects; their blocks never reach the cache.
  /// Null or empty: no scratchpad.
  const std::vector<bool>* spm = nullptr;
  /// Loop-cache cut of `stream` (null: no loop cache).
  const RegionSplit* split = nullptr;
  /// Per-object counters that each cache-bound block's cache words are
  /// added to (empty: not counted).
  std::span<std::uint64_t> object_words = {};
};

/// Replays `blocks` (a walk, or a window of one) along `route`, adding its
/// counts to `tally`; `on_run(model, mo, run)` replays each cache-bound
/// run of object `mo` and returns true when it missed. Evictions are left
/// to the caller (cachesim::evictions_after), since a model may outlive
/// one call. Always inlined, and callers build the Route at the call
/// inside the model's lambda, so it folds into the loop: an absent tier
/// costs no test and a tally the caller never reads costs no sums (the
/// single conflict-graph build measured about 15 % slower without that).
template <class Model, class OnRun>
[[gnu::always_inline]] inline void replay(Model& model, const Route& route,
                                          std::span<const BasicBlockId> blocks,
                                          ReplayTally& tally, OnRun&& on_run) {
  const traceopt::TraceProgram& tp = *route.tp;
  const trace::CompiledStream& stream = *route.stream;
  const std::vector<bool>* const spm =
      route.spm != nullptr && !route.spm->empty() ? route.spm : nullptr;
  const RegionSplit* const split = route.split;
  std::uint64_t* const object_words =
      route.object_words.empty() ? nullptr : route.object_words.data();
  // Locals, not tally's fields: nothing the model stores can alias them,
  // so they stay in registers across the walk.
  std::uint64_t spm_words = 0, lc_words = 0, cache_words = 0;
  std::uint64_t misses = 0, runs_replayed = 0;
  for (const BasicBlockId bb : blocks) {
    const MemoryObjectId mo = tp.object_of(bb);
    const std::uint64_t words = stream.words_of(bb);
    if (spm != nullptr && (*spm)[mo.index()]) {
      spm_words += words;
      continue;
    }

    CASA_CHECK(stream.cached(bb),
               "cached block missing from the compiled layout");
    std::span<const trace::LineRun> runs = stream.runs(bb);
    std::uint64_t block_cache_words = words;
    if (split != nullptr) {
      const std::uint64_t lc = split->lc_words(bb);
      lc_words += lc;
      block_cache_words -= lc;
      runs = split->runs(bb);
    }
    cache_words += block_cache_words;
    if (object_words != nullptr) object_words[mo.index()] += block_cache_words;
    runs_replayed += runs.size();
    // A per-block sum: a fresh local stays in a register across the runs.
    std::uint64_t block_misses = 0;
    for (const trace::LineRun& run : runs) {
      block_misses += on_run(model, mo, run);
    }
    misses += block_misses;
  }
  tally.spm_words += spm_words;
  tally.lc_words += lc_words;
  tally.cache_words += cache_words;
  tally.cache_misses += misses;
  tally.cache_runs += runs_replayed;
}

/// The on_run of a replay that only counts misses.
struct CountMisses {
  template <class CacheModel>
  bool operator()(CacheModel& cache, MemoryObjectId /*mo*/,
                  const trace::LineRun& run) const {
    return !cache.access_line(run.addr, run.words).hit;
  }
};

}  // namespace casa::memsim
