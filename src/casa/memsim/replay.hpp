// The replay kernel: the one walk over a compiled fetch stream.
//
// Every line-granular replay is this loop: memsim's three simulations, the
// two-level hierarchy, overlay phases, and the conflict-graph and
// phase-profile builds.
// For each executed block it routes the block to the scratchpad (Route::spm),
// the loop cache (Route::split) or the cache, checks that a cache-bound
// block is in the layout, sums each tier's words once, and counts the
// replayed runs. The caller's `on_run(model, mo, run, weight)` says what a
// cache-bound run does — count a miss, attribute it, or forward it to an
// L2 — and returns whether it missed; misses are summed per block in a
// register.
//
// The repeat schedule. A whole walk (trace::BlockWalk) carries the runs of
// equal consecutive loop iterations the executor recorded. On a model whose
// state is a recency order (RecencyState: cachesim::LruTags, every one-way
// cache and 2-, 4- and 8-way LRU) the kernel replays a run's first copy at
// weight 1 and its second at weight copies - 1, and skips the rest. That
// is exact: replaying an access sequence from the state it left once
// leaves that same state again (each set's order is the sequence's lines
// by last use, then the untouched lines as they were; Mattson et al.,
// 1970), so copies 2..k all start from one state and see the same hits,
// misses and victims. A miss in copy 2 or later is never cold (its line
// was touched in copy 1), and its evictor is the access that pushed the
// line out after its previous use, which lies in the same stretch of the
// walk for every such copy, so MissAttribution charges each copy alike.
// Every tally the kernel keeps and every side effect `on_run` has is
// multiplied by the piece's weight, so the counts stay those of the flat
// walk.
//
// Everything else replays flat: the generic Cache (FIFO, round-robin and
// random above one way; its state is not a recency order), the two-level
// hierarchy (its L2 sees the L1's misses and settles a copy later), and a
// window of a walk (overlay phases, phase profiles), which callers pass as
// a span of blocks. The word-granular replays stay as the oracles
// tests/compiled_stream_test.cpp holds this kernel to.
//
// The model is what on_run drives: the tag model cachesim::with_line_model
// picks. It outlives a call, so overlay simulation replays one phase per
// call on one model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "casa/loopcache/loop_cache.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/memory_object.hpp"

namespace casa::memsim {

/// What a line-granular replay counts: the word fetches each tier served,
/// the cache's misses (one per missing same-line run) and evictions, and
/// the cache-bound runs replayed, all as the flat walk would count them;
/// and the blocks the repeat schedule let it skip.
struct ReplayTally {
  std::uint64_t spm_words = 0;
  std::uint64_t lc_words = 0;
  std::uint64_t cache_words = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_runs = 0;
  std::uint64_t skipped_blocks = 0;
};

/// A model whose whole state is a recency order, so the kernel may replay a
/// walk's repeats once (see above). A model opts in with
/// `static constexpr bool kRecencyState = true`.
template <class Model>
concept RecencyState = Model::kRecencyState;

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

namespace detail {

/// Replays `blocks` along `route` in pieces, adding its counts to `tally`:
/// the stretches between `repeats` at weight 1, and each repeat's first
/// copy at weight 1 and its second at weight copies - 1 (see above).
/// `on_run(model, mo, run, weight)` replays each cache-bound run of object
/// `mo`, applies `weight` to what it counts, and returns true when it
/// missed. Evictions are left to the caller (cachesim::evictions_after),
/// since a model may outlive one call. Always inlined, and callers build the
/// Route at the call inside the model's lambda, so it folds into the loop:
/// an absent tier costs no test and a tally the caller never reads costs no
/// sums (the single conflict-graph build measured about 15 % slower without
/// that).
template <class Model, class OnRun>
[[gnu::always_inline]] inline void replay_pieces(
    Model& model, const Route& route, std::span<const BasicBlockId> blocks,
    std::span<const trace::Repeat> repeats, ReplayTally& tally,
    OnRun& on_run) {
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
  std::uint64_t misses = 0, runs_replayed = 0, skipped = 0;
  const std::size_t n = blocks.size();
  const trace::Repeat* next = repeats.data();
  const trace::Repeat* const last = next + repeats.size();
  std::size_t pos = 0;
  while (pos < n) {
    // The piece [pos, end) at `weight`; the walk resumes at `resume`.
    std::size_t end = n;
    std::size_t resume = n;
    std::uint64_t weight = 1;
    if (next != last) {
      const std::size_t begin = next->begin;
      const std::size_t period = next->period;
      const std::size_t copies = next->copies;
      CASA_CHECK((pos <= begin || pos == begin + period) && copies >= 2 &&
                     period > 0 && begin + period * copies <= n,
                 "repeats must be disjoint, in order and inside the walk");
      if (pos < begin) {  // the stretch before the repeat
        end = resume = begin;
      } else if (pos == begin) {  // its first copy
        end = resume = begin + period;
      } else {  // its second copy, standing for every later one
        end = pos + period;
        weight = copies - 1;
        resume = begin + period * copies;
        skipped += resume - end;
        ++next;
      }
    }

    std::uint64_t piece_spm = 0, piece_lc = 0, piece_cache = 0;
    std::uint64_t piece_misses = 0, piece_runs = 0;
    for (const BasicBlockId bb : blocks.subspan(pos, end - pos)) {
      const MemoryObjectId mo = tp.object_of(bb);
      const std::uint64_t words = stream.words_of(bb);
      if (spm != nullptr && (*spm)[mo.index()]) {
        piece_spm += words;
        continue;
      }

      CASA_CHECK(stream.cached(bb),
                 "cached block missing from the compiled layout");
      std::span<const trace::LineRun> runs = stream.runs(bb);
      std::uint64_t block_cache_words = words;
      if (split != nullptr) {
        const std::uint64_t lc = split->lc_words(bb);
        piece_lc += lc;
        block_cache_words -= lc;
        runs = split->runs(bb);
      }
      piece_cache += block_cache_words;
      if (object_words != nullptr) {
        object_words[mo.index()] += block_cache_words * weight;
      }
      piece_runs += runs.size();
      // A per-block sum: a fresh local stays in a register across the runs.
      std::uint64_t block_misses = 0;
      for (const trace::LineRun& run : runs) {
        block_misses += on_run(model, mo, run, weight);
      }
      piece_misses += block_misses;
    }
    spm_words += piece_spm * weight;
    lc_words += piece_lc * weight;
    cache_words += piece_cache * weight;
    misses += piece_misses * weight;
    runs_replayed += piece_runs * weight;
    pos = resume;
  }
  tally.spm_words += spm_words;
  tally.lc_words += lc_words;
  tally.cache_words += cache_words;
  tally.cache_misses += misses;
  tally.cache_runs += runs_replayed;
  tally.skipped_blocks += skipped;
}

}  // namespace detail

/// Replays a whole walk: along its repeat schedule when `Model` is a
/// RecencyState, flat otherwise.
template <class Model, class OnRun>
[[gnu::always_inline]] inline void replay(Model& model, const Route& route,
                                          const trace::BlockWalk& walk,
                                          ReplayTally& tally, OnRun&& on_run) {
  std::span<const trace::Repeat> repeats;
  if constexpr (RecencyState<Model>) repeats = walk.repeats;
  detail::replay_pieces(model, route, walk.seq, repeats, tally, on_run);
}

/// Replays `blocks` (a window of a walk, or a walk a caller must replay
/// flat) block by block.
template <class Model, class OnRun>
[[gnu::always_inline]] inline void replay(Model& model, const Route& route,
                                          std::span<const BasicBlockId> blocks,
                                          ReplayTally& tally, OnRun&& on_run) {
  detail::replay_pieces(model, route, blocks, {}, tally, on_run);
}

/// The on_run of a replay that only counts misses.
struct CountMisses {
  template <class CacheModel>
  bool operator()(CacheModel& cache, MemoryObjectId /*mo*/,
                  const trace::LineRun& run, std::uint64_t /*weight*/) const {
    return !cache.access_line(run.addr, run.words).hit;
  }
};

}  // namespace casa::memsim
