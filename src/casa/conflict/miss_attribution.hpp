// Miss attribution: the paper's conflict-miss bookkeeping (§3.3, eq. 5/6).
//
// A fill records the filling object as the evictor of the line it
// displaced; when that line misses again, the miss is charged to (missing
// object, recorded evictor) — one m_ij — and the record is cleared. A miss
// with no record is cold. build_conflict_graph (both granularities),
// overlay::build_phase_profile and data::profile_data share this one type.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "casa/conflict/conflict_graph.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"

namespace casa::conflict {

class MissAttribution {
 public:
  /// `objects` memory objects replayed over memory lines [first_line,
  /// end_line): every replayed line must lie there.
  MissAttribution(std::size_t objects, std::uint64_t first_line,
                  std::uint64_t end_line);

  std::vector<std::uint64_t> fetches;  ///< per object, added by the replay
  std::vector<std::uint64_t> cold;     ///< per object

  /// One missing line access by `mo`, standing for `weight` equal misses
  /// (a repeated loop iteration's, memsim/replay.hpp): charge them to the
  /// recorded evictor or count them cold, and record `mo` as the evictor of
  /// `evicted_line`.
  void on_miss(MemoryObjectId mo, std::uint64_t line,
               std::optional<std::uint64_t> evicted_line,
               std::uint64_t weight = 1) {
    MemoryObjectId& ev = evictor(line);
    if (!ev.valid()) {
      cold[mo.index()] += weight;
    } else {
      pairs_.add((static_cast<std::uint64_t>(mo.value()) << 32) | ev.value(),
                 weight);
      ev = MemoryObjectId::invalid();
    }
    if (evicted_line.has_value()) evictor(*evicted_line) = mo;
  }

  /// memsim::replay's on_run: replays one same-line run of `mo` on `cache`
  /// and attributes its miss (only the first word can miss) `weight` times.
  template <class CacheModel>
  bool operator()(CacheModel& cache, MemoryObjectId mo,
                  const trace::LineRun& run, std::uint64_t weight) {
    const auto r = cache.access_line(run.addr, run.words);
    if (!r.hit) on_miss(mo, run.line, r.evicted_line, weight);
    return !r.hit;
  }

  /// The m_ij counted since the last call, one Edge per pair, unsorted.
  /// The counts restart while the evictor records carry on (a phase
  /// profile's windows).
  std::vector<Edge> take_edges();

  /// The conflict graph of what was attributed, with `hits` per object;
  /// empty derives them: every fetch that is neither a cold miss nor one
  /// of its object's m_ij hit. The word reference counts its own.
  ConflictGraph finish(std::vector<std::uint64_t> hits = {});

 private:
  /// m_ij counters keyed by i << 32 | j: linear probing over a
  /// power-of-two table at most half full. The all-ones key never occurs
  /// (ids are below 2^32 - 1) and marks an empty slot.
  class PairCounts {
   public:
    PairCounts() : slots_(kInitialSlots) {}

    void add(std::uint64_t key, std::uint64_t weight) {
      Slot* s = probe(key);
      if (s->key == kEmpty) {
        if (2 * (used_ + 1) > slots_.size()) {
          rehash(2 * slots_.size());
          s = probe(key);
        }
        s->key = key;
        ++used_;
      }
      s->count += weight;
    }

    /// One edge per counted pair, in slot order.
    std::vector<Edge> edges() const;

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
      while (slots_[i].key != key && slots_[i].key != kEmpty) {
        i = (i + 1) & mask;
      }
      return &slots_[i];
    }
    void rehash(std::size_t n);

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };

  MemoryObjectId& evictor(std::uint64_t line) {
    CASA_CHECK(line - first_line_ < evicted_by_.size(),
               "replayed line outside the layout's image");
    return evicted_by_[line - first_line_];
  }

  PairCounts pairs_;
  // Line first_line_ + k -> object whose fill evicted it (invalid: none).
  std::vector<MemoryObjectId> evicted_by_;
  std::uint64_t first_line_ = 0;
};

}  // namespace casa::conflict
