// Compiled fetch stream: the block walk pre-lowered to line granularity.
//
// Sequential instruction fetch means the word-granular fetch stream of one
// basic block is fully determined by its layout address: ~line_size/4
// consecutive word fetches collapse into one memory-line touch with a fetch
// count. CompiledStream computes, once per basic block, the sequence of
// (line, word-count) runs the block emits; replaying the dynamic walk then
// costs one Cache::access_line() per run instead of one Cache::access() per
// word — a ~line_size/4 reduction in simulator call volume with bit-identical
// counters (see cachesim::Cache::access_line for the equivalence argument).
//
// The compiler is layout-driven, not walk-driven: compilation is O(static
// code size), independent of trace length, so compiling per simulation call
// is cheap. Blocks whose owning object is absent from the layout (e.g.
// scratchpad-resident objects under move semantics) carry no runs and are
// marked not-cached; consumers handle them on their scratchpad path.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "casa/prog/program.hpp"
#include "casa/support/ids.hpp"
#include "casa/support/units.hpp"

namespace casa::trace {

/// One line-granular access run: `words` consecutive word fetches that all
/// land in memory line `line` (the first at byte address `addr`).
struct LineRun {
  Addr addr = 0;            ///< byte address of the run's first word
  std::uint64_t line = 0;   ///< addr / line_size
  std::uint32_t words = 0;  ///< consecutive word fetches collapsed
};

class CompiledStream {
 public:
  /// Address marking a block as absent from the cached image.
  static constexpr Addr kNotCached = ~Addr{0};

  /// Lowers every block of `program` against `block_addr` (byte address of
  /// each block's first instruction, or kNotCached) for a cache with
  /// `line_size`-byte lines.
  CompiledStream(const prog::Program& program,
                 const std::vector<Addr>& block_addr, Bytes line_size);

  /// Line runs of `bb`, in fetch order. Empty for not-cached or size-0
  /// blocks.
  std::span<const LineRun> runs(BasicBlockId bb) const {
    const BlockRuns& r = block_runs_[bb.index()];
    return {runs_.data() + r.first, r.count};
  }

  /// False when `bb`'s object was absent from the layout used to compile.
  bool cached(BasicBlockId bb) const {
    return block_runs_[bb.index()].cached;
  }

  /// Word fetches `bb` issues per execution (size / word).
  std::uint64_t words_of(BasicBlockId bb) const {
    return block_runs_[bb.index()].words;
  }

  Bytes line_size() const { return line_size_; }

  /// Total line runs across all compiled blocks (static, not dynamic).
  std::size_t total_runs() const { return runs_.size(); }

  /// [first, end) of the line numbers the runs touch; {0, 0} without runs.
  /// Per-line tables of a replay (an evictor table) fit this range.
  std::pair<std::uint64_t, std::uint64_t> line_span() const;

 private:
  struct BlockRuns {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t words = 0;
    bool cached = false;
  };

  std::vector<LineRun> runs_;       ///< all blocks' runs, block-major
  std::vector<BlockRuns> block_runs_;  ///< indexed by BasicBlockId
  Bytes line_size_ = 0;
};

}  // namespace casa::trace
