// Execution profile: per-block and per-edge dynamic counts.
//
// The profile plays the role of the paper's profiling run: it weights the
// conflict-graph vertices (instruction fetches f_i) and drives hot-path
// trace formation (edge counts).
#pragma once

#include <cstdint>
#include <vector>

#include "casa/prog/program.hpp"
#include "casa/support/ids.hpp"

namespace casa::trace {

class Profile {
 public:
  explicit Profile(std::size_t block_count)
      : block_count_(block_count, 0), successors_(block_count) {}

  void record(BasicBlockId bb) { ++block_count_[bb.index()]; }
  void record_edge(BasicBlockId from, BasicBlockId to) {
    for (Successor& s : successors_[from.index()]) {
      if (s.to == to) {
        ++s.count;
        return;
      }
    }
    successors_[from.index()].push_back(Successor{to, 1});
  }

  /// Dynamic executions of `bb`.
  std::uint64_t count(BasicBlockId bb) const {
    return block_count_[bb.index()];
  }

  /// Dynamic traversals of CFG edge from -> to.
  std::uint64_t edge_count(BasicBlockId from, BasicBlockId to) const {
    for (const Successor& s : successors_[from.index()]) {
      if (s.to == to) return s.count;
    }
    return 0;
  }

  /// Instruction fetches issued while executing `bb` over the whole run
  /// (executions x words in block). This is the paper's f_i restricted to
  /// one block.
  std::uint64_t fetches(const prog::Program& p, BasicBlockId bb) const {
    return count(bb) * (p.block(bb).size / kWordBytes);
  }

  /// Total instruction fetches of the run.
  std::uint64_t total_fetches(const prog::Program& p) const;

  std::size_t block_slots() const { return block_count_.size(); }

 private:
  struct Successor {
    BasicBlockId to;
    std::uint64_t count = 0;
  };

  std::vector<std::uint64_t> block_count_;
  /// Per block, each block that followed it and how often, in first-seen
  /// order. A block has a handful of successors, so the executor's
  /// per-block scan is cheaper than a hash probe.
  std::vector<std::vector<Successor>> successors_;
};

}  // namespace casa::trace
