// Deterministic program executor (the repo's ARMulator substitute).
//
// Interprets the structured AST with a seeded RNG for branch outcomes and
// variable trip counts, producing (a) the dynamic basic-block walk — from
// which any memory layout can later derive the exact instruction fetch
// stream — and (b) the execution profile.
//
// While it records the walk, the executor also records its repeat schedule:
// every run of three or more equal consecutive loop iterations. The
// recency-ordered replays (memsim/replay.hpp) replay such a run's first two
// copies and weight the second by copies - 1; every other replay walks
// `seq` flat.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/prog/program.hpp"
#include "casa/trace/profile.hpp"

namespace casa::trace {

/// `copies` equal consecutive loop iterations of `period` blocks each,
/// starting at walk position `begin`. 32-bit: a recorded walk is capped at
/// max_blocks (4·10^8 by default), and the executor records no repeat
/// reaching past 2^32 - 1.
struct Repeat {
  std::uint32_t begin = 0;
  std::uint32_t period = 0;
  std::uint32_t copies = 0;

  friend bool operator==(const Repeat&, const Repeat&) = default;
};

/// The dynamic sequence of executed basic blocks.
struct BlockWalk {
  std::vector<BasicBlockId> seq;
  /// The repeat schedule over `seq`: disjoint, sorted by `begin`, each with
  /// copies >= 3 and saving (copies - 2) * period >= Executor::
  /// kMinSkippedBlocks blocks. Not nested: an outer run replaces the runs
  /// inside it when it saves more. Empty for a hand-built walk, which then
  /// replays flat.
  std::vector<Repeat> repeats;
};

struct ExecutionResult {
  BlockWalk walk;
  Profile profile;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_fetches = 0;
};

struct ExecutorOptions {
  std::uint64_t seed = 1;
  /// Hard stop to guard against mis-specified huge workloads.
  std::uint64_t max_blocks = 400'000'000;
  /// When false, only the profile is produced (saves memory for
  /// profile-only passes); the walk and its repeat schedule stay empty.
  bool record_walk = true;
  /// Maximum call depth (recursion guard).
  std::uint32_t max_call_depth = 256;
};

class Executor {
 public:
  using Options = ExecutorOptions;

  /// The fewest blocks a recorded repeat lets a replay skip. Over the seven
  /// bundled programs' 1-way simulations and conflict graphs, minimums of 1,
  /// 4 and 8 saved the same time within noise, 16 and 32 less; 8 keeps the
  /// schedule shortest of those three.
  static constexpr std::uint64_t kMinSkippedBlocks = 8;

  /// Runs `program` from its entry function.
  static ExecutionResult run(const prog::Program& program, Options opt = {});
};

}  // namespace casa::trace
