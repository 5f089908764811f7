#include "casa/trace/executor.hpp"

#include <cstring>
#include <limits>
#include <type_traits>

#include "casa/support/error.hpp"
#include "casa/support/rng.hpp"

namespace casa::trace {

namespace {

// Iterations compare by memcmp: an id is its one 32-bit value.
static_assert(std::has_unique_object_representations_v<BasicBlockId>);

class Interp final : public prog::StmtVisitor {
 public:
  Interp(const prog::Program& p, const Executor::Options& opt,
         ExecutionResult& out)
      : p_(p), opt_(opt), out_(out), rng_(opt.seed) {}

  void run() {
    const prog::Function& entry = p_.function(p_.entry());
    entry.body().accept(*this);
  }

 private:
  void emit(BasicBlockId bb) {
    CASA_CHECK(out_.total_blocks < opt_.max_blocks,
               "executor exceeded max_blocks — runaway workload?");
    out_.profile.record(bb);
    if (prev_.valid()) out_.profile.record_edge(prev_, bb);
    prev_ = bb;
    if (opt_.record_walk) out_.walk.seq.push_back(bb);
    ++out_.total_blocks;
    out_.total_fetches += p_.block(bb).size / kWordBytes;
  }

  void visit(const prog::BlockStmt& s) override { emit(s.bb()); }

  void visit(const prog::SeqStmt& s) override {
    for (const auto& item : s.items()) item->accept(*this);
  }

  void visit(const prog::LoopStmt& s) override {
    emit(s.header());
    const std::int64_t trips =
        s.trips_min() == s.trips_max()
            ? s.trips_min()
            : rng_.next_in(s.trips_min(), s.trips_max());
    // The run of equal iterations that ends at the latest one: it starts at
    // run.begin and holds run.copies iterations of run.period blocks.
    std::vector<BasicBlockId>& seq = out_.walk.seq;
    Run run;
    for (std::int64_t t = 0; t < trips; ++t) {
      const std::size_t begin = seq.size();
      const std::size_t own = out_.walk.repeats.size();
      s.body().accept(*this);
      emit(s.latch());
      if (!opt_.record_walk) continue;
      const std::size_t period = seq.size() - begin;
      if (run.copies > 0 && period == run.period &&
          std::memcmp(seq.data() + begin - period, seq.data() + begin,
                      period * sizeof(BasicBlockId)) == 0) {
        ++run.copies;
      } else {
        // The run ended before this iteration, whose repeats start at own.
        record(run, own);
        run = Run{begin, period, 1};
      }
    }
    record(run, out_.walk.repeats.size());
  }

  void visit(const prog::IfStmt& s) override {
    emit(s.cond());
    if (rng_.next_bool(s.p_then())) {
      s.then_arm().accept(*this);
    } else if (s.else_arm() != nullptr) {
      s.else_arm()->accept(*this);
    }
  }

  void visit(const prog::CallStmt& s) override {
    emit(s.site());
    CASA_CHECK(depth_ < opt_.max_call_depth, "call depth limit exceeded");
    ++depth_;
    p_.function(s.callee()).body().accept(*this);
    --depth_;
  }

  void visit(const prog::SwitchStmt& s) override {
    emit(s.selector());
    double total = 0.0;
    for (double w : s.weights()) total += w;
    double pick = rng_.next_unit() * total;
    std::size_t arm = 0;
    for (; arm + 1 < s.weights().size(); ++arm) {
      pick -= s.weights()[arm];
      if (pick < 0.0) break;
    }
    s.arms()[arm]->accept(*this);
  }

  struct Run {
    std::size_t begin = 0;
    std::size_t period = 0;
    std::size_t copies = 0;
  };

  static std::uint64_t skipped(std::size_t period, std::size_t copies) {
    return static_cast<std::uint64_t>(copies - 2) * period;
  }

  /// Adds `run` to the repeat schedule when it has three copies or more and
  /// skips at least kMinSkippedBlocks. The repeats recorded inside it end
  /// at index `after` (those from `after` on belong to the iteration that
  /// ended the run); the run replaces them when it skips more than they
  /// do, so the schedule stays disjoint and sorted without a final sort.
  void record(const Run& run, std::size_t after) {
    if (run.copies < 3) return;
    const std::uint64_t saves = skipped(run.period, run.copies);
    if (saves < Executor::kMinSkippedBlocks ||
        run.begin + run.period * run.copies >
            std::numeric_limits<std::uint32_t>::max()) {
      return;
    }
    std::vector<Repeat>& repeats = out_.walk.repeats;
    std::size_t inner = after;
    std::uint64_t inner_saves = 0;
    while (inner > 0 && repeats[inner - 1].begin >= run.begin) {
      --inner;
      inner_saves += skipped(repeats[inner].period, repeats[inner].copies);
    }
    if (inner_saves >= saves) return;
    const auto first = repeats.erase(
        repeats.begin() + static_cast<std::ptrdiff_t>(inner),
        repeats.begin() + static_cast<std::ptrdiff_t>(after));
    repeats.insert(first, Repeat{static_cast<std::uint32_t>(run.begin),
                                 static_cast<std::uint32_t>(run.period),
                                 static_cast<std::uint32_t>(run.copies)});
  }

  const prog::Program& p_;
  const Executor::Options& opt_;
  ExecutionResult& out_;
  Rng rng_;
  BasicBlockId prev_;
  std::uint32_t depth_ = 0;
};

}  // namespace

ExecutionResult Executor::run(const prog::Program& program, Options opt) {
  ExecutionResult result{BlockWalk{}, Profile(program.block_count()), 0, 0};
  Interp interp(program, opt, result);
  interp.run();
  return result;
}

}  // namespace trace
