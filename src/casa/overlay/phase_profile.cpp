#include "casa/overlay/phase_profile.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

#include "casa/cachesim/line_model.hpp"
#include "casa/conflict/miss_attribution.hpp"
#include "casa/memsim/replay.hpp"
#include "casa/support/error.hpp"

namespace casa::overlay {

namespace {

/// One phase's directed m_ij merged into undirected pairs a < b, in (a, b)
/// order; self-conflicts have no overlay edge.
std::vector<PhaseEdge> merged_pairs(const std::vector<conflict::Edge>& edges) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> merged;
  for (const conflict::Edge& e : edges) {
    const std::uint32_t i = e.from.value();
    const std::uint32_t j = e.to.value();
    if (i != j) merged[{std::min(i, j), std::max(i, j)}] += e.misses;
  }
  std::vector<PhaseEdge> out;
  out.reserve(merged.size());
  for (const auto& [key, misses] : merged) {
    out.push_back(PhaseEdge{key.first, key.second, misses});
  }
  return out;
}

}  // namespace

std::uint64_t PhaseProfile::total_fetches(std::size_t i) const {
  std::uint64_t total = 0;
  for (const Phase& p : phases_) total += p.fetches[i];
  return total;
}

PhaseProfile build_phase_profile(const traceopt::TraceProgram& tp,
                                 const traceopt::Layout& layout,
                                 const trace::BlockWalk& walk,
                                 const PhaseProfileOptions& opt) {
  CASA_CHECK(opt.phase_count >= 1, "need at least one phase");
  CASA_CHECK(!walk.seq.empty(), "empty walk");

  const std::size_t n = tp.object_count();
  const std::size_t pcount = opt.phase_count;
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(tp, layout, opt.cache.line_size);
  const auto [first_line, end_line] = stream.line_span();
  // One evictor table for the whole walk; each phase takes its own m_ij.
  conflict::MissAttribution misses(n, first_line, end_line);

  std::vector<Phase> phases(pcount);
  memsim::ReplayTally t;
  cachesim::with_line_model(opt.cache, opt.seed, [&](auto& cache) {
    for (std::size_t p = 0; p < pcount; ++p) {
      Phase& phase = phases[p];
      phase.begin = walk.seq.size() * p / pcount;
      phase.end = walk.seq.size() * (p + 1) / pcount;
      phase.fetches.assign(n, 0);
      const std::span<const BasicBlockId> blocks(
          walk.seq.data() + phase.begin, phase.end - phase.begin);
      memsim::replay(cache,
                     memsim::Route{.tp = &tp, .stream = &stream,
                                   .object_words = phase.fetches},
                     blocks, t, misses);
      phase.edges = merged_pairs(misses.take_edges());
    }
  });
  return PhaseProfile(std::move(phases), n);
}

}  // namespace casa::overlay
