#include "casa/conflict/miss_attribution.hpp"

#include <utility>

namespace casa::conflict {

namespace {

std::vector<std::uint64_t> hits_from(std::vector<std::uint64_t> fetches,
                                     const std::vector<std::uint64_t>& cold,
                                     const std::vector<Edge>& edges) {
  for (std::size_t i = 0; i < fetches.size(); ++i) fetches[i] -= cold[i];
  for (const Edge& e : edges) fetches[e.from.index()] -= e.misses;
  return fetches;
}

}  // namespace

MissAttribution::MissAttribution(std::size_t objects, std::uint64_t first_line,
                                 std::uint64_t end_line)
    : fetches(objects, 0),
      cold(objects, 0),
      evicted_by_(end_line - first_line),
      first_line_(first_line) {}

std::vector<Edge> MissAttribution::take_edges() {
  return std::exchange(pairs_, PairCounts{}).edges();
}

ConflictGraph MissAttribution::finish(std::vector<std::uint64_t> hits) {
  std::vector<Edge> edges = pairs_.edges();
  if (hits.empty()) hits = hits_from(fetches, cold, edges);
  const std::size_t n = fetches.size();
  return ConflictGraph(n, std::move(fetches), std::move(cold), std::move(hits),
                       std::move(edges));
}

void MissAttribution::PairCounts::rehash(std::size_t n) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(n, Slot{});
  for (const Slot& s : old) {
    if (s.key != kEmpty) *probe(s.key) = s;
  }
}

std::vector<Edge> MissAttribution::PairCounts::edges() const {
  std::vector<Edge> out;
  out.reserve(used_);
  for (const Slot& s : slots_) {
    if (s.key == kEmpty) continue;
    const auto from = static_cast<std::uint32_t>(s.key >> 32);
    const auto to = static_cast<std::uint32_t>(s.key);
    out.push_back(Edge{MemoryObjectId(from), MemoryObjectId(to), s.count});
  }
  return out;
}

}  // namespace casa::conflict
