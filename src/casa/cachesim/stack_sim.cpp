#include "casa/cachesim/stack_sim.hpp"

#include <algorithm>

#include "casa/support/error.hpp"

namespace casa::cachesim {

ConfigFamily ConfigFamily::grid(Bytes line_size, unsigned max_sets,
                                unsigned max_associativity) {
  CASA_CHECK(is_pow2(max_sets), "max_sets must be a power of two");
  CASA_CHECK(max_associativity >= 1, "max_associativity must be >= 1");
  ConfigFamily fam;
  fam.line_size = line_size;
  for (unsigned sets = 1; sets <= max_sets; sets *= 2) {
    for (unsigned assoc = 1; assoc <= max_associativity; assoc *= 2) {
      CacheConfig cfg;
      cfg.line_size = line_size;
      cfg.associativity = assoc;
      cfg.size = static_cast<Bytes>(sets) * assoc * line_size;
      fam.configs.push_back(cfg);
    }
  }
  return fam;
}

void ConfigFamily::validate() const {
  CASA_CHECK(!configs.empty(), "ConfigFamily has no configurations");
  CASA_CHECK(is_pow2(line_size), "line size must be a power of two");
  for (const CacheConfig& cfg : configs) {
    cfg.validate();
    CASA_CHECK(cfg.line_size == line_size,
               "ConfigFamily members must share one line size");
    CASA_CHECK(cfg.policy == ReplacementPolicy::kLru,
               "the stack engine models LRU members only");
  }
}

unsigned ConfigFamily::max_associativity() const {
  unsigned m = 1;
  for (const CacheConfig& cfg : configs) m = std::max(m, cfg.associativity);
  return m;
}

StackSimulator::StackSimulator(ConfigFamily family)
    : family_(std::move(family)) {
  family_.validate();
  offset_shift_ = log2_pow2(family_.line_size);
  a_max_ = family_.max_associativity();
  for (const CacheConfig& cfg : family_.configs) {
    levels_.push_back(log2_pow2(cfg.sets()));
  }
  std::sort(levels_.begin(), levels_.end());
  levels_.erase(std::unique(levels_.begin(), levels_.end()), levels_.end());
  for (const unsigned k : levels_) {
    set_mask_.push_back((std::size_t{1} << k) - 1);
    heads_.emplace_back(std::size_t{1} << k, kNil);
  }
  next_.resize(levels_.size());
  prev_.resize(levels_.size());
  reuse_hist_.assign(levels_.size() * (a_max_ + 1), 0);
  cold_hist_.assign(levels_.size() * (a_max_ + 1), 0);
}

void StackSimulator::access_line(Addr addr, std::uint32_t words,
                                 std::uint64_t weight) {
  const std::uint64_t line = addr >> offset_shift_;

  if (line >= line_id_.size()) {
    line_id_.resize(
        std::max<std::size_t>(line + 1, line_id_.size() * 2), 0);
  }
  const std::uint32_t slot = line_id_[line];
  const bool reuse = slot != 0;
  std::uint32_t node;
  if (reuse) {
    node = slot - 1;
  } else {
    // First touch: mint a dense id with unlinked handles at every level.
    CASA_CHECK(weight == 1, "a weighted access must not be a first touch");
    ++cold_runs_;
    node = lines_++;
    line_id_[line] = node + 1;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      next_[i].push_back(kNil);
      prev_[i].push_back(kNil);
    }
  }
  total_words_ += words * weight;

  // At each kept level the accessed line's set list holds, MRU-first, the
  // distinct lines of its cache set. Its position there is the per-set
  // stack distance; positions >= a_max_ miss in every family member, so
  // each walk stops after at most a_max_ nodes. A first touch's "distance"
  // is the set's distinct-line count (decides whether the fill still found
  // an invalid way), equally capped. The splice never needs the walk to
  // reach the node: its level handles unlink it in O(1) from any depth.
  std::uint64_t* const hist = (reuse ? reuse_hist_ : cold_hist_).data();
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    std::uint32_t* const nxt = next_[i].data();
    std::uint32_t* const prv = prev_[i].data();
    std::uint32_t& head =
        heads_[i][static_cast<std::size_t>(line) & set_mask_[i]];

    unsigned d = 0;
    std::uint32_t cur = head;
    while (cur != kNil && cur != node && d < a_max_) {
      ++d;
      cur = nxt[cur];
    }
    hist[i * (a_max_ + 1) + d] += weight;

    if (head == node) continue;  // already MRU
    if (reuse) {
      const std::uint32_t p = prv[node];
      const std::uint32_t n = nxt[node];
      nxt[p] = n;
      if (n != kNil) prv[n] = p;
    }
    nxt[node] = head;
    if (head != kNil) prv[head] = node;
    prv[node] = kNil;
    head = node;
  }
}

std::size_t StackSimulator::level_of(unsigned sets) const {
  CASA_CHECK(is_pow2(sets), "set count must be a power of two");
  const auto it =
      std::lower_bound(levels_.begin(), levels_.end(), log2_pow2(sets));
  CASA_CHECK(it != levels_.end() && *it == log2_pow2(sets),
             "no family member has this set count");
  return static_cast<std::size_t>(it - levels_.begin());
}

StackCounters StackSimulator::counters(const CacheConfig& config) const {
  CASA_CHECK(config.line_size == family_.line_size,
             "queried config's line size differs from the family's");
  CASA_CHECK(config.policy == ReplacementPolicy::kLru,
             "the stack engine answers LRU configs only");
  config.validate();
  const std::size_t level = level_of(config.sets());
  const unsigned assoc = config.associativity;
  CASA_CHECK(assoc >= 1 && assoc <= a_max_,
             "associativity exceeds the family's maximum");

  // A stack-resident access misses iff its per-set distance >= assoc (and
  // then always evicts: >= assoc distinct lines already filled the set). A
  // first touch always misses and evicts iff the set had already seen
  // >= assoc distinct lines (no invalid way left).
  const std::uint64_t* reuse = reuse_hist_.data() + level * (a_max_ + 1);
  const std::uint64_t* cold = cold_hist_.data() + level * (a_max_ + 1);
  std::uint64_t reuse_misses = 0;
  std::uint64_t cold_evictions = 0;
  for (unsigned d = assoc; d <= a_max_; ++d) {
    reuse_misses += reuse[d];
    cold_evictions += cold[d];
  }

  StackCounters out;
  out.misses = reuse_misses + cold_runs_;
  out.hits = total_words_ - out.misses;
  out.evictions = reuse_misses + cold_evictions;
  return out;
}

}  // namespace casa::cachesim
