#include "casa/core/casa_branch_bound.hpp"

#include <algorithm>
#include <numeric>

#include "casa/core/greedy.hpp"
#include "casa/support/error.hpp"

namespace casa::core {

namespace {

/// Quadratic-knapsack-style DFS.
///
/// State per item: undecided / included / excluded. `cur_opt[k]` is an upper
/// bound on item k's remaining marginal saving: its linear value plus every
/// *uncovered* incident edge weight (an edge is covered once either endpoint
/// is included). The node bound is the fractional knapsack over undecided
/// items at cur_opt values — optimistic because a shared uncovered edge may
/// be credited to both endpoints, but it tightens as inclusions cover edges.
/// Branching picks the undecided item with the highest cur_opt density
/// (include branch first).
class Search {
 public:
  Search(const SavingsProblem& sp, const CasaBranchBoundOptions& opt)
      : sp_(sp), opt_(opt) {
    const std::size_t n = sp.item_count();
    incident_.resize(n);
    cur_opt_.assign(sp.value.begin(), sp.value.end());
    for (std::size_t e = 0; e < sp_.edges.size(); ++e) {
      incident_[sp_.edges[e].a].push_back(static_cast<std::uint32_t>(e));
      incident_[sp_.edges[e].b].push_back(static_cast<std::uint32_t>(e));
      cur_opt_[sp_.edges[e].a] += sp_.edges[e].weight;
      cur_opt_[sp_.edges[e].b] += sp_.edges[e].weight;
    }
    state_.assign(n, kUndecided);
    cover_.assign(sp_.edges.size(), 0);
    cap_left_ = sp_.capacity;
    for (const auto& e : sp_.edges) open_edge_weight_ += e.weight;

    // Items that can never contribute are excluded up front: no saving, or
    // they simply do not fit.
    for (std::size_t k = 0; k < n; ++k) {
      if (cur_opt_[k] <= 0 || sp_.weight[k] > sp_.capacity) {
        exclude(k);
      }
    }

    // Static order by linear-value density, for the capacity-free second
    // bound (edges counted once).
    value_order_.resize(n);
    std::iota(value_order_.begin(), value_order_.end(), 0u);
    std::sort(value_order_.begin(), value_order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const double da =
                    sp_.value[a] / static_cast<double>(sp_.weight[a]);
                const double db =
                    sp_.value[b] / static_cast<double>(sp_.weight[b]);
                if (da != db) return da > db;
                return a < b;
              });

    // Incumbent: marginal-density greedy, strengthened by 1-out/1-in local
    // search. A tight incumbent is what keeps the tree small — the
    // fractional bound alone double-counts shared edges.
    const GreedyResult g = solve_greedy(sp_);
    best_chosen_ = g.chosen;
    best_saving_ = g.saving;
    local_search();
  }

  /// Hill-climbs best_chosen_ with single swaps (drop one chosen item, add
  /// the best replacement set greedily) until no move improves.
  void local_search() {
    const std::size_t n = sp_.item_count();
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 20) {
      improved = false;
      for (std::size_t out = 0; out < n; ++out) {
        if (!best_chosen_[out]) continue;
        std::vector<bool> trial = best_chosen_;
        trial[out] = false;
        Bytes used = 0;
        for (std::size_t k = 0; k < n; ++k) {
          if (trial[k]) used += sp_.weight[k];
        }
        // Refill greedily by marginal density.
        for (;;) {
          const Energy base = sp_.saving_for(trial);
          int pick = -1;
          double best_density = 0.0;
          for (std::size_t in = 0; in < n; ++in) {
            if (trial[in] || sp_.weight[in] + used > sp_.capacity) continue;
            trial[in] = true;
            const Energy with = sp_.saving_for(trial);
            trial[in] = false;
            const double d =
                (with - base) / static_cast<double>(sp_.weight[in]);
            if (d > best_density) {
              best_density = d;
              pick = static_cast<int>(in);
            }
          }
          if (pick < 0) break;
          trial[static_cast<std::size_t>(pick)] = true;
          used += sp_.weight[static_cast<std::size_t>(pick)];
        }
        const Energy s = sp_.saving_for(trial);
        if (s > best_saving_ + opt_.eps) {
          best_saving_ = s;
          best_chosen_ = std::move(trial);
          improved = true;
        }
      }
    }
  }

  CasaBranchBoundResult run() {
    dfs(0);
    CasaBranchBoundResult r;
    r.chosen = std::move(best_chosen_);
    r.saving = sp_.saving_for(r.chosen);
    r.nodes = nodes_;
    r.exact = !aborted_;
    r.stats = stats_;
    r.stats.nodes = nodes_;
    return r;
  }

 private:
  static constexpr std::uint8_t kUndecided = 0;
  static constexpr std::uint8_t kIncluded = 1;
  static constexpr std::uint8_t kExcluded = 2;

  double density(std::size_t k) const {
    return cur_opt_[k] / static_cast<double>(sp_.weight[k]);
  }

  /// Two complementary optimistic completions; the min of both is sound:
  ///  (a) fractional knapsack at cur_opt values — capacity-aware, but a
  ///      shared uncovered edge may be credited to both endpoints;
  ///  (b) fractional knapsack at linear values plus *all* still-open edge
  ///      weight — edges counted once, but granted without capacity.
  /// Reads the candidates and densities dfs() just collected in scratch_.
  Energy bound() {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.density > b.density;
              });
    Energy opt_knap = 0;
    Bytes cap = cap_left_;
    for (const Candidate& c : scratch_) {
      const std::size_t k = c.item;
      if (cap == 0) break;
      if (sp_.weight[k] <= cap) {
        opt_knap += cur_opt_[k];
        cap -= sp_.weight[k];
      } else {
        opt_knap += cur_opt_[k] * (static_cast<double>(cap) /
                                   static_cast<double>(sp_.weight[k]));
        cap = 0;
      }
    }

    Energy val_knap = 0;
    cap = cap_left_;
    for (const std::uint32_t k : value_order_) {
      if (cap == 0) break;
      if (state_[k] != kUndecided || sp_.weight[k] > cap_left_ ||
          sp_.value[k] <= 0) {
        continue;
      }
      if (sp_.weight[k] <= cap) {
        val_knap += sp_.value[k];
        cap -= sp_.weight[k];
      } else {
        val_knap += sp_.value[k] * (static_cast<double>(cap) /
                                    static_cast<double>(sp_.weight[k]));
        cap = 0;
      }
    }

    return cur_saving_ + std::min(opt_knap, val_knap + open_edge_weight_);
  }

  std::size_t other_endpoint(std::uint32_t e, std::size_t k) const {
    return sp_.edges[e].a == k ? sp_.edges[e].b : sp_.edges[e].a;
  }

  void include(std::size_t k) {
    state_[k] = kIncluded;
    cap_left_ -= sp_.weight[k];
    cur_saving_ += sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e]++ == 0) {
        cur_saving_ += sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].a] -= sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].b] -= sp_.edges[e].weight;
        // k was undecided, so the edge was coverable (open) until now.
        open_edge_weight_ -= sp_.edges[e].weight;
      }
    }
  }

  void undo_include(std::size_t k) {
    state_[k] = kUndecided;
    cap_left_ += sp_.weight[k];
    cur_saving_ -= sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (--cover_[e] == 0) {
        cur_saving_ -= sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].a] += sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].b] += sp_.edges[e].weight;
        // k is undecided again: the edge is coverable once more.
        open_edge_weight_ += sp_.edges[e].weight;
      }
    }
  }

  // An uncovered edge stops being coverable only when BOTH endpoints are
  // excluded (covering needs one *included* endpoint, which requires an
  // undecided one).
  void exclude(std::size_t k) {
    state_[k] = kExcluded;
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] == 0 && state_[other_endpoint(e, k)] == kExcluded) {
        open_edge_weight_ -= sp_.edges[e].weight;
      }
    }
  }

  void undo_exclude(std::size_t k) {
    state_[k] = kUndecided;
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] == 0 && state_[other_endpoint(e, k)] == kExcluded) {
        open_edge_weight_ += sp_.edges[e].weight;
      }
    }
  }

  void dfs(std::uint64_t depth) {
    if (aborted_) return;
    if (++nodes_ > opt_.max_nodes) {
      aborted_ = true;
      return;
    }
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    if (cur_saving_ > best_saving_) {
      best_saving_ = cur_saving_;
      best_chosen_.assign(state_.size(), false);
      for (std::size_t k = 0; k < state_.size(); ++k) {
        best_chosen_[k] = state_[k] == kIncluded;
      }
      ++stats_.incumbent_updates;
    }

    // Branch variable: densest undecided item that still fits. The same
    // pass collects every such item with its density for bound(), which
    // sorts them on the stored keys.
    int pick = -1;
    double pick_density = 0.0;
    scratch_.clear();
    for (std::size_t k = 0; k < state_.size(); ++k) {
      if (state_[k] != kUndecided || sp_.weight[k] > cap_left_ ||
          cur_opt_[k] <= 0) {
        continue;
      }
      const double d = density(k);
      scratch_.push_back(Candidate{d, static_cast<std::uint32_t>(k)});
      if (pick < 0 || d > pick_density) {
        pick = static_cast<int>(k);
        pick_density = d;
      }
    }
    if (pick < 0) return;  // nothing can be added
    if (bound() <= best_saving_ + opt_.eps) {
      ++stats_.bound_prunes;
      return;
    }

    const auto k = static_cast<std::size_t>(pick);
    include(k);
    dfs(depth + 1);
    undo_include(k);

    exclude(k);
    dfs(depth + 1);
    undo_exclude(k);
  }

  const SavingsProblem& sp_;
  const CasaBranchBoundOptions& opt_;

  std::vector<std::vector<std::uint32_t>> incident_;
  std::vector<Energy> cur_opt_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint16_t> cover_;
  struct Candidate {
    double density;
    std::uint32_t item;
  };
  std::vector<Candidate> scratch_;
  std::vector<std::uint32_t> value_order_;
  Bytes cap_left_ = 0;
  Energy cur_saving_ = 0;
  Energy open_edge_weight_ = 0;

  std::vector<bool> best_chosen_;
  Energy best_saving_ = 0;
  std::uint64_t nodes_ = 0;
  ilp::SolveStats stats_;
  bool aborted_ = false;
};

}  // namespace

CasaBranchBoundResult CasaBranchBound::solve(const SavingsProblem& sp) const {
  Search search(sp, opt_);
  return search.run();
}

}  // namespace casa::core
