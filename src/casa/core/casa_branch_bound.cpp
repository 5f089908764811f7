#include "casa/core/casa_branch_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "casa/core/greedy.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
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
///
/// Where that bound fails on a search past kLagStartNodes nodes, a
/// Lagrangian bound L(mu) gets a second chance to prune (docs/solver.md,
/// "Lagrangian bound"). Each edge e carries a multiplier mu_e in [0, w_e]
/// that splits its weight between a constant and its endpoints' values.
/// mu' is mu with every edge that has an excluded endpoint at w_e, and
/// L(mu) = cur_saving + sum over open edges of (w_e - mu'_e) + the
/// fractional knapsack over the candidates at
/// lambda_k = v_k + sum over k's uncovered edges of mu'_e.
/// mu = w gives the cur_opt knapsack above; the best mu gives the LP bound.
///
/// run<true>() is the enumeration mode (docs/solver.md, "Near-optimal
/// set"): both bounds prune only below the floor, incumbent - window, and
/// the included set is recorded at the root and at every include child
/// that may lie above it. Each include adds an item of positive marginal
/// saving, and no subtree that holds a mask above the floor is cut, so
/// every mask whose chosen items each add a positive saving is reached.
/// run<false>() is solve()'s search; the mode is a template parameter so
/// that its node loop carries no test of it.
class Search {
 public:
  Search(const SavingsProblem& sp, const CasaBranchBoundOptions& opt,
         Energy window = 0)
      : sp_(sp), opt_(opt), window_(window) {
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

    root_state_ = state_;
    mult_.mu.resize(sp_.edges.size());
    for (std::size_t e = 0; e < sp_.edges.size(); ++e) {
      mult_.mu[e] = sp_.edges[e].weight;
    }
    mult_.slack_pos.assign(sp_.edges.size(), Multipliers::kNotSlack);
    lam_.assign(n, 0);
    lag_x_.assign(n, 0);
    tracer_ = obs::Tracer::current();
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

  template <bool kEnumerate>
  CasaBranchBoundResult run() {
    if constexpr (kEnumerate) record();  // the root's included set
    dfs<kEnumerate>(0);
    if (tracer_ != nullptr) {
      tracer_->instant(obs::trace_names::kIlpPrunes,
                       static_cast<double>(stats_.bound_prunes),
                       obs::trace_names::kCatIlp);
    }
    CasaBranchBoundResult r;
    r.chosen = std::move(best_chosen_);
    r.saving = sp_.saving_for(r.chosen);
    r.nodes = nodes_;
    r.exact = !aborted_;
    r.stats = stats_;
    r.stats.nodes = nodes_;
    r.lagrangian_prunes = lagrangian_prunes_;
    if constexpr (kEnumerate) {
      // The exact test: the search kept every mask that might pass it.
      const Energy floor = r.saving - window_;
      for (std::vector<bool>& mask : near_) {
        if (sp_.saving_for(mask) >= floor) {
          r.near_optimal.push_back(std::move(mask));
        }
      }
    }
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
    if (!lag_on_) return;
    // Edges k just covered leave the Lagrangian: their free endpoints lose
    // mu_e, and the open term its (w_e - mu_e).
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] != 1) continue;
      const std::size_t j = other_endpoint(e, k);
      if (state_[j] != kUndecided) continue;
      lam_[j] -= mult_.mu[e];
      lag_open_ -= sp_.edges[e].weight - mult_.mu[e];
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
    if (!lag_on_) return;
    // lambda of a decided item is not kept; k's is recomputed here.
    Energy lam_k = sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] != 0) continue;
      const std::size_t j = other_endpoint(e, k);
      if (state_[j] == kExcluded) {
        lam_k += sp_.edges[e].weight;
        continue;
      }
      lam_k += mult_.mu[e];
      lam_[j] += mult_.mu[e];
      lag_open_ += sp_.edges[e].weight - mult_.mu[e];
    }
    lam_[k] = lam_k;
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
    if (!lag_on_) return;
    // An uncovered edge to an undecided item now has mu'_e = w_e: the whole
    // weight moves from the open term to that item.
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] != 0) continue;
      const std::size_t j = other_endpoint(e, k);
      if (state_[j] != kUndecided) continue;
      const Energy shift = sp_.edges[e].weight - mult_.mu[e];
      lam_[j] += shift;
      lag_open_ -= shift;
    }
  }

  void undo_exclude(std::size_t k) {
    state_[k] = kUndecided;
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] == 0 && state_[other_endpoint(e, k)] == kExcluded) {
        open_edge_weight_ += sp_.edges[e].weight;
      }
    }
    if (!lag_on_) return;
    Energy lam_k = sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] != 0) continue;
      const std::size_t j = other_endpoint(e, k);
      if (state_[j] == kExcluded) {
        lam_k += sp_.edges[e].weight;
        continue;
      }
      const Energy shift = sp_.edges[e].weight - mult_.mu[e];
      lam_k += mult_.mu[e];
      lam_[j] -= shift;
      lag_open_ += shift;
    }
    lam_[k] = lam_k;
  }

  // ---- Lagrangian bound ----

  /// Search size at which the bound starts: most instances finish sooner
  /// and never pay for it.
  static constexpr std::uint64_t kLagStartNodes = 256;
  /// Polyak step scale of the one step each evaluation that does not prune
  /// takes (fewest nodes over Table 1 and the mpeg sweep grid among
  /// 0.5-2).
  static constexpr double kLagTheta = 1.5;
  /// Back-off: after every kLagWindow evaluations, fewer than
  /// kLagWindowMinPrunes prunes (35 %) switch the bound off for the next
  /// kLagBackoffNodes nodes, doubled for each failed window in a row.
  static constexpr std::uint32_t kLagWindow = 256;
  static constexpr std::uint32_t kLagWindowMinPrunes = 90;
  static constexpr std::uint64_t kLagBackoffNodes = 16 * kLagWindow;
  /// Steps of the root tuning whose bound a tracer receives.
  static constexpr int kLagRootSteps = 300;

  /// Rounding margin of the L prune (nJ). 1e-9 |L| covers ~10^7
  /// roundings of 2^-53 |L|, six orders of magnitude above the drift
  /// measured between updated and rebuilt lambdas; 1e-6 covers L near zero
  /// (docs/solver.md, "The margin"). The enumeration mode keeps the same
  /// margin on its knapsack-bound prune and its record test.
  static Energy lag_margin(Energy L) { return 1e-9 * std::abs(L) + 1e-6; }

  /// Enumeration: masks below this saving are outside the window.
  Energy floor() const { return best_saving_ - window_; }

  /// Enumeration: keeps the included set when it may lie within the
  /// window; run() applies the exact test once the incumbent is final.
  void record() {
    if (cur_saving_ + lag_margin(cur_saving_) < floor()) return;
    std::vector<bool>& mask = near_.emplace_back(state_.size(), false);
    for (std::size_t k = 0; k < state_.size(); ++k) {
      mask[k] = state_[k] == kIncluded;
    }
  }

  /// One multiplier per edge, and the edges below their weight (the only
  /// ones a negative subgradient can move).
  struct Multipliers {
    static constexpr std::uint32_t kNotSlack = ~0u;
    std::vector<Energy> mu;
    std::vector<std::uint32_t> slack;      ///< edges with mu_e < w_e
    std::vector<std::uint32_t> slack_pos;  ///< place in slack, or kNotSlack
  };

  void set_mu(Multipliers& m, std::uint32_t e, Energy mu) const {
    m.mu[e] = mu;
    const bool slack = mu < sp_.edges[e].weight;
    if (slack == (m.slack_pos[e] != Multipliers::kNotSlack)) return;
    if (slack) {
      m.slack_pos[e] = static_cast<std::uint32_t>(m.slack.size());
      m.slack.push_back(e);
    } else {
      const std::uint32_t last = m.slack.back();
      m.slack[m.slack_pos[e]] = last;
      m.slack_pos[last] = m.slack_pos[e];
      m.slack.pop_back();
      m.slack_pos[e] = Multipliers::kNotSlack;
    }
  }

  /// lambda and the open term from scratch, for the items undecided in
  /// `state`.
  Energy lag_rebuild(const std::vector<std::uint8_t>& state,
                     const std::vector<Energy>& mu,
                     std::vector<Energy>& lam) const {
    Energy open = 0;
    for (std::size_t k = 0; k < lam.size(); ++k) lam[k] = sp_.value[k];
    for (std::uint32_t e = 0; e < sp_.edges.size(); ++e) {
      const std::uint8_t sa = state[sp_.edges[e].a];
      const std::uint8_t sb = state[sp_.edges[e].b];
      const Energy w = sp_.edges[e].weight;
      if (sa == kIncluded || sb == kIncluded) continue;  // covered
      if (sa == kUndecided && sb == kUndecided) {
        lam[sp_.edges[e].a] += mu[e];
        lam[sp_.edges[e].b] += mu[e];
        open += w - mu[e];
      } else if (sa == kUndecided) {
        lam[sp_.edges[e].a] += w;
      } else if (sb == kUndecided) {
        lam[sp_.edges[e].b] += w;
      }
    }
    return open;
  }

  /// Adds item k to the Lagrangian knapsack's candidates.
  void lag_offer(std::uint32_t k, const std::vector<Energy>& lam) {
    if (lam[k] > 0) {
      lag_heap_.push_back(
          Candidate{lam[k] / static_cast<double>(sp_.weight[k]), k});
    }
  }

  /// Fractional knapsack within `cap` over the offered candidates at `lam`
  /// values, in density order (ties by index). Records each taken fraction
  /// in lag_x_ (and the item in lag_taken_) for the subgradient. Few
  /// candidates fit, so a heap hands them out in order without sorting the
  /// rest. Inlined by force: with both search modes in this file, GCC
  /// otherwise stops inlining it into solve()'s node loop.
  [[gnu::always_inline]] Energy lag_knapsack(Bytes cap,
                                             const std::vector<Energy>& lam) {
    const auto after = [](const Candidate& a, const Candidate& b) {
      if (a.density != b.density) return a.density < b.density;
      return a.item > b.item;
    };
    std::make_heap(lag_heap_.begin(), lag_heap_.end(), after);
    Energy knap = 0;
    while (cap > 0 && !lag_heap_.empty()) {
      std::pop_heap(lag_heap_.begin(), lag_heap_.end(), after);
      const std::uint32_t k = lag_heap_.back().item;
      lag_heap_.pop_back();
      double x = 1.0;
      if (sp_.weight[k] <= cap) {
        cap -= sp_.weight[k];
      } else {
        x = static_cast<double>(cap) / static_cast<double>(sp_.weight[k]);
        cap = 0;
      }
      knap += lam[k] * x;
      lag_x_[k] = x;
      lag_taken_.push_back(k);
    }
    lag_heap_.clear();
    return knap;
  }

  /// One projected Polyak step toward `target` on the edges whose
  /// endpoints are both undecided in `state`, from the knapsack fractions
  /// in lag_x_: g_e = x_a + x_b - 1 and mu_e -= t g_e within [0, w_e],
  /// with t = theta (L - target) / |g|^2 over the edges that can move.
  /// Keeps `lam` and `open` in step, then clears lag_x_. Only two kinds of
  /// edge can move: g_e < 0 needs mu_e < w_e (m.slack), and g_e > 0 needs
  /// both endpoints taken.
  void lag_step(Energy L, Energy target, double theta,
                const std::vector<std::uint8_t>& state, Multipliers& m,
                std::vector<Energy>& lam, Energy& open) {
    double norm2 = 0;
    lag_grad_.clear();
    for (const std::uint32_t e : m.slack) {
      const std::uint32_t a = sp_.edges[e].a;
      const std::uint32_t b = sp_.edges[e].b;
      const double g = lag_x_[a] + lag_x_[b] - 1.0;
      if (g >= 0 || state[a] != kUndecided || state[b] != kUndecided) {
        continue;
      }
      norm2 += g * g;
      lag_grad_.push_back(Gradient{e, g});
    }
    for (const std::uint32_t k : lag_taken_) {
      for (const std::uint32_t e : incident_[k]) {
        const std::size_t j = other_endpoint(e, k);
        // Taken items are undecided; visit each edge from its lower end.
        if (lag_x_[j] == 0 || j < k || m.mu[e] <= 0) continue;
        const double g = lag_x_[k] + lag_x_[j] - 1.0;
        norm2 += g * g;
        lag_grad_.push_back(Gradient{e, g});
      }
    }
    if (norm2 > 0) {
      const double t = theta * (L - target) / norm2;
      for (const Gradient& gr : lag_grad_) {
        const SavingsProblem::Edge& edge = sp_.edges[gr.edge];
        const Energy mu =
            std::clamp(m.mu[gr.edge] - t * gr.g, 0.0, edge.weight);
        const Energy d = mu - m.mu[gr.edge];
        set_mu(m, gr.edge, mu);
        lam[edge.a] += d;
        lam[edge.b] += d;
        open -= d;
      }
    }
    lag_untake();
  }

  void lag_untake() {
    for (const std::uint32_t k : lag_taken_) lag_x_[k] = 0;
    lag_taken_.clear();
  }

  /// The root bound after kLagRootSteps Polyak steps from the search's
  /// multipliers, on a copy: the search never reads it, so a traced solve
  /// explores the same nodes as an untraced one.
  Energy lag_root_bound() {
    Multipliers m = mult_;
    std::vector<Energy> lam(sp_.item_count());
    Energy open = lag_rebuild(root_state_, m.mu, lam);
    Energy best = std::numeric_limits<Energy>::infinity();
    double theta = 2.0;
    int stall = 0;
    for (int step = 0; step < kLagRootSteps && best > best_saving_; ++step) {
      for (std::uint32_t k = 0; k < lam.size(); ++k) {
        if (root_state_[k] == kUndecided) lag_offer(k, lam);
      }
      const Energy L = open + lag_knapsack(sp_.capacity, lam);
      if (L < best) {
        best = L;
        stall = 0;
      } else if (++stall == 10) {  // ten steps without progress
        theta /= 2;
        stall = 0;
      }
      lag_step(L, best_saving_, theta, root_state_, m, lam, open);
    }
    return best;
  }

  /// The second prune test, run where bound() failed. Prunes only when L
  /// cannot beat the incumbent itself (no eps): the subtree then holds no
  /// strict improvement, so the incumbent sequence stays bound()'s. In
  /// the enumeration mode it prunes only when L falls below the floor.
  template <bool kEnumerate>
  bool lag_prunes() {
    if (!lag_on_) {
      if (nodes_ < lag_resume_at_) return false;
      if (tracer_ != nullptr && !lag_traced_) {
        lag_traced_ = true;
        tracer_->counter(obs::trace_names::kIlpLagrangianBound,
                         lag_root_bound());
      }
      lag_open_ = lag_rebuild(state_, mult_.mu, lam_);
      lag_on_ = true;
    }
    // The candidates are the items dfs() collected for bound().
    for (const Candidate& c : scratch_) lag_offer(c.item, lam_);
    const Energy L = cur_saving_ + lag_open_ + lag_knapsack(cap_left_, lam_);
    const Energy target = kEnumerate ? floor() : best_saving_;
    const bool prune = kEnumerate ? L + lag_margin(L) < target
                                  : L + lag_margin(L) <= target;
    if (prune) {
      lag_untake();
      ++lag_window_prunes_;
    } else {
      lag_step(L, target, kLagTheta, state_, mult_, lam_, lag_open_);
    }
    if (++lag_window_evals_ == kLagWindow) {
      if (lag_window_prunes_ < kLagWindowMinPrunes) {
        lag_on_ = false;
        lag_resume_at_ = nodes_ + (kLagBackoffNodes << lag_failed_windows_);
        lag_failed_windows_ = std::min(lag_failed_windows_ + 1, 20u);
      } else {
        lag_failed_windows_ = 0;
        // A fresh lambda each window bounds the drift of the incremental
        // updates.
        lag_open_ = lag_rebuild(state_, mult_.mu, lam_);
      }
      lag_window_evals_ = 0;
      lag_window_prunes_ = 0;
    }
    return prune;
  }

  template <bool kEnumerate>
  void dfs(std::uint64_t depth) {
    if (aborted_) return;
    if (++nodes_ > opt_.max_nodes) {
      aborted_ = true;
      return;
    }
    if ((nodes_ & 1023u) == 0 && tracer_ != nullptr) {
      // Sampled progress, as ilp::BranchAndBound's node loop samples it.
      tracer_->counter(obs::trace_names::kIlpNodes,
                       static_cast<double>(nodes_));
      tracer_->counter(obs::trace_names::kIlpPrunes,
                       static_cast<double>(stats_.bound_prunes));
    }
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    if (cur_saving_ > best_saving_) {
      best_saving_ = cur_saving_;
      best_chosen_.assign(state_.size(), false);
      for (std::size_t k = 0; k < state_.size(); ++k) {
        best_chosen_[k] = state_[k] == kIncluded;
      }
      ++stats_.incumbent_updates;
      if (tracer_ != nullptr) {
        tracer_->instant(obs::trace_names::kIlpIncumbent, best_saving_,
                         obs::trace_names::kCatIlp);
      }
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
    if constexpr (kEnumerate) {
      const Energy b = bound();
      if (b + lag_margin(b) < floor()) {
        ++stats_.bound_prunes;
        return;
      }
    } else if (bound() <= best_saving_ + opt_.eps) {
      ++stats_.bound_prunes;
      return;
    }
    if (lag_prunes<kEnumerate>()) {
      ++stats_.bound_prunes;
      ++lagrangian_prunes_;
      return;
    }

    const auto k = static_cast<std::size_t>(pick);
    include(k);
    if constexpr (kEnumerate) record();
    dfs<kEnumerate>(depth + 1);
    undo_include(k);

    exclude(k);
    dfs<kEnumerate>(depth + 1);
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

  // Lagrangian bound. mult_ is one set for the whole search and is never
  // restored on backtrack: every mu in [0, w] is sound.
  std::vector<std::uint8_t> root_state_;
  Multipliers mult_;
  /// lambda per undecided item and the open term sum (w_e - mu'_e), kept
  /// up to date by include/exclude and their undos while lag_on_.
  std::vector<Energy> lam_;
  Energy lag_open_ = 0;
  bool lag_on_ = false;
  bool lag_traced_ = false;
  std::uint64_t lag_resume_at_ = kLagStartNodes;
  std::uint32_t lag_window_evals_ = 0;
  std::uint32_t lag_window_prunes_ = 0;
  unsigned lag_failed_windows_ = 0;  ///< in a row
  std::uint64_t lagrangian_prunes_ = 0;
  std::vector<Candidate> lag_heap_;
  std::vector<double> lag_x_;
  std::vector<std::uint32_t> lag_taken_;
  struct Gradient {
    std::uint32_t edge;
    double g;
  };
  std::vector<Gradient> lag_grad_;

  obs::Tracer* tracer_ = nullptr;

  // Enumeration mode only.
  const Energy window_;
  std::vector<std::vector<bool>> near_;
};

}  // namespace

CasaBranchBoundResult CasaBranchBound::solve(const SavingsProblem& sp) const {
  Search search(sp, opt_);
  return search.run<false>();
}

CasaBranchBoundResult CasaBranchBound::enumerate(const SavingsProblem& sp,
                                                 Energy window) const {
  CASA_CHECK(window >= 0, "near-optimal window must be non-negative");
  Search search(sp, opt_, window);
  return search.run<true>();
}

}  // namespace casa::core
