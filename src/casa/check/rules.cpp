#include "casa/check/rules.hpp"

#include "casa/check/rule_ids.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "casa/energy/cache_energy.hpp"
#include "casa/energy/spm_energy.hpp"

namespace casa::check {

namespace {

constexpr const char* kTraceArtifact = "trace-program";
constexpr const char* kLayoutArtifact = "layout";
constexpr const char* kConflictArtifact = "conflict-graph";
constexpr const char* kModelArtifact = "ilp-model";
constexpr const char* kAllocArtifact = "allocation";
constexpr const char* kEnergyArtifact = "energy-table";
constexpr const char* kEnergyModelArtifact = "energy-model";
constexpr const char* kBatchArtifact = "batch-run";
constexpr const char* kSvcCacheArtifact = "svc-cache";

std::string object_loc(std::size_t i) {
  std::string s = "x";
  s += std::to_string(i);
  return s;
}

std::string edge_loc(std::size_t idx, const conflict::Edge& e) {
  std::string s = "edge[";
  s += std::to_string(idx);
  s += "] x";
  s += std::to_string(e.from.index());
  s += "->x";
  s += std::to_string(e.to.index());
  return s;
}

/// The consecutive cache-line range an object occupies under a layout.
struct LineRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;  ///< number of consecutive lines
};

LineRange line_range(Addr base, Bytes padded_size, Bytes line_size) {
  LineRange r;
  r.first = base / line_size;
  const std::uint64_t last = (base + std::max<Bytes>(padded_size, 1) - 1) /
                             line_size;
  r.count = last - r.first + 1;
  return r;
}

/// True when ranges a and b each map at least one line into a common cache
/// set. Consecutive lines fill sets cyclically, so each range covers the
/// circular interval [first mod sets, first + count) mod sets.
bool share_cache_set(const LineRange& a, const LineRange& b, unsigned sets) {
  if (a.count >= sets || b.count >= sets) return true;
  const std::uint64_t a0 = a.first % sets;
  const std::uint64_t b0 = b.first % sets;
  // Distance from the start of one interval to the start of the other,
  // walking forward around the ring; they intersect iff either start lies
  // inside the other interval.
  const std::uint64_t ab = (b0 + sets - a0) % sets;
  const std::uint64_t ba = (a0 + sets - b0) % sets;
  return ab < a.count || ba < b.count;
}

/// True when the object can evict one of its own lines: two distinct lines
/// of the range must map to the same set, i.e. the range wraps the ring.
bool self_aliases(const LineRange& r, unsigned sets) {
  return r.count > sets;
}

bool near(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= 1e-6 * scale;
}

/// One linear constraint reduced to a coefficient map for shape matching.
struct RowShape {
  std::map<std::uint32_t, double> coef;  ///< var index -> coefficient
  ilp::Rel rel = ilp::Rel::kLessEq;
  double rhs = 0.0;
};

RowShape shape_of(const ilp::Constraint& c) {
  RowShape s;
  for (const ilp::Term& t : c.expr.terms()) s.coef[t.var.value()] += t.coef;
  s.rel = c.rel;
  s.rhs = c.rhs - c.expr.constant();
  return s;
}

bool matches(const RowShape& s, const std::vector<std::pair<VarId, double>>& t,
             ilp::Rel rel, double rhs) {
  if (s.rel != rel || !near(s.rhs, rhs) || s.coef.size() != t.size()) {
    return false;
  }
  for (const auto& [var, coef] : t) {
    auto it = s.coef.find(var.value());
    if (it == s.coef.end() || !near(it->second, coef)) return false;
  }
  return true;
}

}  // namespace

void check_trace_program(const traceopt::TraceProgram& tp, Bytes line_size,
                         CheckRunner& runner) {
  for (const traceopt::MemoryObject& mo : tp.objects()) {
    const std::string loc = object_loc(mo.id.index());
    if (mo.raw_size == 0) {
      runner.error(rule_ids::kTraceSizeZero, kTraceArtifact, loc,
                   "memory object has no instructions",
                   "trace formation must drop empty traces");
      continue;
    }
    if (mo.padded_size % line_size != 0) {
      runner.error(rule_ids::kTracePadMisaligned, kTraceArtifact, loc,
                   "padded size " + std::to_string(mo.padded_size) +
                       " is not a multiple of the " +
                       std::to_string(line_size) + "-byte cache line",
                   "pad traces to line boundaries so every miss has one "
                   "owning object (paper 3.2)");
    }
    if (mo.padded_size != align_up(mo.raw_size, line_size)) {
      runner.error(rule_ids::kTracePadInconsistent, kTraceArtifact, loc,
                   "padded size " + std::to_string(mo.padded_size) +
                       " != align_up(raw " + std::to_string(mo.raw_size) +
                       ", line " + std::to_string(line_size) + ")",
                   "recompute the NOP pad from the raw size");
    }
  }
  runner.mark_evaluated(3);
}

void check_layout(const traceopt::TraceProgram& tp,
                  const traceopt::Layout& layout, Bytes line_size,
                  CheckRunner& runner) {
  struct Placed {
    std::size_t index;
    Addr base;
    Bytes size;
  };
  std::vector<Placed> placed;
  placed.reserve(tp.object_count());
  for (const traceopt::MemoryObject& mo : tp.objects()) {
    if (!layout.placed(mo.id)) continue;
    const Addr base = layout.object_base(mo.id);
    placed.push_back(Placed{mo.id.index(), base, mo.padded_size});
    if (base % line_size != 0) {
      runner.error(rule_ids::kLayoutAlignment, kLayoutArtifact,
                   object_loc(mo.id.index()),
                   "object base " + std::to_string(base) +
                       " is not aligned to the " + std::to_string(line_size) +
                       "-byte cache line",
                   "objects must start on line boundaries for the "
                   "one-miss-one-object attribution to hold");
    }
    if (base < layout.base() ||
        base + mo.padded_size > layout.base() + layout.span()) {
      runner.error(rule_ids::kLayoutSpanInconsistent, kLayoutArtifact,
                   object_loc(mo.id.index()),
                   "object [" + std::to_string(base) + ", " +
                       std::to_string(base + mo.padded_size) +
                       ") escapes the layout window [" +
                       std::to_string(layout.base()) + ", " +
                       std::to_string(layout.base() + layout.span()) + ")",
                   "recompute the layout span after placing every object");
    }
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) { return a.base < b.base; });
  for (std::size_t i = 1; i < placed.size(); ++i) {
    const Placed& prev = placed[i - 1];
    const Placed& cur = placed[i];
    if (prev.base + prev.size > cur.base) {
      runner.error(rule_ids::kLayoutOverlap, kLayoutArtifact,
                   object_loc(prev.index) + "/" + object_loc(cur.index),
                   "objects overlap: [" + std::to_string(prev.base) + ", " +
                       std::to_string(prev.base + prev.size) + ") and [" +
                       std::to_string(cur.base) + ", " +
                       std::to_string(cur.base + cur.size) + ")",
                   "each placed object needs a disjoint address interval");
    }
  }
  runner.mark_evaluated(3);
}

void check_conflict_graph(const traceopt::TraceProgram& tp,
                          const traceopt::Layout& layout,
                          const conflict::ConflictGraph& graph,
                          const cachesim::CacheConfig& cache,
                          CheckRunner& runner) {
  const unsigned sets = cache.sets();
  if (sets == 0) {
    runner.error(rule_ids::kConflictCacheDegenerate, kConflictArtifact, "",
                 "cache configuration yields zero sets (size " +
                     std::to_string(cache.size) + " B, line " +
                     std::to_string(cache.line_size) + " B, assoc " +
                     std::to_string(cache.associativity) + ")",
                 "size must be at least line_size * associativity");
    runner.mark_evaluated(6);
    return;
  }
  const std::size_t n = graph.node_count();
  if (n != tp.object_count()) {
    runner.error(rule_ids::kConflictNodesCount, kConflictArtifact, "",
                 "graph has " + std::to_string(n) + " nodes but the trace "
                     "program has " + std::to_string(tp.object_count()) +
                     " memory objects",
                 "build the graph from the same trace program");
    runner.mark_evaluated(6);
    return;
  }

  // Per-node: vertex weight vs. profile, and bookkeeping consistency
  // (every replayed fetch is a hit, a cold miss, or exactly one m_ij).
  for (std::size_t i = 0; i < n; ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    const std::uint64_t f = graph.fetches(mo);
    if (f != tp.object(mo).fetches) {
      runner.error(rule_ids::kConflictFetchesProfileMismatch, kConflictArtifact,
                   object_loc(i),
                   "vertex weight f=" + std::to_string(f) +
                       " disagrees with the profile's " +
                       std::to_string(tp.object(mo).fetches) + " fetches",
                   "graph vertex weights must come from the same profiling "
                   "run as the trace program (paper 3.3)");
    }
    const std::uint64_t accounted =
        graph.hits(mo) + graph.total_misses(mo);
    if (accounted != f) {
      runner.error(rule_ids::kConflictCountsInconsistent, kConflictArtifact,
                   object_loc(i),
                   "hits + cold + conflict misses = " +
                       std::to_string(accounted) + " but f=" +
                       std::to_string(f),
                   "every fetch must be a hit, a cold miss, or attributed "
                   "to exactly one evictor (paper eq. 3)");
    }
  }

  // Per-edge: aliasing feasibility under the layout and m_ij <= f_i.
  std::vector<LineRange> ranges(n);
  std::vector<bool> have_range(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const MemoryObjectId mo(static_cast<std::uint32_t>(i));
    if (!layout.placed(mo)) continue;
    ranges[i] = line_range(layout.object_base(mo), tp.object(mo).padded_size,
                           cache.line_size);
    have_range[i] = true;
  }
  const auto& edges = graph.edges();
  for (std::size_t idx = 0; idx < edges.size(); ++idx) {
    const conflict::Edge& e = edges[idx];
    const std::size_t a = e.from.index();
    const std::size_t b = e.to.index();
    if (e.misses > graph.fetches(e.from)) {
      runner.error(rule_ids::kConflictEdgeExceedsFetches, kConflictArtifact,
                   edge_loc(idx, e),
                   "m_ij=" + std::to_string(e.misses) + " exceeds f_i=" +
                       std::to_string(graph.fetches(e.from)),
                   "an object cannot miss more often than it fetches "
                   "(m_ij <= f_i)");
    }
    if (!have_range[a] || !have_range[b]) continue;
    if (e.from == e.to) {
      if (!self_aliases(ranges[a], sets)) {
        runner.error(rule_ids::kConflictEdgeSelf, kConflictArtifact, edge_loc(idx, e),
                     "self-conflict on an object spanning " +
                         std::to_string(ranges[a].count) + " lines over " +
                         std::to_string(sets) +
                         " sets - it cannot evict its own lines",
                     "self-edges are only legal when an object maps two "
                     "lines into one cache set");
      }
      continue;
    }
    if (!share_cache_set(ranges[a], ranges[b], sets)) {
      runner.error(rule_ids::kConflictEdgeCrossSet, kConflictArtifact,
                   edge_loc(idx, e),
                   "objects map to disjoint cache sets under this layout "
                   "and can never evict each other",
                   "conflict edges must connect objects sharing a cache "
                   "set (paper 3.3)");
    }
  }
  runner.mark_evaluated(6);
}

void check_casa_model(const core::CasaModel& cm,
                      const core::SavingsProblem& sp, core::Linearization lin,
                      CheckRunner& runner) {
  const ilp::Model& m = cm.model;
  if (cm.l_vars.size() != sp.item_count() ||
      cm.L_vars.size() != sp.edges.size()) {
    runner.error(rule_ids::kIlpVarCountMismatch, kModelArtifact, "",
                 "model has " + std::to_string(cm.l_vars.size()) + " l / " +
                     std::to_string(cm.L_vars.size()) +
                     " L variables for a problem with " +
                     std::to_string(sp.item_count()) + " items / " +
                     std::to_string(sp.edges.size()) + " edges",
                 "rebuild the model from the presolved problem");
    runner.mark_evaluated(7);
    return;
  }

  // Structural hygiene: every term references a real variable, no row is
  // empty, every variable is used somewhere.
  std::vector<bool> used(m.var_count(), false);
  for (const ilp::Term& t : m.objective().terms()) {
    if (t.var.index() < used.size()) used[t.var.index()] = true;
  }
  for (std::size_t c = 0; c < m.constraint_count(); ++c) {
    const ilp::Constraint& row =
        m.constraint(ConstraintId(static_cast<std::uint32_t>(c)));
    if (row.expr.terms().empty()) {
      runner.error(rule_ids::kIlpRowDegenerate, kModelArtifact, row.name,
                   "constraint has no variable terms",
                   "drop constant-only rows; they either always hold or "
                   "make the model trivially infeasible");
    }
    for (const ilp::Term& t : row.expr.terms()) {
      if (t.var.index() >= m.var_count()) {
        runner.error(rule_ids::kIlpTermBadVar, kModelArtifact, row.name,
                     "term references variable #" +
                         std::to_string(t.var.index()) +
                         " but the model has only " +
                         std::to_string(m.var_count()),
                     "add variables before referencing them in rows");
      } else {
        used[t.var.index()] = true;
      }
    }
  }
  for (std::size_t v = 0; v < used.size(); ++v) {
    if (!used[v]) {
      runner.error(rule_ids::kIlpVarOrphan, kModelArtifact,
                   m.var(VarId(static_cast<std::uint32_t>(v))).name,
                   "variable appears in no constraint and not in the "
                   "objective",
                   "orphan variables make the solution mask ambiguous");
    }
  }

  // Linearization rows (paper eq. 13-15, or the tight single-row form):
  // collect every constraint that touches an L variable and match shapes.
  std::vector<std::vector<RowShape>> rows_of(sp.edges.size());
  std::vector<std::int64_t> l_index_of(m.var_count(), -1);
  for (std::size_t p = 0; p < cm.L_vars.size(); ++p) {
    l_index_of[cm.L_vars[p].index()] = static_cast<std::int64_t>(p);
  }
  for (std::size_t c = 0; c < m.constraint_count(); ++c) {
    const ilp::Constraint& row =
        m.constraint(ConstraintId(static_cast<std::uint32_t>(c)));
    for (const ilp::Term& t : row.expr.terms()) {
      if (t.var.index() < l_index_of.size() &&
          l_index_of[t.var.index()] >= 0) {
        rows_of[static_cast<std::size_t>(l_index_of[t.var.index()])]
            .push_back(shape_of(row));
        break;
      }
    }
  }
  for (std::size_t p = 0; p < sp.edges.size(); ++p) {
    const core::SavingsProblem::Edge& e = sp.edges[p];
    const VarId L = cm.L_vars[p];
    const VarId la = cm.l_vars[e.a];
    const VarId lb = cm.l_vars[e.b];
    const std::string loc = "L(x" + std::to_string(e.a) + ",x" +
                            std::to_string(e.b) + ")";
    const auto& rows = rows_of[p];
    const auto has = [&rows](const std::vector<std::pair<VarId, double>>& t,
                             ilp::Rel rel, double rhs) {
      return std::any_of(rows.begin(), rows.end(), [&](const RowShape& s) {
        return matches(s, t, rel, rhs);
      });
    };
    std::vector<std::string> missing;
    std::size_t expected = 0;
    if (lin == core::Linearization::kPaper) {
      if (m.var(L).type != ilp::VarType::kBinary) {
        runner.error(rule_ids::kIlpLinMalformed, kModelArtifact, loc,
                     "L must be binary under the paper linearization - the "
                     "relaxed constraint set admits L=1/2 at l_i=l_j=1",
                     "declare L with add_binary (see DESIGN.md)");
      }
      // (13) l_a - L >= 0,  (14) l_b - L >= 0,  (15) l_a + l_b - 2L <= 1.
      if (!has({{la, 1.0}, {L, -1.0}}, ilp::Rel::kGreaterEq, 0.0)) {
        missing.push_back("(13) l_" + std::to_string(e.a) + " - L >= 0");
      }
      if (!has({{lb, 1.0}, {L, -1.0}}, ilp::Rel::kGreaterEq, 0.0)) {
        missing.push_back("(14) l_" + std::to_string(e.b) + " - L >= 0");
      }
      if (!has({{la, 1.0}, {lb, 1.0}, {L, -2.0}}, ilp::Rel::kLessEq, 1.0)) {
        missing.push_back("(15) l_a + l_b - 2L <= 1");
      }
      expected = 3;
    } else {
      // Tight form: L >= l_a + l_b - 1 encoded as l_a + l_b - L <= 1.
      if (!has({{la, 1.0}, {lb, 1.0}, {L, -1.0}}, ilp::Rel::kLessEq, 1.0)) {
        missing.push_back("l_a + l_b - L <= 1");
      }
      expected = 1;
    }
    for (const std::string& want : missing) {
      runner.error(rule_ids::kIlpLinMissing, kModelArtifact, loc,
                   "linearization constraint " + want + " is absent",
                   "every product variable L(x_i,x_j) needs its full "
                   "constraint set (paper eq. 13-15)");
    }
    if (missing.empty() && rows.size() > expected) {
      runner.error(rule_ids::kIlpLinMalformed, kModelArtifact, loc,
                   std::to_string(rows.size() - expected) +
                       " extra constraint(s) touch this linearization "
                       "variable",
                   "unexpected rows on L variables usually mean a "
                   "mis-indexed edge");
    }
  }

  // Capacity row (paper eq. 17), in the item form
  //   sum w_k l_k >= W - C.
  double total_w = 0.0;
  std::vector<std::pair<VarId, double>> cap_terms;
  cap_terms.reserve(sp.item_count());
  for (std::size_t k = 0; k < sp.item_count(); ++k) {
    cap_terms.emplace_back(cm.l_vars[k], static_cast<double>(sp.weight[k]));
    total_w += static_cast<double>(sp.weight[k]);
  }
  const double cap_rhs = total_w - static_cast<double>(sp.capacity);
  bool cap_found = false;
  bool cap_exact = false;
  for (std::size_t c = 0; c < m.constraint_count(); ++c) {
    const ilp::Constraint& row =
        m.constraint(ConstraintId(static_cast<std::uint32_t>(c)));
    if (row.name != "capacity") continue;
    cap_found = true;
    if (matches(shape_of(row), cap_terms, ilp::Rel::kGreaterEq, cap_rhs)) {
      cap_exact = true;
    }
  }
  if (!cap_found) {
    runner.error(rule_ids::kIlpCapacityMissing, kModelArtifact, "capacity",
                 "the scratchpad capacity constraint (paper eq. 17) is "
                 "absent",
                 "without it the solver places every object on the "
                 "scratchpad");
  } else if (!cap_exact) {
    runner.error(rule_ids::kIlpCapacityMismatch, kModelArtifact, "capacity",
                 "capacity row coefficients/rhs disagree with the memory-"
                 "object sizes (expected sum w_k l_k >= " +
                     std::to_string(cap_rhs) + ")",
                 "rebuild the row from the presolved item weights and the "
                 "scratchpad size");
  }
  runner.mark_evaluated(7);
}

void check_spm_selection(const std::vector<Bytes>& sizes, Bytes capacity,
                         const std::vector<bool>& on_spm, Bytes used_bytes,
                         CheckRunner& runner) {
  if (on_spm.size() != sizes.size()) {
    runner.error(rule_ids::kAllocMaskSize, kAllocArtifact, "",
                 "selection mask covers " + std::to_string(on_spm.size()) +
                     " objects but the problem has " +
                     std::to_string(sizes.size()),
                 "the mask must have exactly one bit per memory object");
    runner.mark_evaluated(3);
    return;
  }
  Bytes total = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (on_spm[i]) total += sizes[i];
  }
  if (total > capacity) {
    runner.error(rule_ids::kAllocCapacityExceeded, kAllocArtifact, "",
                 "selected objects occupy " + std::to_string(total) +
                     " B but the scratchpad holds " +
                     std::to_string(capacity) + " B",
                 "the capacity constraint (paper eq. 17) must hold for the "
                 "final mask, not just inside the solver");
  }
  if (total != used_bytes) {
    runner.error(rule_ids::kAllocUsedBytesMismatch, kAllocArtifact, "",
                 "reported used_bytes=" + std::to_string(used_bytes) +
                     " but the mask sums to " + std::to_string(total) + " B",
                 "recompute used_bytes from the mask and the unpadded "
                 "sizes");
  }
  runner.mark_evaluated(3);
}

void check_allocation(const core::CasaProblem& problem,
                      const core::AllocationResult& result,
                      CheckRunner& runner) {
  check_spm_selection(problem.sizes, problem.capacity, result.on_spm,
                      result.used_bytes, runner);
  // Status soundness: a truncated search (max_nodes, LP iteration limit)
  // must never flow downstream as an allocation — an empty incumbent would
  // read as "nothing fits" and a partial one as the optimum. Greedy is a
  // deliberate heuristic (exact == false, status kOptimal = it completed);
  // only a non-completed exact search trips this rule.
  if (result.solver_status != ilp::SolveStatus::kOptimal) {
    runner.error(rule_ids::kAllocSolverTruncated, kAllocArtifact,
                 core::to_string(result.engine_used),
                 std::string("allocation comes from a truncated solve "
                             "(solver_status == ") +
                     ilp::to_string(result.solver_status) + ")",
                 "raise max_nodes (or the LP iteration budget) and re-solve; "
                 "never report a truncated search as an allocation");
  }
  runner.mark_evaluated(1);
}

void check_energy_table(const energy::EnergyTable& table, bool has_spm,
                        bool has_lc, CheckRunner& runner) {
  const std::pair<const char*, Energy> entries[] = {
      {"cache_hit", table.cache_hit},     {"cache_miss", table.cache_miss},
      {"spm_access", table.spm_access},   {"lc_access", table.lc_access},
      {"lc_controller", table.lc_controller},
      {"mainmem_word", table.mainmem_word}};
  for (const auto& [name, value] : entries) {
    if (!std::isfinite(value) || value < 0.0) {
      runner.error(rule_ids::kEnergyValueInvalid, kEnergyArtifact, name,
                   "entry is " + std::to_string(value) +
                       " nJ - energies must be finite and non-negative",
                   "rebuild the table from the technology parameters");
    }
  }
  if (!(table.cache_miss > table.cache_hit)) {
    runner.error(rule_ids::kEnergyOrderMissHit, kEnergyArtifact,
                 "cache_miss vs cache_hit",
                 "E_Cache_miss=" + std::to_string(table.cache_miss) +
                     " nJ is not greater than E_Cache_hit=" +
                     std::to_string(table.cache_hit) + " nJ",
                 "a miss pays the probe plus the off-chip transfer; the "
                 "allocation objective (paper eq. 12) assumes "
                 "E_miss > E_hit");
  }
  if (has_spm && !(table.cache_hit > table.spm_access)) {
    runner.error(rule_ids::kEnergyOrderHitSpm, kEnergyArtifact,
                 "cache_hit vs spm_access",
                 "E_SP_hit=" + std::to_string(table.spm_access) +
                     " nJ is not below E_Cache_hit=" +
                     std::to_string(table.cache_hit) + " nJ",
                 "a tagless SRAM access must undercut the cache hit or the "
                 "scratchpad can never pay off (paper table 1)");
  }
  if (has_lc && (table.lc_access <= 0.0 || table.lc_controller <= 0.0)) {
    runner.error(rule_ids::kEnergyValueInvalid, kEnergyArtifact, "loop-cache",
                 "loop-cache energies must be positive when a loop cache "
                 "is configured",
                 "build the table with the loop-cache size and region "
                 "count");
  }
  runner.mark_evaluated(4);
}

void check_energy_scaling(const energy::TechnologyParams& tech,
                          CheckRunner& runner) {
  // Scratchpad: per-access energy must grow with capacity (more rows mean
  // longer bitlines and a deeper decoder).
  Energy prev = 0.0;
  for (Bytes size = 64; size <= 64_KiB; size *= 2) {
    const Energy e = energy::SpmEnergyModel(size, tech).access_energy();
    if (e <= 0.0 || !std::isfinite(e) || e < prev) {
      std::ostringstream msg;
      msg << "SPM access energy " << e << " nJ at " << size
          << " B breaks monotone scaling (previous size gave " << prev
          << " nJ)";
      runner.error(rule_ids::kEnergySramNonMonotone, kEnergyModelArtifact,
                   "spm[" + std::to_string(size) + "B]", msg.str(),
                   "the SRAM-array stage decomposition only adds cost with "
                   "capacity; a decrease means a broken model term");
    }
    prev = e;
  }
  // Cache: hit energy must likewise grow with capacity at fixed geometry.
  prev = 0.0;
  for (Bytes size = 128; size <= 64_KiB; size *= 2) {
    cachesim::CacheConfig cfg;
    cfg.size = size;
    cfg.line_size = 16;
    cfg.associativity = 1;
    const Energy e = energy::CacheEnergyModel(cfg, tech).hit_energy();
    if (e <= 0.0 || !std::isfinite(e) || e < prev) {
      std::ostringstream msg;
      msg << "cache hit energy " << e << " nJ at " << size
          << " B breaks monotone scaling (previous size gave " << prev
          << " nJ)";
      runner.error(rule_ids::kEnergySramNonMonotone, kEnergyModelArtifact,
                   "cache[" + std::to_string(size) + "B]", msg.str(),
                   "the SRAM-array stage decomposition only adds cost with "
                   "capacity; a decrease means a broken model term");
    }
    prev = e;
  }
  runner.mark_evaluated(1);
}

void check_batch(const BatchSummary& batch, CheckRunner& runner) {
  if (batch.failed != 0) {
    std::ostringstream msg;
    msg << batch.failed << " of " << batch.jobs << " jobs failed";
    if (batch.retried != 0) {
      msg << " (" << batch.retried << " more recovered after retries)";
    }
    std::ostringstream hint;
    // Cap the per-failure detail: a poisoned 64-point sweep should read as
    // one diagnostic, not 64.
    constexpr std::size_t kMaxListed = 4;
    for (std::size_t i = 0; i < batch.failures.size() && i < kMaxListed; ++i) {
      if (i != 0) hint << "; ";
      hint << batch.failures[i];
    }
    if (batch.failures.size() > kMaxListed) {
      // The truncation note carries the total so a capped hint still reads
      // as "4 shown of 64 failed", never as "4 failed".
      hint << "; ... " << (batch.failures.size() - kMaxListed) << " more of "
           << batch.failures.size() << " total failures";
    }
    if (batch.failed >= batch.jobs) {
      runner.error(rule_ids::kRunPartialFailure, kBatchArtifact, "jobs",
                   "every job in the batch failed: " + msg.str(), hint.str());
    } else {
      runner.warn(rule_ids::kRunPartialFailure, kBatchArtifact, "jobs",
                  "batch degraded: " + msg.str(), hint.str());
    }
  }
  runner.mark_evaluated(1);
}

void check_cached_result(const CachedResultSample& sample,
                         CheckRunner& runner) {
  if (!sample.outcomes_equal) {
    runner.error(rule_ids::kSvcCacheMismatch, kSvcCacheArtifact, sample.key,
                 "cached outcome differs from a fresh recomputation",
                 "every solve-determined field is compared bit-exactly; a "
                 "mismatch means the cache entry is stale or corrupted — "
                 "flush the cache (and the persist dir, if any)");
  }
  runner.mark_evaluated(1);
}

}  // namespace casa::check
