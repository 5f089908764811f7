// Memory-hierarchy simulator (the repo's "memsim").
//
// Replays the dynamic block walk against a concrete hierarchy and produces
// event counters, energy, and cycle totals. Three configurations mirror the
// paper's experiments:
//  * scratchpad + I-cache (fig. 1a)     — simulate_spm_system
//  * preloaded loop cache + I-cache (1b) — simulate_loopcache_system
//  * I-cache only (reference)            — simulate_cache_only
// Each runs the replay kernel (memsim/replay.hpp) on the line model
// cachesim::with_line_model picks: the LRU tag model at one way and at 2,
// 4 or 8 LRU ways, Cache otherwise. Energies and cycles derive from the
// counters.
#pragma once

#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/loopcache/loop_cache.hpp"
#include "casa/memsim/replay.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/memory_object.hpp"

namespace casa::memsim {

/// Cycle costs per event (ARM7T-ish; only relative magnitudes matter).
struct LatencyParams {
  std::uint64_t spm_access = 1;
  std::uint64_t cache_hit = 1;
  std::uint64_t miss_base_penalty = 4;   ///< bus setup per line fill
  std::uint64_t miss_per_word = 2;       ///< off-chip word transfer
  std::uint64_t lc_access = 1;
};

struct SimCounters {
  std::uint64_t total_fetches = 0;
  std::uint64_t spm_accesses = 0;
  std::uint64_t lc_accesses = 0;
  std::uint64_t cache_accesses = 0;  ///< hits + misses
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0; ///< misses displacing a valid line
  std::uint64_t mainmem_words = 0;   ///< words transferred on line fills
  std::uint64_t cycles = 0;

  friend bool operator==(const SimCounters&, const SimCounters&) = default;
};

struct SimReport {
  SimCounters counters;
  Energy total_energy = 0;
  Energy spm_energy = 0;
  Energy cache_energy = 0;   ///< hits + misses (incl. refill/off-chip part)
  Energy lc_energy = 0;      ///< array accesses + controller overhead

  friend bool operator==(const SimReport&, const SimReport&) = default;
};

struct SimOptions {
  std::uint64_t seed = 1;  ///< for random cache replacement only
  LatencyParams latency;
  /// Replay the walk at line granularity through the replay kernel over a
  /// pre-compiled fetch stream (trace::CompiledStream) — ~line_size/4 fewer
  /// cache calls, identical counters and energies; loop-cache runs are cut
  /// at region edges once per simulation (RegionSplit). False selects the
  /// word-granular reference replay, kept as the oracle for tests.
  bool use_compiled_stream = true;
  /// When set, the final counters (sim.* / cache.* / stream.* — see
  /// docs/metrics.md) are recorded here after the replay finishes. Recording
  /// happens once per simulation, outside the hot loop, so the null default
  /// costs nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Scratchpad system: objects with on_spm[mo] set are fetched from the
/// scratchpad; everything else goes through the I-cache at its layout
/// address. `layout` must place every cached object (CASA passes the full
/// copy-semantics layout; Steinke passes the compacted move-semantics
/// layout).
SimReport simulate_spm_system(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const std::vector<bool>& on_spm,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt = {});

/// Loop-cache system: fetches inside a selected region hit the loop cache;
/// all other fetches pay the controller check plus the I-cache path.
SimReport simulate_loopcache_system(const traceopt::TraceProgram& tp,
                                    const traceopt::Layout& layout,
                                    const trace::BlockWalk& walk,
                                    const loopcache::RegionSet& regions,
                                    const cachesim::CacheConfig& cache_cfg,
                                    const energy::EnergyTable& energies,
                                    const SimOptions& opt = {});

/// Plain I-cache reference run.
SimReport simulate_cache_only(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt = {});

/// The counters a line-granular replay reports for `tally`: hits are the
/// cache words that did not miss, every missing word transfers one line,
/// and cycles charge each word its tier's latency plus each miss its line
/// fill. Every kernel replay derives its counters here.
SimCounters counters_from_tally(const ReplayTally& tally, Bytes line_size,
                                const LatencyParams& lat);

/// The full report (energies) of `counters`: the one computation every
/// simulator and overlay simulation apply, so counter-identical inputs
/// yield bit-identical reports.
SimReport report_from_counters(const SimCounters& counters,
                               const energy::EnergyTable& energies,
                               bool loop_cache);

/// Records `counters` into `reg` under the sim.* / cache.* keys (null
/// registry = no-op), for the simulators and externally derived counters.
void record_sim_counters(obs::MetricsRegistry* reg,
                         const SimCounters& counters);

}  // namespace casa::memsim
