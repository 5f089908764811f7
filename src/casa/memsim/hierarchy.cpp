#include "casa/memsim/hierarchy.hpp"

#include <optional>
#include <span>
#include <type_traits>

#include "casa/cachesim/direct_mapped.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/support/error.hpp"

namespace casa::memsim {

namespace {

/// Derives the energy report from event counters. Both replay granularities
/// share this, so energies are byte-identical whenever counters are — and
/// the hot loops carry no floating-point accumulation at all.
void finish(SimReport& rep, const energy::EnergyTable& energies,
            bool loop_cache) {
  const SimCounters& c = rep.counters;
  rep.spm_energy =
      static_cast<double>(c.spm_accesses) * energies.spm_access;
  rep.cache_energy =
      static_cast<double>(c.cache_hits) * energies.cache_hit +
      static_cast<double>(c.cache_misses) * energies.cache_miss;
  if (loop_cache) {
    // The controller compares bounds on every fetch it does not serve.
    rep.lc_energy =
        static_cast<double>(c.lc_accesses) * energies.lc_access +
        static_cast<double>(c.cache_accesses) * energies.lc_controller;
  }
  rep.total_energy = rep.spm_energy + rep.cache_energy + rep.lc_energy;
}

/// Records the finished replay's counters into the attached registry (a
/// handful of adds per *simulation*, never per access — the instrumentation
/// stays off the hot path entirely).
void record_metrics(obs::MetricsRegistry* reg, const SimCounters& c) {
  if (reg == nullptr) return;
  reg->add(obs::metric_names::kSimFetches, c.total_fetches);
  reg->add(obs::metric_names::kSimSpmAccesses, c.spm_accesses);
  reg->add(obs::metric_names::kSimLcAccesses, c.lc_accesses);
  reg->add(obs::metric_names::kCacheAccesses, c.cache_accesses);
  reg->add(obs::metric_names::kCacheHits, c.cache_hits);
  reg->add(obs::metric_names::kCacheMisses, c.cache_misses);
  reg->add(obs::metric_names::kCacheEvictions, c.cache_evictions);
  reg->add(obs::metric_names::kSimMainmemWords, c.mainmem_words);
  reg->add(obs::metric_names::kSimCycles, c.cycles);
}

/// Word-granular reference inner loop. `spm_mo` marks scratchpad-resident
/// objects (empty = none); `regions` enables the loop-cache path (nullptr =
/// none).
SimReport run_words(const traceopt::TraceProgram& tp,
                    const traceopt::Layout& layout,
                    const trace::BlockWalk& walk,
                    const std::vector<bool>& spm_mo,
                    const loopcache::RegionSet* regions,
                    const cachesim::CacheConfig& cache_cfg,
                    const energy::EnergyTable& energies,
                    const SimOptions& opt) {
  const prog::Program& program = tp.program();
  cachesim::Cache cache(cache_cfg, opt.seed);
  const std::uint64_t line_words = cache_cfg.line_size / kWordBytes;
  const LatencyParams& lat = opt.latency;

  SimReport rep;
  SimCounters& c = rep.counters;

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const Bytes size = program.block(bb).size;
    const std::uint64_t words = size / kWordBytes;

    if (!spm_mo.empty() && spm_mo[mo.index()]) {
      // Whole block fetched from the scratchpad.
      c.total_fetches += words;
      c.spm_accesses += words;
      c.cycles += words * lat.spm_access;
      continue;
    }

    const Addr base = layout.block_addr(bb);
    for (std::uint64_t w = 0; w < words; ++w) {
      const Addr addr = base + w * kWordBytes;
      ++c.total_fetches;

      if (regions != nullptr && regions->contains(addr)) {
        ++c.lc_accesses;
        c.cycles += lat.lc_access;
        continue;
      }

      const cachesim::AccessResult r = cache.access(addr);
      ++c.cache_accesses;
      if (r.hit) {
        ++c.cache_hits;
        c.cycles += lat.cache_hit;
      } else {
        ++c.cache_misses;
        c.mainmem_words += line_words;
        c.cycles += lat.cache_hit + lat.miss_base_penalty +
                    line_words * lat.miss_per_word;
      }
    }
  }

  c.cache_evictions = cache.evictions();
  finish(rep, energies, regions != nullptr);
  record_metrics(opt.metrics, c);
  return rep;
}

/// A compiled stream's runs re-cut at loop-cache region edges. Region
/// membership is tested per word, as in the word replay, but once per static
/// word instead of once per fetch. Words inside a region never reach the
/// cache, so each block keeps them as a count and its other words as
/// cache-bound sub-runs (each one line, word-contiguous, in fetch order):
/// the cache sees exactly the word replay's accesses, in the same order.
class RegionSplit {
 public:
  RegionSplit(const trace::CompiledStream& stream,
              const loopcache::RegionSet& regions, std::size_t blocks)
      : first_(blocks + 1, 0), lc_words_(blocks, 0) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const BasicBlockId bb(static_cast<std::uint32_t>(b));
      first_[b] = static_cast<std::uint32_t>(runs_.size());
      for (const trace::LineRun& run : stream.runs(bb)) {
        bool extend = false;  // runs_.back() ends at the previous word
        for (std::uint32_t w = 0; w < run.words; ++w) {
          const Addr addr = run.addr + w * kWordBytes;
          if (regions.contains(addr)) {
            ++lc_words_[b];
            extend = false;
          } else if (extend) {
            ++runs_.back().words;
          } else {
            runs_.push_back(trace::LineRun{addr, run.line, 1});
            extend = true;
          }
        }
      }
    }
    first_[blocks] = static_cast<std::uint32_t>(runs_.size());
  }

  std::span<const trace::LineRun> runs(BasicBlockId bb) const {
    return {runs_.data() + first_[bb.index()],
            runs_.data() + first_[bb.index() + 1]};
  }
  std::uint64_t lc_words(BasicBlockId bb) const {
    return lc_words_[bb.index()];
  }

 private:
  std::vector<trace::LineRun> runs_;     ///< cache-bound sub-runs
  std::vector<std::uint32_t> first_;     ///< per block, into runs_
  std::vector<std::uint64_t> lc_words_;  ///< per block, loop-cache words
};

/// One replay's ReplayTally and the cache-bound runs it replayed (the
/// stream.replayed_runs telemetry).
struct Tally {
  ReplayTally words;
  std::uint64_t runs = 0;
};

/// Line-granular inner loop over a compiled stream, one body for both
/// cache models (cachesim::DirectMappedCache at one way, cachesim::Cache
/// otherwise). Words are summed once per executed block by tier; per run
/// the loop counts only misses, and the model yields the evictions. With
/// `split`, runs are cut at loop-cache region edges (RegionSplit).
template <class CacheModel>
Tally replay_lines(CacheModel& cache, const traceopt::TraceProgram& tp,
                   const trace::CompiledStream& stream,
                   const trace::BlockWalk& walk,
                   const std::vector<bool>& spm_mo, const RegionSplit* split) {
  std::uint64_t spm_words = 0, lc_words = 0, cache_words = 0;
  std::uint64_t misses = 0, runs_replayed = 0;
  for (const BasicBlockId bb : walk.seq) {
    const std::uint64_t words = stream.words_of(bb);
    if (!spm_mo.empty() && spm_mo[tp.object_of(bb).index()]) {
      spm_words += words;
      continue;
    }

    CASA_CHECK(stream.cached(bb),
               "cached block missing from the compiled layout");
    std::span<const trace::LineRun> runs = stream.runs(bb);
    if (split != nullptr) {
      const std::uint64_t lc = split->lc_words(bb);
      lc_words += lc;
      cache_words += words - lc;
      runs = split->runs(bb);
    } else {
      cache_words += words;
    }
    runs_replayed += runs.size();
    // A per-block sum: a fresh local stays in a register across the runs.
    std::uint64_t block_misses = 0;
    for (const trace::LineRun& run : runs) {
      block_misses += !cache.access_line(run.addr, run.words).hit;
    }
    misses += block_misses;
  }
  std::uint64_t evictions = 0;
  if constexpr (std::is_same_v<CacheModel, cachesim::DirectMappedCache>) {
    evictions = misses - cache.filled_sets();
  } else {
    evictions = cache.evictions();
  }
  return Tally{{spm_words, lc_words, cache_words, misses, evictions},
               runs_replayed};
}

/// The line-granular replay on the model for `cache_cfg`, and the report
/// derived from its tally.
SimReport run_lines(const traceopt::TraceProgram& tp,
                    const trace::CompiledStream& stream,
                    const trace::BlockWalk& walk,
                    const std::vector<bool>& spm_mo,
                    const loopcache::RegionSet* regions,
                    const cachesim::CacheConfig& cache_cfg,
                    const energy::EnergyTable& energies,
                    const SimOptions& opt) {
  std::optional<RegionSplit> split;
  if (regions != nullptr) {
    split.emplace(stream, *regions, tp.program().block_count());
  }
  const RegionSplit* const cut = split ? &*split : nullptr;
  const Tally t =
      cachesim::with_line_model(cache_cfg, opt.seed, [&](auto& cache) {
        return replay_lines(cache, tp, stream, walk, spm_mo, cut);
      });

  SimReport rep;
  rep.counters = counters_from_tally(t.words, cache_cfg.line_size, opt.latency);
  const SimCounters& c = rep.counters;
  finish(rep, energies, regions != nullptr);
  record_metrics(opt.metrics, c);
  if (opt.metrics != nullptr && regions == nullptr) {
    // Compiled-stream run-length telemetry: static runs in the compiled
    // image, dynamic runs replayed, and the words they collapsed. Scoped to
    // scratchpad and cache-only replays.
    opt.metrics->add(obs::metric_names::kStreamCompiledRuns, stream.total_runs());
    opt.metrics->add(obs::metric_names::kStreamReplayedRuns, t.runs);
    opt.metrics->add(obs::metric_names::kStreamReplayedWords,
                     c.cache_hits + c.cache_misses);
  }
  return rep;
}

SimReport run(const traceopt::TraceProgram& tp, const traceopt::Layout& layout,
              const trace::BlockWalk& walk, const std::vector<bool>& spm_mo,
              const loopcache::RegionSet* regions,
              const cachesim::CacheConfig& cache_cfg,
              const energy::EnergyTable& energies, const SimOptions& opt) {
  if (opt.use_compiled_stream) {
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(tp, layout, cache_cfg.line_size);
    return run_lines(tp, stream, walk, spm_mo, regions, cache_cfg, energies,
                     opt);
  }
  return run_words(tp, layout, walk, spm_mo, regions, cache_cfg, energies,
                   opt);
}

}  // namespace

SimReport simulate_spm_system(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const std::vector<bool>& on_spm,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt) {
  CASA_CHECK(on_spm.size() == tp.object_count(), "on_spm mask size mismatch");
  CASA_CHECK(energies.spm_access > 0, "energy table lacks an SPM entry");
  return run(tp, layout, walk, on_spm, nullptr, cache_cfg, energies, opt);
}

SimReport simulate_loopcache_system(const traceopt::TraceProgram& tp,
                                    const traceopt::Layout& layout,
                                    const trace::BlockWalk& walk,
                                    const loopcache::RegionSet& regions,
                                    const cachesim::CacheConfig& cache_cfg,
                                    const energy::EnergyTable& energies,
                                    const SimOptions& opt) {
  CASA_CHECK(energies.lc_access > 0, "energy table lacks a loop-cache entry");
  return run(tp, layout, walk, {}, &regions, cache_cfg, energies, opt);
}

SimReport simulate_cache_only(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt) {
  return run(tp, layout, walk, {}, nullptr, cache_cfg, energies, opt);
}

SimCounters counters_from_tally(const ReplayTally& t, Bytes line_size,
                                const LatencyParams& lat) {
  const std::uint64_t line_words = line_size / kWordBytes;
  SimCounters c;
  c.spm_accesses = t.spm_words;
  c.lc_accesses = t.lc_words;
  c.cache_accesses = t.cache_words;
  c.cache_misses = t.cache_misses;
  c.cache_hits = t.cache_words - t.cache_misses;
  c.cache_evictions = t.cache_evictions;
  c.total_fetches = t.spm_words + t.lc_words + t.cache_words;
  c.mainmem_words = t.cache_misses * line_words;
  // Every cache word pays one hit latency and a missing word its line fill
  // on top, so the cycle total collapses to four terms.
  c.cycles = t.spm_words * lat.spm_access + t.lc_words * lat.lc_access +
             t.cache_words * lat.cache_hit +
             t.cache_misses *
                 (lat.miss_base_penalty + line_words * lat.miss_per_word);
  return c;
}

SimReport report_from_counters(const SimCounters& counters,
                               const energy::EnergyTable& energies,
                               bool loop_cache) {
  SimReport rep;
  rep.counters = counters;
  finish(rep, energies, loop_cache);
  return rep;
}

void record_sim_counters(obs::MetricsRegistry* reg,
                         const SimCounters& counters) {
  record_metrics(reg, counters);
}

}  // namespace casa::memsim
