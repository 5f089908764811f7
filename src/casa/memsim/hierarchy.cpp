#include "casa/memsim/hierarchy.hpp"

#include <optional>

#include "casa/cachesim/line_model.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/support/error.hpp"

namespace casa::memsim {

RegionSplit::RegionSplit(const trace::CompiledStream& stream,
                         const loopcache::RegionSet& regions,
                         std::size_t blocks)
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

namespace {

/// Word-granular reference inner loop. `spm_mo` marks scratchpad-resident
/// objects (empty = none); `regions` enables the loop-cache path (nullptr =
/// none).
SimCounters run_words(const traceopt::TraceProgram& tp,
                      const traceopt::Layout& layout,
                      const trace::BlockWalk& walk,
                      const std::vector<bool>& spm_mo,
                      const loopcache::RegionSet* regions,
                      const cachesim::CacheConfig& cache_cfg,
                      const SimOptions& opt) {
  const prog::Program& program = tp.program();
  cachesim::Cache cache(cache_cfg, opt.seed);
  const std::uint64_t line_words = cache_cfg.line_size / kWordBytes;
  const LatencyParams& lat = opt.latency;
  SimCounters c;

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
  return c;
}

/// One simulation: the replay kernel on the model for `cache_cfg` (or the
/// word-granular reference), and the report derived from its counters.
SimReport run(const traceopt::TraceProgram& tp, const traceopt::Layout& layout,
              const trace::BlockWalk& walk, const std::vector<bool>& spm_mo,
              const loopcache::RegionSet* regions,
              const cachesim::CacheConfig& cache_cfg,
              const energy::EnergyTable& energies, const SimOptions& opt) {
  SimCounters c;
  if (opt.use_compiled_stream) {
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(tp, layout, cache_cfg.line_size);
    std::optional<RegionSplit> split;
    if (regions != nullptr) {
      split.emplace(stream, *regions, tp.program().block_count());
    }
    const RegionSplit* const cut = split ? &*split : nullptr;
    ReplayTally t;
    cachesim::with_line_model(cache_cfg, opt.seed, [&](auto& cache) {
      replay(cache,
             {.tp = &tp, .stream = &stream, .spm = &spm_mo, .split = cut},
             walk, t, CountMisses{});
      t.cache_evictions = cachesim::evictions_after(cache, t.cache_misses);
    });
    c = counters_from_tally(t, cache_cfg.line_size, opt.latency);
    if (opt.metrics != nullptr && regions == nullptr) {
      // Compiled-stream run-length telemetry: static runs in the compiled
      // image, dynamic runs replayed, and the words they collapsed, all as
      // the flat walk counts them; and the blocks the repeat schedule
      // skipped. Scoped to scratchpad and cache-only replays.
      opt.metrics->add(obs::metric_names::kStreamCompiledRuns,
                       stream.total_runs());
      opt.metrics->add(obs::metric_names::kStreamReplayedRuns, t.cache_runs);
      opt.metrics->add(obs::metric_names::kStreamReplayedWords,
                       c.cache_accesses);
      opt.metrics->add(obs::metric_names::kStreamSkippedBlocks,
                       t.skipped_blocks);
    }
  } else {
    c = run_words(tp, layout, walk, spm_mo, regions, cache_cfg, opt);
  }
  record_sim_counters(opt.metrics, c);
  return report_from_counters(c, energies, regions != nullptr);
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

SimReport report_from_counters(const SimCounters& c,
                               const energy::EnergyTable& energies,
                               bool loop_cache) {
  // Every replay derives its energies here, so energies are byte-identical
  // whenever counters are, and the hot loops carry no floating point.
  SimReport rep;
  rep.counters = c;
  rep.spm_energy = static_cast<double>(c.spm_accesses) * energies.spm_access;
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
  return rep;
}

void record_sim_counters(obs::MetricsRegistry* reg, const SimCounters& c) {
  // A handful of adds per simulation, never per access.
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

}  // namespace casa::memsim
