#include "casa/memsim/two_level.hpp"

#include <span>

#include "casa/cachesim/line_model.hpp"
#include "casa/energy/cache_energy.hpp"
#include "casa/energy/main_memory.hpp"
#include "casa/energy/spm_energy.hpp"
#include "casa/support/error.hpp"

namespace casa::memsim {

TwoLevelEnergies TwoLevelEnergies::build(
    const cachesim::CacheConfig& l1, const cachesim::CacheConfig& l2,
    Bytes spm_size, const energy::TechnologyParams& tech) {
  const energy::CacheEnergyModel m1(l1, tech);
  const energy::CacheEnergyModel m2(l2, tech);
  const energy::MainMemoryModel mm(tech);

  TwoLevelEnergies e;
  if (spm_size > 0) {
    e.spm_access = energy::SpmEnergyModel(spm_size, tech).access_energy();
  }
  e.l1_hit = m1.hit_energy();
  e.l1_miss_l2_hit =
      m1.probe_energy() + m2.hit_energy() + m1.linefill_energy();
  e.l1_miss_l2_miss = m1.probe_energy() + m2.probe_energy() +
                      mm.burst_read_energy(l2.line_size) +
                      m2.linefill_energy() + m1.linefill_energy();
  return e;
}

namespace {

/// Energy falls out of the counters (identically for both granularities).
void finish(TwoLevelReport& rep, const TwoLevelEnergies& e) {
  const TwoLevelCounters& c = rep.counters;
  rep.total_energy =
      static_cast<double>(c.spm_accesses) * e.spm_access +
      static_cast<double>(c.l1_hits) * e.l1_hit +
      static_cast<double>(c.l2_hits) * e.l1_miss_l2_hit +
      static_cast<double>(c.l2_misses) * e.l1_miss_l2_miss;
}

}  // namespace

TwoLevelReport simulate_spm_two_level(const traceopt::TraceProgram& tp,
                                      const traceopt::Layout& layout,
                                      const trace::BlockWalk& walk,
                                      const std::vector<bool>& on_spm,
                                      const cachesim::CacheConfig& l1_cfg,
                                      const cachesim::CacheConfig& l2_cfg,
                                      const TwoLevelEnergies& energies,
                                      std::uint64_t seed,
                                      bool use_compiled_stream) {
  CASA_CHECK(on_spm.size() == tp.object_count(), "on_spm size mismatch");
  CASA_CHECK(l2_cfg.line_size >= l1_cfg.line_size &&
                 l2_cfg.line_size % l1_cfg.line_size == 0,
             "L2 line must be a multiple of the L1 line");
  CASA_CHECK(l2_cfg.size >= l1_cfg.size, "L2 must not be smaller than L1");

  cachesim::Cache l2(l2_cfg, seed + 1);
  TwoLevelReport rep;
  TwoLevelCounters& c = rep.counters;

  if (use_compiled_stream) {
    // Line runs are bounded by the (smaller) L1 line, so each run touches
    // one line at both levels; the single L2 access per L1-missing run
    // matches the word path, where only the run's first word can miss L1.
    // The walk replays flat: the L2 sees the L1's misses, so its state
    // settles a repeat's copy later than the L1's does.
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(tp, layout, l1_cfg.line_size);
    ReplayTally t;
    cachesim::with_line_model(l1_cfg, seed, [&](auto& l1) {
      replay(l1, {.tp = &tp, .stream = &stream, .spm = &on_spm},
             std::span<const BasicBlockId>(walk.seq), t,
             [&](auto& cache, MemoryObjectId, const trace::LineRun& run,
                 std::uint64_t /*weight*/) {
               if (cache.access_line(run.addr, run.words).hit) return false;
               ++(l2.access(run.addr).hit ? c.l2_hits : c.l2_misses);
               return true;
             });
    });
    c.total_fetches = t.spm_words + t.cache_words;
    c.spm_accesses = t.spm_words;
    c.l1_hits = t.cache_words - t.cache_misses;
    c.l1_misses = t.cache_misses;
    finish(rep, energies);
    return rep;
  }

  const prog::Program& program = tp.program();
  cachesim::Cache l1(l1_cfg, seed);
  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const Bytes size = program.block(bb).size;
    const std::uint64_t words = size / kWordBytes;

    if (on_spm[mo.index()]) {
      c.total_fetches += words;
      c.spm_accesses += words;
      continue;
    }

    const Addr base = layout.block_addr(bb);
    for (std::uint64_t w = 0; w < words; ++w) {
      const Addr addr = base + w * kWordBytes;
      ++c.total_fetches;
      if (l1.access(addr).hit) {
        ++c.l1_hits;
        continue;
      }
      ++c.l1_misses;
      if (l2.access(addr).hit) {
        ++c.l2_hits;
      } else {
        ++c.l2_misses;
      }
    }
  }
  finish(rep, energies);
  return rep;
}

}  // namespace casa::memsim
