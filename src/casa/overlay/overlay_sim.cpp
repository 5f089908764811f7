#include "casa/overlay/overlay_sim.hpp"

#include <span>

#include "casa/cachesim/line_model.hpp"
#include "casa/memsim/replay.hpp"
#include "casa/support/error.hpp"

namespace casa::overlay {

OverlaySimReport simulate_overlay(
    const traceopt::TraceProgram& tp, const traceopt::Layout& layout,
    const trace::BlockWalk& walk, const PhaseProfile& profile,
    const std::vector<std::vector<bool>>& residency,
    const cachesim::CacheConfig& cache_cfg,
    const energy::EnergyTable& energies, const memsim::SimOptions& opt) {
  CASA_CHECK(residency.size() == profile.phase_count(),
             "residency / phase count mismatch");
  for (const auto& r : residency) {
    CASA_CHECK(r.size() == tp.object_count(), "residency size mismatch");
  }
  CASA_CHECK(energies.spm_access > 0, "energy table lacks an SPM entry");
  std::size_t covered = 0;  // the phases must partition this walk in order
  for (const Phase& phase : profile.phases()) {
    CASA_CHECK(phase.begin == covered && phase.end >= phase.begin,
               "profile phases do not partition the walk");
    covered = phase.end;
  }
  CASA_CHECK(covered == walk.seq.size(),
             "profile phases do not cover the walk");

  const memsim::LatencyParams& lat = opt.latency;
  const Energy copy_word_energy =
      energies.mainmem_word + energies.spm_access;
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(tp, layout, cache_cfg.line_size);

  OverlaySimReport rep;
  memsim::ReplayTally t;
  std::uint64_t copy_cycles = 0;
  cachesim::with_line_model(cache_cfg, opt.seed, [&](auto& cache) {
    // One kernel call per phase on one model: the cache state flows across
    // phase boundaries, only the scratchpad residency switches.
    for (std::size_t p = 0; p < profile.phase_count(); ++p) {
      // Phase entry: swap residency, pay the copies.
      for (std::size_t i = 0; i < tp.object_count(); ++i) {
        const bool now = residency[p][i];
        const bool before = p > 0 && residency[p - 1][i];
        if (now && !before) {
          const std::uint64_t words = tp.objects()[i].raw_size / kWordBytes;
          ++rep.copies;
          rep.copy_words += words;
          rep.copy_energy += static_cast<double>(words) * copy_word_energy;
          copy_cycles += lat.miss_base_penalty +
                         words * (lat.miss_per_word + lat.spm_access);
        }
      }
      const Phase& phase = profile.phases()[p];
      const std::span<const BasicBlockId> blocks(
          walk.seq.data() + phase.begin, phase.end - phase.begin);
      memsim::replay(cache,
                     memsim::Route{.tp = &tp, .stream = &stream,
                                   .spm = &residency[p]},
                     blocks, t, memsim::CountMisses{});
    }
    t.cache_evictions = cachesim::evictions_after(cache, t.cache_misses);
  });

  memsim::SimCounters c =
      memsim::counters_from_tally(t, cache_cfg.line_size, lat);
  c.cycles += copy_cycles;
  rep.sim = memsim::report_from_counters(c, energies, /*loop_cache=*/false);
  memsim::record_sim_counters(opt.metrics, c);
  return rep;
}

}  // namespace casa::overlay
