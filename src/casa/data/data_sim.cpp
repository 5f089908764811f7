#include "casa/data/data_sim.hpp"

#include "casa/conflict/miss_attribution.hpp"
#include "casa/energy/cache_energy.hpp"
#include "casa/energy/spm_energy.hpp"
#include "casa/support/error.hpp"

namespace casa::data {

DataEnergy DataEnergy::build(const cachesim::CacheConfig& dcache,
                             Bytes spm_size) {
  DataEnergy e;
  const energy::CacheEnergyModel cm(dcache);
  e.dcache_hit = cm.hit_energy();
  e.dcache_miss = cm.miss_energy();
  if (spm_size > 0) {
    e.spm_access = energy::SpmEnergyModel(spm_size).access_energy();
  }
  return e;
}

namespace {

/// Data layout: objects packed line-aligned from a distinct base. Entry d
/// is object d's base address; the extra last entry is the image's end.
std::vector<Addr> data_bases(const DataSpec& spec) {
  std::vector<Addr> base{0x40000000};
  for (const DataObject& obj : spec.objects()) {
    base.push_back(base.back() + align_up(obj.size, 16));
  }
  return base;
}

/// The data-stream generator. The `sink` receives (object, address) per
/// access.
template <typename Sink>
void replay(const prog::Program& program, const trace::BlockWalk& walk,
            const DataSpec& spec, Sink&& sink) {
  const std::vector<Addr> base = data_bases(spec);

  // Per-function binding lists for O(1) dispatch in the hot loop.
  std::vector<std::vector<std::size_t>> by_fn(program.function_count());
  for (std::size_t b = 0; b < spec.bindings().size(); ++b) {
    by_fn[spec.bindings()[b].fn.index()].push_back(b);
  }

  std::vector<double> accum(spec.bindings().size(), 0.0);
  std::vector<Bytes> seq_cursor(spec.bindings().size(), 0);

  for (const BasicBlockId bb : walk.seq) {
    const prog::BasicBlock& blk = program.block(bb);
    const auto& bindings = by_fn[blk.function.index()];
    if (bindings.empty()) continue;
    const double words = static_cast<double>(blk.size / kWordBytes);
    for (const std::size_t bi : bindings) {
      const DataBinding& bind = spec.bindings()[bi];
      accum[bi] += bind.accesses_per_fetch * words;
      while (accum[bi] >= 1.0) {
        accum[bi] -= 1.0;
        const DataObject& obj = spec.objects()[bind.object];
        Addr addr;
        if (bind.sequential) {
          addr = base[bind.object] + seq_cursor[bi];
          seq_cursor[bi] = (seq_cursor[bi] + kWordBytes) % obj.size;
        } else {
          // Hot scalar region: cycle the first 32 bytes (or whole object).
          const Bytes hot = std::min<Bytes>(32, obj.size);
          addr = base[bind.object] + seq_cursor[bi];
          seq_cursor[bi] = (seq_cursor[bi] + kWordBytes) % hot;
        }
        sink(bind.object, addr);
      }
    }
  }
}

}  // namespace

DataProfile profile_data(const prog::Program& program,
                         const trace::BlockWalk& walk, const DataSpec& spec,
                         const cachesim::CacheConfig& dcache,
                         std::uint64_t seed) {
  const std::size_t n = spec.objects().size();
  cachesim::Cache cache(dcache, seed);
  const std::vector<Addr> base = data_bases(spec);
  const Bytes line = dcache.line_size;
  conflict::MissAttribution st(n, base.front() / line,
                               (base.back() + line - 1) / line);
  std::uint64_t total = 0;

  replay(program, walk, spec, [&](std::size_t obj, Addr addr) {
    ++st.fetches[obj];
    ++total;
    const cachesim::AccessResult r = cache.access(addr);
    if (!r.hit) {
      st.on_miss(MemoryObjectId(static_cast<std::uint32_t>(obj)),
                 cache.line_of(addr), r.evicted_line);
    }
  });

  std::vector<std::uint64_t> accesses = st.fetches;
  return DataProfile{std::move(accesses), st.finish(), total};
}

DataSimReport simulate_data(const prog::Program& program,
                            const trace::BlockWalk& walk,
                            const DataSpec& spec,
                            const std::vector<bool>& on_spm,
                            const cachesim::CacheConfig& dcache,
                            const DataEnergy& energy, std::uint64_t seed) {
  CASA_CHECK(on_spm.size() == spec.objects().size(), "on_spm size mismatch");
  cachesim::Cache cache(dcache, seed);
  DataSimReport rep;

  replay(program, walk, spec, [&](std::size_t obj, Addr addr) {
    ++rep.total_accesses;
    if (on_spm[obj]) {
      ++rep.spm_accesses;
      return;
    }
    if (cache.access(addr).hit) {
      ++rep.dcache_hits;
    } else {
      ++rep.dcache_misses;
    }
  });
  // From the counters, in memsim::report_from_counters' form.
  rep.total_energy =
      static_cast<double>(rep.spm_accesses) * energy.spm_access +
      (static_cast<double>(rep.dcache_hits) * energy.dcache_hit +
       static_cast<double>(rep.dcache_misses) * energy.dcache_miss);
  return rep;
}

}  // namespace casa::data
