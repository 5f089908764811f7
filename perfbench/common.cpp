#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/support/error.hpp"
#include "casa/workloads/workloads.hpp"

namespace perfbench {

using casa::report::FlowKind;
using casa::report::Outcome;

void RunResult::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 40) notes.push_back("FAILED: " + why);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/// Best effort: where the host refuses, the thread stays where it is.
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) set_affinity(cpus_);
}

void CpuRotation::pin(std::size_t k) const {
  if (!cpus_.empty()) set_affinity({cpus_[k % cpus_.size()]});
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<double> item_medians(const std::vector<double>& samples,
                                 std::size_t items) {
  CASA_CHECK(items > 0 && samples.size() % items == 0,
             "samples do not repeat a whole list of items");
  std::vector<double> out;
  for (std::size_t i = 0; i < items; ++i) {
    std::vector<double> v;
    for (std::size_t k = i; k < samples.size(); k += items) {
      v.push_back(samples[k]);
    }
    out.push_back(median(std::move(v)));
  }
  return out;
}

std::vector<std::size_t> check_sample(std::size_t n, const RunOptions& opt,
                                      std::size_t k) {
  std::vector<std::size_t> picks(n);
  std::iota(picks.begin(), picks.end(), 0);
  if (opt.check_all) return picks;
  Rng rng(opt.seed ^ 0x5eedc4ecull);
  for (std::size_t i = 0; i + 1 < picks.size(); ++i) {
    std::swap(picks[i], picks[i + rng.below(picks.size() - i)]);
  }
  picks.resize(std::min(k, picks.size()));
  return picks;
}

std::size_t units_for(double seconds, double unit_seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / unit_seconds)));
}

std::vector<std::uint64_t> run_seeds(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> seeds{seed};
  Rng rng(seed);
  while (seeds.size() < count) seeds.push_back(rng.next() >> 40);
  return seeds;
}

std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed,
                                  casa::obs::Tracer* tracer,
                                  casa::obs::MetricsRegistry* metrics) {
  auto b = std::make_unique<Bench>();
  {
    const casa::obs::TraceSpan span(tracer, "generate");
    b->program = casa::workloads::by_name(name);
  }
  casa::report::WorkbenchOptions wopt;
  wopt.exec_seed = seed;
  wopt.metrics = metrics;
  const casa::obs::TraceSpan span(tracer, "profiling");
  b->bench = std::make_unique<const Workbench>(b->program, wopt);
  return b;
}

std::vector<Job> paper_jobs(const std::string& program) {
  const casa::cachesim::CacheConfig cache =
      casa::workloads::paper_cache_for(program);
  const std::vector<casa::Bytes> sizes =
      casa::workloads::paper_spm_sizes_for(program);
  std::vector<Job> jobs;
  for (const casa::Bytes s : sizes) jobs.push_back(Job::casa_job(cache, s));
  for (const casa::Bytes s : sizes) jobs.push_back(Job::steinke_job(cache, s));
  for (const casa::Bytes s : sizes) {
    jobs.push_back(Job::loopcache_job(cache, s, 4));
  }
  return jobs;
}

std::string job_label(const std::string& program, const Job& job) {
  std::ostringstream os;
  os << program << '/' << casa::report::to_string(job.kind) << '/'
     << job.cache.size << 'x' << job.cache.line_size << 'x'
     << job.cache.associativity << '/' << job.size;
  return os.str();
}

std::string outcome_digest(const Outcome& out) {
  const casa::memsim::SimCounters& c = out.sim.counters;
  char energy[64];
  std::snprintf(energy, sizeof energy, "%a", out.sim.total_energy);
  std::ostringstream os;
  os << energy << ' ' << c.total_fetches << ',' << c.spm_accesses << ','
     << c.lc_accesses << ',' << c.cache_accesses << ',' << c.cache_hits << ','
     << c.cache_misses << ',' << c.cache_evictions << ',' << c.mainmem_words
     << ',' << c.cycles << ' ';
  if (out.flow() == FlowKind::kCasa) {
    os << "mask=";
    for (const bool b : out.alloc().on_spm) os << (b ? '1' : '0');
  } else {
    os << "spm_used=" << out.spm_used;
  }
  return os.str();
}

std::string cross_check(const Workbench& wb, const Job& job,
                        const Outcome& out, bool thorough,
                        CrossCheckStats& stats) {
  ++stats.outputs;
  std::string why;
  // 1. The word-granular replay of the same prepared artifacts.
  const Workbench::PreparedJob pj = wb.prepare_job(job, nullptr);
  casa::memsim::SimOptions words;
  words.use_compiled_stream = false;
  const casa::memsim::SimReport ref =
      pj.regions != nullptr
          ? casa::memsim::simulate_loopcache_system(
                *pj.tp, *pj.layout, wb.execution().walk, *pj.regions,
                pj.job.cache, pj.energies, words)
          : casa::memsim::simulate_spm_system(*pj.tp, *pj.layout,
                                              wb.execution().walk, pj.on_spm,
                                              pj.job.cache, pj.energies, words);
  if (!(ref == out.sim)) why += " word-replay";

  // 2. A fresh single-job evaluation through the public entry point.
  const casa::report::JobResult fresh = wb.evaluate(job);
  if (!fresh.ok() || !(fresh.outcome == out)) why += " evaluate";

  // 3. The other exact engine must reach the same optimum. The generic ILP
  // re-solves every node LP from scratch, so it only runs where its search
  // is known to stay small.
  if (job.kind == FlowKind::kCasa) {
    using casa::core::CasaEngine;
    const casa::core::AllocationResult& a = out.alloc();
    const bool generic_was_used = a.engine_used == CasaEngine::kGenericIlp;
    if (!generic_was_used &&
        (!thorough || a.presolved_edges > kGenericCheckMaxEdges)) {
      ++stats.engine_skipped;
      return why;
    }
    Job other = job;
    other.casa.engine =
        generic_was_used ? CasaEngine::kSpecializedBnB : CasaEngine::kGenericIlp;
    if (!generic_was_used) other.casa.max_nodes = kGenericCheckMaxNodes;
    const casa::report::JobResult alt = wb.evaluate(other);
    if (!alt.ok()) {
      // A truncated search proves nothing either way; anything else fails.
      if (alt.message.find("alloc.solver.truncated") == std::string::npos) {
        why += " other-engine-failed";
      } else {
        ++stats.engine_skipped;
      }
      return why;
    }
    ++stats.engine_checked;
    const double x = alt.outcome.alloc().predicted_energy;
    const double y = a.predicted_energy;
    // The generic engine's LP tolerances allow last-digit differences.
    if (std::abs(x - y) > 1e-6 * std::max(std::abs(x), std::abs(y))) {
      why += " other-engine-optimum";
    } else if (alt.outcome.alloc().on_spm == a.on_spm &&
               !(alt.outcome.sim == out.sim)) {
      why += " other-engine-sim";
    }
  }
  return why;
}

}  // namespace perfbench
