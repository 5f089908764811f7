// Substrate throughput: executor, cache simulator, conflict-graph builder
// and full hierarchy simulation on the MPEG workload. These bound the cost
// of every experiment in the repo (items/second = simulated fetches/s for
// the cache-level benchmarks).
//
// The compiled-stream pairs (BM_ConflictGraphBuild vs …WordRef,
// BM_HierarchySimulation vs …WordRef) measure the line-granular fetch
// stream against the word-granular reference on identical inputs; their
// items/sec ratio is the compiled-stream speedup. mpeg's paper cache is
// direct-mapped, so those line replays run on cachesim::LruTags<1>; their
// …TwoWay twins replay the same stream at 2 LRU ways on LruTags<2>, and
// their …TwoWayFifo twins at 2 FIFO ways on the generic Cache, so each
// tag-model kernel's ratio to its FIFO twin is the tag model's speedup.
// BM_HierarchySimulation replays mpeg's walk along its repeat schedule;
// BM_HierarchySimulationFlatWalk replays the same walk with the schedule
// cleared, so their ratio is the schedule's speedup.
// The one-pass pair (BM_StackSweep vs …PerConfigRef) measures one stack
// replay of a geometry family against one replay per configuration.
// BM_ParallelSweep runs a
// fixed CASA design-space sweep through Workbench::evaluate_batch at 1/2/4
// threads; on a multi-core host items/sec should scale near-linearly.
// tools/bench_check.sh compares all of these against BENCH_cachesim.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "casa/cachesim/cache.hpp"
#include "casa/cachesim/stack_sim.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/report/workbench.hpp"
#include "casa/support/rng.hpp"
#include "casa/svc/service.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

struct Pipeline {
  prog::Program program = workloads::make_mpeg();
  trace::ExecutionResult exec = trace::Executor::run(program);
  traceopt::TraceProgram tp = traceopt::form_traces(program, exec.profile,
                                                    topts());
  traceopt::Layout layout = traceopt::layout_all(tp);

  static traceopt::TraceFormationOptions topts() {
    traceopt::TraceFormationOptions o;
    o.max_trace_size = 512;
    return o;
  }
};

const Pipeline& pipeline() {
  static const Pipeline p;
  return p;
}

void BM_RawCacheAccess(benchmark::State& state) {
  cachesim::CacheConfig cfg;
  cfg.size = 2_KiB;
  cfg.line_size = 16;
  cfg.associativity = static_cast<unsigned>(state.range(0));
  cachesim::Cache cache(cfg);
  Rng rng(1);
  // Pre-generate an address stream resembling instruction fetch (mostly
  // sequential, occasional jumps).
  std::vector<Addr> stream(1 << 16);
  Addr pc = 0;
  for (auto& a : stream) {
    if (rng.next_bool(0.1)) pc = rng.next_below(32 * 1024) & ~3ull;
    a = pc;
    pc += 4;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(stream[i]));
    i = (i + 1) & (stream.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Line-granular access over the same kind of stream: one access_line call
// per 4-word run. Items = simulated word fetches, so the items/sec gap to
// BM_RawCacheAccess is the per-call amortization win.
void BM_RawCacheAccessLine(benchmark::State& state) {
  cachesim::CacheConfig cfg;
  cfg.size = 2_KiB;
  cfg.line_size = 16;
  cfg.associativity = static_cast<unsigned>(state.range(0));
  cachesim::Cache cache(cfg);
  Rng rng(1);
  const std::uint32_t words = static_cast<std::uint32_t>(cfg.line_size / 4);
  std::vector<Addr> stream(1 << 14);
  Addr pc = 0;
  for (auto& a : stream) {
    if (rng.next_bool(0.1)) {
      pc = rng.next_below(32 * 1024) & ~(cfg.line_size - 1);
    }
    a = pc;
    pc += cfg.line_size;
  }
  std::size_t i = 0;
  std::uint64_t fetched = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access_line(stream[i], words));
    fetched += words;
    i = (i + 1) & (stream.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fetched));
}

void executor(benchmark::State& state, bool record_walk) {
  const prog::Program program = workloads::make_mpeg();
  for (auto _ : state) {
    trace::ExecutorOptions opt;
    opt.record_walk = record_walk;
    benchmark::DoNotOptimize(trace::Executor::run(program, opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pipeline().exec.total_fetches));
}

// The profile alone.
void BM_Executor(benchmark::State& state) { executor(state, false); }

// The profile, the walk and its repeat schedule: what a Workbench runs.
void BM_ExecutorWalk(benchmark::State& state) { executor(state, true); }

// Lowering a layout into line runs — the fixed cost the compiled-stream
// consumers pay per simulation call. O(static code), not O(trace).
void BM_CompiledStreamBuild(benchmark::State& state) {
  const Pipeline& p = pipeline();
  const auto cache = workloads::paper_cache_for("mpeg");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traceopt::compile_fetch_stream(p.tp, p.layout, cache.line_size));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// mpeg's paper cache (direct-mapped LRU) with `ways` ways at the same
/// size, under `policy`.
cachesim::CacheConfig mpeg_cache(unsigned ways,
                                 cachesim::ReplacementPolicy policy =
                                     cachesim::ReplacementPolicy::kLru) {
  cachesim::CacheConfig cache = workloads::paper_cache_for("mpeg");
  cache.associativity = ways;
  cache.policy = policy;
  return cache;
}

void conflict_graph_build(benchmark::State& state,
                          const cachesim::CacheConfig& cache) {
  const Pipeline& p = pipeline();
  conflict::BuildOptions opt;
  opt.cache = cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conflict::build_conflict_graph(p.tp, p.layout, p.exec.walk, opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(p.exec.total_fetches));
}

// The one-way tag model (mpeg's paper cache is 1-way).
void BM_ConflictGraphBuild(benchmark::State& state) {
  conflict_graph_build(state, mpeg_cache(1));
}

// The same stream at 2 LRU ways: the two-way tag model.
void BM_ConflictGraphBuildTwoWay(benchmark::State& state) {
  conflict_graph_build(state, mpeg_cache(2));
}

// The same stream at 2 FIFO ways: the generic set-associative Cache.
// tools/bench_check.sh gates BM_ConflictGraphBuild and …TwoWay >= 2x this.
void BM_ConflictGraphBuildTwoWayFifo(benchmark::State& state) {
  conflict_graph_build(state,
                       mpeg_cache(2, cachesim::ReplacementPolicy::kFifo));
}

void BM_ConflictGraphBuildWordRef(benchmark::State& state) {
  const Pipeline& p = pipeline();
  conflict::BuildOptions opt;
  opt.cache = workloads::paper_cache_for("mpeg");
  opt.use_compiled_stream = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conflict::build_conflict_graph(p.tp, p.layout, p.exec.walk, opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(p.exec.total_fetches));
}

void hierarchy_simulation(benchmark::State& state,
                          const cachesim::CacheConfig& cache,
                          const trace::BlockWalk& walk) {
  const Pipeline& p = pipeline();
  const auto energies = energy::EnergyTable::build(cache, 512, 0, 0);
  const std::vector<bool> none(p.tp.object_count(), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memsim::simulate_spm_system(
        p.tp, p.layout, walk, none, cache, energies));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(p.exec.total_fetches));
}
void hierarchy_simulation(benchmark::State& state,
                          const cachesim::CacheConfig& cache) {
  hierarchy_simulation(state, cache, pipeline().exec.walk);
}

// The one-way tag model (mpeg's paper cache is 1-way), along the walk's
// repeat schedule.
void BM_HierarchySimulation(benchmark::State& state) {
  hierarchy_simulation(state, mpeg_cache(1));
}

// The same replay of the walk with its repeat schedule cleared, so every
// loop iteration replays. tools/bench_check.sh gates BM_HierarchySimulation
// >= 1.3x this.
void BM_HierarchySimulationFlatWalk(benchmark::State& state) {
  trace::BlockWalk flat;
  flat.seq = pipeline().exec.walk.seq;
  hierarchy_simulation(state, mpeg_cache(1), flat);
}

// The same stream at 2 LRU ways: the two-way tag model.
void BM_HierarchySimulationTwoWay(benchmark::State& state) {
  hierarchy_simulation(state, mpeg_cache(2));
}

// The same stream at 2 FIFO ways: the generic set-associative Cache.
// tools/bench_check.sh gates BM_HierarchySimulation and …TwoWay >= 2x this.
void BM_HierarchySimulationTwoWayFifo(benchmark::State& state) {
  hierarchy_simulation(state,
                       mpeg_cache(2, cachesim::ReplacementPolicy::kFifo));
}

void BM_HierarchySimulationWordRef(benchmark::State& state) {
  const Pipeline& p = pipeline();
  const auto cache = workloads::paper_cache_for("mpeg");
  const auto energies = energy::EnergyTable::build(cache, 512, 0, 0);
  const std::vector<bool> none(p.tp.object_count(), false);
  memsim::SimOptions opt;
  opt.use_compiled_stream = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memsim::simulate_spm_system(
        p.tp, p.layout, p.exec.walk, none, cache, energies, opt));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(p.exec.total_fetches));
}

// The mpeg fetch stream at line granularity (compiled-stream runs in walk
// order) — exactly what one sweep group replays.
struct SweepStream {
  std::vector<trace::LineRun> runs;
  std::uint64_t total_words = 0;
};

const SweepStream& sweep_stream() {
  static const SweepStream s = [] {
    const Pipeline& p = pipeline();
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(p.tp, p.layout, 16);
    SweepStream out;
    for (const BasicBlockId bb : p.exec.walk.seq) {
      for (const trace::LineRun& r : stream.runs(bb)) {
        out.runs.push_back(r);
        out.total_words += r.words;
      }
    }
    return out;
  }();
  return s;
}

// The 16-configuration LRU family the sweep gate measures: set counts
// {8,16,32,64} x associativities {1,2,4,8} at 16-byte lines (128 B – 8 KiB).
cachesim::ConfigFamily sweep_family() {
  cachesim::ConfigFamily fam;
  fam.line_size = 16;
  for (unsigned sets = 8; sets <= 64; sets *= 2) {
    for (unsigned assoc = 1; assoc <= 8; assoc *= 2) {
      cachesim::CacheConfig cfg;
      cfg.line_size = fam.line_size;
      cfg.associativity = assoc;
      cfg.size = static_cast<Bytes>(sets) * assoc * fam.line_size;
      fam.configs.push_back(cfg);
    }
  }
  return fam;
}

// One-pass multi-configuration simulation: the whole 16-config family from
// a single stack-distance replay of the mpeg stream. Items = simulated word
// fetches x configurations, so the items/sec ratio to
// BM_StackSweepPerConfigRef is the sweep speedup tools/bench_check.sh gates
// (>= 3x).
void BM_StackSweep(benchmark::State& state) {
  const SweepStream& s = sweep_stream();
  const cachesim::ConfigFamily family = sweep_family();
  for (auto _ : state) {
    cachesim::StackSimulator sim(family);
    for (const trace::LineRun& r : s.runs) sim.access_line(r.addr, r.words);
    for (const cachesim::CacheConfig& cfg : family.configs) {
      benchmark::DoNotOptimize(sim.counters(cfg));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(s.total_words * family.configs.size()));
}

// The same 16 configurations replayed one Cache at a time — what a sweep
// cost before the stack engine, on identical inputs and item accounting.
void BM_StackSweepPerConfigRef(benchmark::State& state) {
  const SweepStream& s = sweep_stream();
  const cachesim::ConfigFamily family = sweep_family();
  for (auto _ : state) {
    for (const cachesim::CacheConfig& cfg : family.configs) {
      cachesim::Cache cache(cfg);
      for (const trace::LineRun& r : s.runs) cache.access_line(r.addr, r.words);
      benchmark::DoNotOptimize(cache.hits());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(s.total_words * family.configs.size()));
}

// A fixed 8-point CASA sweep on adpcm through Workbench::evaluate_batch;
// the thread count is the benchmark argument. Items = sweep points evaluated.
// Each scratchpad size pairs two cache sizes, and a pair shares no stack
// replay, so every point runs its whole flow as one task: on a multi-core host items/sec should rise near-linearly with the
// argument (a single-core host shows flat numbers — the determinism test
// still covers correctness there).
void BM_ParallelSweep(benchmark::State& state) {
  static const prog::Program program = workloads::make_adpcm();
  static const report::Workbench bench(program);
  const unsigned threads = static_cast<unsigned>(state.range(0));

  std::vector<report::Workbench::Job> jobs;
  for (const Bytes spm : {64u, 128u, 256u, 512u}) {
    for (const Bytes cache_size : {128u, 256u}) {
      cachesim::CacheConfig cache;
      cache.size = cache_size;
      cache.line_size = 16;
      jobs.push_back(report::Workbench::Job::casa_job(cache, spm));
    }
  }

  report::BatchOptions bopt;
  bopt.threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.evaluate_batch(jobs, bopt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}

// Tracing overhead on the hot path. Each item is a small xorshift mix (a
// stand-in for real per-phase work) plus, in the variants, an obs::Span.
// With no registry and no tracer attached a Span must cost one relaxed
// atomic load: tools/bench_check.sh gates Null/Off >= 0.85 (within noise).
// The Tracing variant is informational — it prices a fully recorded span.
inline std::uint64_t mix_block(std::uint64_t x) {
  for (int i = 0; i < 32; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

void BM_TraceOverheadOff(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    x = mix_block(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Disarmed fault-site overhead on the same kernel: a fault::at with no
// spec armed must cost one relaxed atomic load, so the injection points
// embedded in the pipeline are free in production. tools/bench_check.sh
// gates FaultCheckOff/Off >= 0.85 (within noise), the same contract as the
// null-tracer span.
void BM_FaultCheckOff(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    casa::fault::at(casa::fault::site_names::kSolverAllocate);
    x = mix_block(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TraceOverheadNull(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    const obs::Span span(nullptr, "bench");  // no registry, no tracer
    x = mix_block(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TraceOverheadTracing(benchmark::State& state) {
  // A fresh tracer every 2^14 spans keeps the ring from filling, so the
  // timed region always prices real event recording, never the (cheaper)
  // drop-newest path of a saturated buffer.
  std::optional<obs::Tracer> tracer;
  const auto reset = [&tracer] {
    obs::Tracer::set_current(nullptr);
    tracer.emplace();
    obs::Tracer::set_current(&*tracer);
  };
  reset();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint32_t spans = 0;
  for (auto _ : state) {
    if (++spans == (1u << 14)) {
      state.PauseTiming();
      reset();
      spans = 0;
      state.ResumeTiming();
    }
    const obs::Span span(nullptr, "bench");
    x = mix_block(x);
    benchmark::DoNotOptimize(x);
  }
  obs::Tracer::set_current(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Serve-cache pricing: one evaluation through svc::EvalService as a miss
// (flush + full Steinke pipeline recompute) vs as a content-addressed hit
// (key derivation + LRU lookup + stored-bytes copy). Both share one
// resident service, so the Workbench profiling run is priced into
// neither. tools/bench_check.sh gates Hit/Miss >= 10x — the ratio the
// serving model exists to deliver.
svc::EvalService& serve_service() {
  static svc::EvalService service;
  return service;
}

report::Workbench::Job serve_job() {
  return report::Workbench::Job::steinke_job(
      workloads::paper_cache_for("adpcm"), 256);
}

void BM_ServeCacheMiss(benchmark::State& state) {
  svc::EvalService& service = serve_service();
  const report::Workbench::Job job = serve_job();
  (void)service.evaluate("adpcm", job);  // profile the workload untimed
  for (auto _ : state) {
    service.flush();  // every iteration is a genuine recompute
    svc::EvalResponse resp = service.evaluate("adpcm", job);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeCacheHit(benchmark::State& state) {
  svc::EvalService& service = serve_service();
  const report::Workbench::Job job = serve_job();
  (void)service.evaluate("adpcm", job);  // warm the cache untimed
  for (auto _ : state) {
    svc::EvalResponse resp = service.evaluate("adpcm", job);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_RawCacheAccess)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_RawCacheAccessLine)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_Executor)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecutorWalk)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompiledStreamBuild);
BENCHMARK(BM_ConflictGraphBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConflictGraphBuildTwoWay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConflictGraphBuildTwoWayFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConflictGraphBuildWordRef)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HierarchySimulation)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HierarchySimulationFlatWalk)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HierarchySimulationTwoWay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HierarchySimulationTwoWayFifo)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HierarchySimulationWordRef)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StackSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StackSweepPerConfigRef)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_ServeCacheMiss)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeCacheHit);
BENCHMARK(BM_TraceOverheadOff);
BENCHMARK(BM_FaultCheckOff);
BENCHMARK(BM_TraceOverheadNull);
BENCHMARK(BM_TraceOverheadTracing);
BENCHMARK_MAIN();
