// Design-space exploration: splitting a fixed on-chip SRAM budget between
// I-cache and scratchpad.
//
// The embedded-SoC question the paper's architecture poses: given N bytes
// of on-chip memory, how much should be cache and how much CASA-managed
// scratchpad? Sweeps the split for g721 under a total budget of 1.25 kB and
// reports energy and cycle counts per split.
//
// The sweep points are independent, so they are evaluated as one
// Workbench::evaluate_batch fanned out across cores (pass a thread count
// as argv[1]; default = hardware concurrency). Each distinct point runs
// its whole flow as one task; results are ordered, identical for any
// thread count, and bit-identical to running each point alone.
//
// The batch runs fail-soft (fail_fast off and one transient retry): a
// sweep point that dies is reported as a failed row while every other split
// still produces data — per-point failure is data in a DSE, not a crash.
// Try it with injection (docs/faults.md):
//
//   CASA_FAULT_SPEC="site=fault.solver.allocate,action=throw,arg=3" ./design_space_exploration
#include <cstdlib>
#include <iostream>

#include "casa/fault/fault.hpp"
#include "casa/report/workbench.hpp"
#include "casa/support/table.hpp"
#include "casa/workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace casa;

  const unsigned threads =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 0;
  fault::arm_from_env();

  const prog::Program program = workloads::make_g721();
  const report::Workbench bench(program);

  std::cout << "Design-space exploration — g721, on-chip budget split\n"
               "between direct-mapped I-cache and scratchpad\n\n";

  // Power-of-two cache sizes with the rest of the budget as scratchpad.
  const std::pair<Bytes, Bytes> splits[] = {
      {2048, 0}, {1024, 1024}, {1024, 512}, {512, 512},
      {512, 256}, {256, 256},  {256, 128},  {128, 128}};

  std::vector<report::Workbench::Job> jobs;
  for (const auto& [cache_size, spm] : splits) {
    cachesim::CacheConfig cache;
    cache.size = cache_size;
    cache.line_size = 16;
    jobs.push_back(spm == 0
                       ? report::Workbench::Job::cache_only_job(cache)
                       : report::Workbench::Job::casa_job(cache, spm));
  }

  report::BatchOptions bopt;
  bopt.threads = threads;
  bopt.fail_fast = false;  // keep healthy splits when one point dies
  bopt.max_retries = 1;    // transient failures get one deterministic retry
  const std::vector<report::JobResult> results =
      bench.evaluate_batch(jobs, bopt);

  Table table({"cache B", "SPM B", "energy uJ", "cache miss %", "SPM fetch %",
               "cycles M", "status"});
  std::size_t best = results.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const report::JobResult& r = results[i];
    if (!r.ok()) {
      ++failed;
      table.row()
          .cell(splits[i].first)
          .cell(splits[i].second)
          .cell("-")
          .cell("-")
          .cell("-")
          .cell("-")
          .cell(r.error_kind);
      continue;
    }
    const report::Outcome& o = r.outcome;
    if (best == results.size() ||
        o.sim.total_energy < results[best].outcome.sim.total_energy) {
      best = i;
    }
    table.row()
        .cell(splits[i].first)
        .cell(splits[i].second)
        .cell(to_micro_joules(o.sim.total_energy), 1)
        .cell(100.0 * static_cast<double>(o.sim.counters.cache_misses) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, o.sim.counters.cache_accesses)),
              2)
        .cell(100.0 * static_cast<double>(o.sim.counters.spm_accesses) /
                  static_cast<double>(o.sim.counters.total_fetches),
              1)
        .cell(static_cast<double>(o.sim.counters.cycles) / 1e6, 2)
        .cell(std::string(to_string(r.status)));
  }

  table.print(std::cout);
  if (failed != 0) {
    std::cout << "\n" << failed << " of " << results.size()
              << " sweep points failed; the rows above are the survivors\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::cout << "  point " << i << " (" << splits[i].first << "B/"
                  << splits[i].second << "B): " << results[i].error_kind
                  << ": " << results[i].message << "\n";
      }
    }
  }
  if (best == results.size()) {
    std::cout << "\nno sweep point survived\n";
    return 1;
  }
  const double base = results[0].ok()
                          ? results[0].outcome.sim.total_energy
                          : results[best].outcome.sim.total_energy;
  std::cout << "\nbest split: " << splits[best].first << " B cache + "
            << splits[best].second << " B scratchpad ("
            << to_micro_joules(results[best].outcome.sim.total_energy)
            << " uJ; "
            << 100.0 * (1.0 - results[best].outcome.sim.total_energy / base)
            << "% below the all-cache design)\n";
  return 0;
}
