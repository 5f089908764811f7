// Ablation C — cache geometry / replacement sweep (the paper's claim that
// CASA "can be easily applied to any memory hierarchy").
//
// Runs CASA vs Steinke on g721 across associativities and replacement
// policies at a fixed 1 kB capacity and 256 B scratchpad. Higher
// associativity reduces conflict misses and with them CASA's edge — the
// crossover structure is the interesting output.
//
// The 9 configurations × 3 flows go through one Workbench::evaluate_batch,
// one task per distinct job — outcomes and per-row outputs are
// bit-identical to evaluating each job alone.
#include <fstream>
#include <iostream>

#include "casa/obs/export.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/table.hpp"
#include "casa/workloads/workloads.hpp"

int main() {
  using namespace casa;

  obs::MetricsRegistry metrics;
  metrics.set_config("workload", "g721");
  const prog::Program program = workloads::make_g721();
  report::WorkbenchOptions wopt;
  wopt.metrics = &metrics;
  const report::Workbench bench(program, wopt);
  const Bytes spm = 256;

  std::cout << "Ablation C — CASA vs Steinke on g721 across cache"
               " configurations (1 kB cache, 256 B scratchpad)\n\n";

  const unsigned assocs[] = {1u, 2u, 4u};
  const cachesim::ReplacementPolicy policies[] = {
      cachesim::ReplacementPolicy::kLru, cachesim::ReplacementPolicy::kFifo,
      cachesim::ReplacementPolicy::kRoundRobin};

  // Three jobs per configuration: CASA, Steinke, cache-only reference.
  std::vector<report::Workbench::Job> jobs;
  for (const unsigned assoc : assocs) {
    for (const auto policy : policies) {
      cachesim::CacheConfig cache = workloads::paper_cache_for("g721");
      cache.associativity = assoc;
      cache.policy = policy;
      jobs.push_back(report::Workbench::Job::casa_job(cache, spm));
      jobs.push_back(report::Workbench::Job::steinke_job(cache, spm));
      jobs.push_back(report::Workbench::Job::cache_only_job(cache));
    }
  }
  sim::MetricsShards shards(jobs.size());
  const std::vector<report::JobResult> results =
      bench.evaluate_batch(jobs, {}, &shards);

  Table table({"assoc", "policy", "conflict edges", "CASA uJ", "Steinke uJ",
               "improv %", "CASA miss %", "cache-only uJ"});
  std::size_t j = 0;
  for (const unsigned assoc : assocs) {
    for (const auto policy : policies) {
      const report::Outcome& c = results[j++].outcome;
      const report::Outcome& s = results[j++].outcome;
      const report::Outcome& base = results[j++].outcome;

      table.row()
          .cell(static_cast<std::uint64_t>(assoc))
          .cell(cachesim::to_string(policy))
          .cell(static_cast<std::uint64_t>(c.conflict_edges()))
          .cell(to_micro_joules(c.sim.total_energy), 1)
          .cell(to_micro_joules(s.sim.total_energy), 1)
          .cell(100.0 * (1.0 - c.sim.total_energy / s.sim.total_energy), 1)
          .cell(100.0 *
                    static_cast<double>(c.sim.counters.cache_misses) /
                    static_cast<double>(c.sim.counters.cache_accesses),
                2)
          .cell(to_micro_joules(base.sim.total_energy), 1);
    }
  }

  table.print(std::cout);

  const std::vector<obs::MetricsSnapshot> tasks = shards.snapshots();
  obs::ArtifactOptions aopt;
  aopt.tool = "ablation_cache_config";
  aopt.tasks = &tasks;
  const char* artifact = "ablation_cache_config_metrics.json";
  std::ofstream out(artifact);
  if (out.good()) {
    obs::write_artifact_json(out, metrics.snapshot(), aopt);
    std::cout << "\ntelemetry artifact (" << tasks.size()
              << " tasks) written to " << artifact << "\n";
  }
  return 0;
}
