// Extended benchmark coverage (beyond the paper's three Mediabench
// programs): the Table-1 comparison on every bundled workload, including
// the epic/pegwit/gsm/jpeg stand-ins. A reproduction claim is stronger when
// the technique's ranking survives programs the algorithm was not tuned on.
//
// Per workload, all (spm size × flow) points go through one
// Workbench::evaluate_batch across cores — the suite is the repo's largest
// sweep; each distinct point runs its whole flow as one task, and the
// outcomes stay bit-identical to evaluating each point alone.
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

  std::cout << "Extended suite — CASA vs Steinke vs preloaded loop cache on"
               " all bundled workloads\n\n";

  Table table({"workload", "cache B", "SPM B", "CASA uJ", "Steinke uJ",
               "LC uJ", "vsSteinke %", "vsLC %"});

  // Suite-wide telemetry: every workload's sweep merges in here, and each
  // job keeps its own per-task snapshot for the artifact's "tasks" array.
  obs::MetricsRegistry metrics;
  std::vector<obs::MetricsSnapshot> task_snapshots;

  double sum_st = 0, sum_lc = 0;
  int rows = 0;
  for (const std::string& name : workloads::names()) {
    const prog::Program program = workloads::by_name(name);
    report::WorkbenchOptions wopt;
    wopt.metrics = &metrics;
    const report::Workbench bench(program, wopt);
    const auto cache = workloads::paper_cache_for(name);
    const std::vector<Bytes> spm_sizes = workloads::paper_spm_sizes_for(name);

    std::vector<report::Workbench::Job> jobs;
    for (const Bytes spm : spm_sizes) {
      jobs.push_back(report::Workbench::Job::casa_job(cache, spm));
      jobs.push_back(report::Workbench::Job::steinke_job(cache, spm));
      jobs.push_back(report::Workbench::Job::loopcache_job(cache, spm, 4));
    }
    sim::MetricsShards shards(jobs.size());
    const std::vector<report::JobResult> results =
        bench.evaluate_batch(jobs, {}, &shards);
    for (obs::MetricsSnapshot& task : shards.snapshots()) {
      task.config["workload"] = name;
      task_snapshots.push_back(std::move(task));
    }

    std::size_t j = 0;
    for (const Bytes spm : spm_sizes) {
      const report::Outcome& c = results[j++].outcome;
      const report::Outcome& s = results[j++].outcome;
      const report::Outcome& l = results[j++].outcome;
      const double vs_st =
          100.0 * (1.0 - c.sim.total_energy / s.sim.total_energy);
      const double vs_lc =
          100.0 * (1.0 - c.sim.total_energy / l.sim.total_energy);
      sum_st += vs_st;
      sum_lc += vs_lc;
      ++rows;
      table.row()
          .cell(name)
          .cell(cache.size)
          .cell(spm)
          .cell(to_micro_joules(c.sim.total_energy), 1)
          .cell(to_micro_joules(s.sim.total_energy), 1)
          .cell(to_micro_joules(l.sim.total_energy), 1)
          .cell(vs_st, 1)
          .cell(vs_lc, 1);
    }
    table.separator();
  }

  table.print(std::cout);
  std::cout << "\naverages over " << rows << " configurations: CASA vs"
            << " Steinke " << sum_st / rows << "%, CASA vs loop cache "
            << sum_lc / rows << "%\n";

  obs::ArtifactOptions aopt;
  aopt.tool = "extended_suite";
  aopt.tasks = &task_snapshots;
  const char* artifact = "extended_suite_metrics.json";
  std::ofstream out(artifact);
  if (out.good()) {
    obs::write_artifact_json(out, metrics.snapshot(), aopt);
    std::cout << "telemetry artifact (" << task_snapshots.size()
              << " tasks) written to " << artifact << "\n";
  }
  return 0;
}
