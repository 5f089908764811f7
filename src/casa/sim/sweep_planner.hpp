// sim::SweepPlanner — a forwarder to Workbench::evaluate_batch, which is
// the sweep engine (docs/sweep.md). It stays only because
// perfbench/suite.cpp still calls it; new code calls evaluate_batch.
#pragma once

#include <vector>

#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"

namespace casa::sim {

class SweepPlanner {
 public:
  using Job = report::Workbench::Job;

  /// The workbench must outlive the planner.
  explicit SweepPlanner(const report::Workbench& bench) : bench_(&bench) {}

  /// Workbench::evaluate_batch(jobs, opt, shards).
  std::vector<report::JobResult> run_jobs(
      const std::vector<Job>& jobs, const report::BatchOptions& opt = {},
      MetricsShards* shards = nullptr) const {
    return bench_->evaluate_batch(jobs, opt, shards);
  }

 private:
  const report::Workbench* bench_;
};

}  // namespace casa::sim
