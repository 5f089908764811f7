#include "casa/sim/parallel_runner.hpp"

namespace casa::sim {

ParallelRunner::ParallelRunner(RunnerOptions opt)
    : threads_(support::ThreadPool::resolve(opt.threads)) {
  if (threads_ > 1) {
    pool_ = std::make_unique<support::ThreadPool>(threads_, "sim");
  }
}

std::vector<obs::MetricsSnapshot> MetricsShards::snapshots() const {
  std::vector<obs::MetricsSnapshot> out;
  out.reserve(shards_.size());
  for (const obs::MetricsRegistry& shard : shards_) {
    out.push_back(shard.snapshot());
  }
  return out;
}

obs::MetricsSnapshot MetricsShards::merged() const {
  obs::MetricsSnapshot merged;
  for (const obs::MetricsRegistry& shard : shards_) {
    merged.merge_from(shard.snapshot());
  }
  return merged;
}

}  // namespace casa::sim
