// The fault-contained entry points: Workbench::evaluate for one job and
// the batch engine behind Workbench::evaluate_batch. Both run each job's
// whole flow through one retry-and-containment helper; the batch engine
// adds deduplication and the fan-out (docs/sweep.md) on top of the stages
// in workbench.cpp.
#include "casa/report/workbench.hpp"

#include <exception>
#include <memory>
#include <sstream>
#include <utility>

#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/fault/fault.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/error.hpp"

namespace casa::report {

namespace {

namespace mn = obs::metric_names;
namespace tn = obs::trace_names;

/// Stable error classification for JobResult: most-derived types first so
/// a transient fault never reads as a generic casa::Error. The kinds are
/// part of the batch API (drivers switch on them), so keep them stable.
void classify_error(const std::exception_ptr& err, std::string& kind,
                    std::string& message) {
  try {
    std::rethrow_exception(err);
  } catch (const fault::TransientError& e) {
    kind = "transient";
    message = e.what();
  } catch (const fault::FaultError& e) {
    kind = "fault";
    message = e.what();
  } catch (const check::CheckError& e) {
    kind = "check";
    message = e.what();
  } catch (const PreconditionError& e) {
    kind = "precondition";
    message = e.what();
  } catch (const SolveError& e) {
    kind = "solve";
    message = e.what();
  } catch (const Error& e) {
    kind = "casa";
    message = e.what();
  } catch (const std::exception& e) {
    kind = "std";
    message = e.what();
  } catch (...) {
    kind = "unknown";
    message = "non-standard exception";
  }
}

/// Runs one job's flow until it succeeds or fails for good: transient
/// failures retry per `bopt` after a deterministic backoff (traced as a
/// runner.retry instant), anything else fails at once. `run(reg)` yields
/// the Outcome, recording into a registry of its own attempt (null when
/// `shard` is) that merges into `shard` only on success, so a failed
/// attempt leaves no partial counts behind.
template <typename Run>
JobResult run_contained(const BatchOptions& bopt, obs::MetricsRegistry* shard,
                        Run&& run) {
  for (unsigned attempt = 0;; ++attempt) {
    JobResult res;
    obs::MetricsSnapshot recorded;
    try {
      obs::MetricsRegistry attempt_reg;
      res.outcome = run(shard != nullptr ? &attempt_reg : nullptr);
      recorded = attempt_reg.snapshot();
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      if (attempt >= bopt.max_retries || !fault::is_transient(error)) {
        return failed_job_result(error, attempt + 1);
      }
      fault::RetryPolicy policy;
      policy.max_retries = bopt.max_retries;
      policy.backoff_us = bopt.retry_backoff_us;
      fault::backoff_sleep(policy, attempt);
      if (obs::Tracer* tracer = obs::Tracer::current()) {
        tracer->instant(tn::kRunnerRetry, static_cast<double>(attempt + 1),
                        tn::kCatFault);
      }
      continue;
    }
    res.attempts = attempt + 1;
    res.status = attempt > 0 ? JobStatus::kRetriedOk : JobStatus::kOk;
    if (shard != nullptr) shard->merge_from(recorded);
    return res;
  }
}

}  // namespace

JobResult Workbench::evaluate(const Job& job) const {
  // The batch containment contract without the fan-out. One job needs no
  // shard ordering to stay deterministic, so it records straight into
  // options().metrics; it binds fault arg 0, as a batch's first job does.
  const fault::ScopedArg scope(0);
  return run_contained(BatchOptions{}, opt_.metrics,
                       [&](obs::MetricsRegistry* reg) { return run(job, reg); });
}

std::vector<JobResult> Workbench::evaluate_batch(
    std::span<const Job> jobs, const BatchOptions& bopt,
    sim::MetricsShards* shards) const {
  CASA_CHECK(shards == nullptr || shards->size() == jobs.size(),
             "MetricsShards size must match the job count");
  // Root trace span for the batch; the tasks the runner fans out are
  // flow-linked back into it.
  const obs::TraceSpan sweep_scope(obs::Tracer::current(), tn::kSweep,
                                   tn::kCatSim);
  const fault::InjectorStats faults_before = fault::stats();
  sim::RunnerOptions ropt;
  ropt.threads = bopt.threads;
  const sim::ParallelRunner runner(ropt);

  // Identical jobs produce identical outcomes (flows are deterministic), so
  // repeated sweep points run once: `unique` holds each distinct job's first
  // index, and every job maps to its entry there; duplicates copy that
  // JobResult and record nothing.
  std::vector<std::size_t> unique;
  std::vector<std::size_t> unique_of(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::size_t u = 0;
    while (u < unique.size() && !(jobs[unique[u]] == jobs[i])) ++u;
    if (u == unique.size()) unique.push_back(i);
    unique_of[i] = u;
  }

  // Tasks never record into opt_.metrics directly: each job gets a private
  // shard, and the shards merge in job order afterwards — that is what
  // keeps merged counters identical on 1 thread and on N.
  std::unique_ptr<sim::MetricsShards> local;
  sim::MetricsShards* sh = shards;
  if (sh == nullptr && opt_.metrics != nullptr) {
    local = std::make_unique<sim::MetricsShards>(jobs.size());
    sh = local.get();
  }

  // One task per unique job, running its whole flow as evaluate does. The
  // task binds the job index as the thread's fault argument: spec clauses
  // with arg=N target exactly this job, on any schedule.
  const std::vector<JobResult> by_unique =
      runner.map<JobResult>(unique.size(), [&](std::size_t u) {
        const std::size_t job_idx = unique[u];
        const fault::ScopedArg scope(job_idx);
        return run_contained(
            bopt, sh != nullptr ? &sh->shard(job_idx) : nullptr,
            [&](obs::MetricsRegistry* reg) { return run(jobs[job_idx], reg); });
      });

  // Reassemble in job order: duplicates copy their representative's result.
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(by_unique[unique_of[i]]);
  }

  if (opt_.metrics != nullptr) {
    std::size_t failed = 0;
    std::size_t retried = 0;
    for (const JobResult& r : results) {
      if (r.status == JobStatus::kFailed) ++failed;
      if (r.status == JobStatus::kRetriedOk) ++retried;
    }
    obs::MetricsRegistry& m = *opt_.metrics;
    m.merge_from(sh->merged());
    m.add(mn::kRunnerJobs, jobs.size());
    m.set_gauge(mn::kRunnerThreads, static_cast<double>(runner.threads()));
    m.add(mn::kSweepDedupHits, jobs.size() - unique.size());
    if (failed != 0) m.add(mn::kRunnerJobsFailed, failed);
    if (retried != 0) m.add(mn::kRunnerJobsRetried, retried);
    const std::uint64_t fired = fault::stats().fires - faults_before.fires;
    if (fired != 0) m.add(mn::kFaultInjected, fired);
  }

  if (bopt.fail_fast) {
    for (const JobResult& r : results) {
      if (r.status == JobStatus::kFailed) std::rethrow_exception(r.error);
    }
  } else if (opt_.check_artifacts) {
    // Degraded batches are reported, not thrown: the diagnostic lands in
    // the check.* counters (and any check artifact the caller writes), the
    // healthy outcomes stay usable data.
    check::CheckRunner chk(opt_.metrics);
    check::check_batch(batch_summary_of(results), chk);
  }
  return results;
}

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRetriedOk:
      return "retried_ok";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

JobResult failed_job_result(std::exception_ptr error, unsigned attempts) {
  JobResult res;
  res.status = JobStatus::kFailed;
  res.attempts = attempts;
  res.error = error;
  classify_error(error, res.error_kind, res.message);
  return res;
}

check::BatchSummary batch_summary_of(const std::vector<JobResult>& results) {
  check::BatchSummary summary;
  summary.jobs = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    if (r.status == JobStatus::kRetriedOk) ++summary.retried;
    if (r.status != JobStatus::kFailed) continue;
    ++summary.failed;
    std::ostringstream line;
    line << "job " << i << ": " << r.error_kind << ": " << r.message;
    summary.failures.push_back(line.str());
  }
  return summary;
}

}  // namespace casa::report
