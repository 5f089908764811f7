// The fault-contained entry points: Workbench::evaluate for one job and
// the one-pass batch engine behind Workbench::evaluate_batch. Both run
// every job phase through one retry-and-containment helper; the batch
// engine adds deduplication and shared stack replays (docs/sweep.md) on top
// of the stages in workbench.cpp.
#include "casa/report/workbench.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "casa/cachesim/stack_sim.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/traceopt/layout.hpp"

namespace casa::report {

namespace {

namespace mn = obs::metric_names;
namespace tn = obs::trace_names;

/// A stack replay runs only for a group of at least this many jobs. With
/// the default artifact cross-check a pass also simulates one member
/// directly, so a pair costs more than two direct runs (docs/sweep.md has
/// the measurements). Conflict graphs are never shared: each CASA job
/// builds its own on the tag model for its geometry.
constexpr std::size_t kMinSharedMembers = 3;

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

/// Runs one phase of a job until it succeeds or fails for good: transient
/// failures retry per `bopt` after a deterministic backoff (traced as a
/// runner.retry instant), anything else fails at once. Returns the attempts
/// that ran; `error` holds the final failure, null on success. `body` must
/// record into a registry of its own attempt, so a failed attempt leaves no
/// partial counts behind.
template <typename Body>
unsigned attempt_phase(const BatchOptions& bopt, std::exception_ptr& error,
                       Body&& body) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      body();
      error = nullptr;
      return attempt + 1;
    } catch (...) {
      error = std::current_exception();
      if (attempt >= bopt.max_retries || !fault::is_transient(error)) {
        return attempt + 1;
      }
      fault::RetryPolicy policy;
      policy.max_retries = bopt.max_retries;
      policy.backoff_us = bopt.retry_backoff_us;
      fault::backoff_sleep(policy, attempt);
      if (obs::Tracer* tracer = obs::Tracer::current()) {
        tracer->instant(tn::kRunnerRetry, static_cast<double>(attempt + 1),
                        tn::kCatFault);
      }
    }
  }
}

/// The last phase of a job, contained: `run(reg)` yields its Outcome,
/// recording into `reg` (null when `shard` is). On success the counters an
/// earlier phase recorded (`earlier`, may be null) and this phase's merge
/// into `shard`; `retried` counts the retries earlier phases spent.
template <typename Run>
JobResult finish_contained(const BatchOptions& bopt,
                           obs::MetricsRegistry* shard, unsigned retried,
                           const obs::MetricsSnapshot* earlier, Run&& run) {
  JobResult res;
  obs::MetricsSnapshot recorded;
  std::exception_ptr error;
  const unsigned attempts = retried + attempt_phase(bopt, error, [&] {
    obs::MetricsRegistry attempt_reg;
    res.outcome = run(shard != nullptr ? &attempt_reg : nullptr);
    recorded = attempt_reg.snapshot();
  });
  if (error != nullptr) return failed_job_result(error, attempts);
  res.attempts = attempts;
  res.status = attempts > 1 ? JobStatus::kRetriedOk : JobStatus::kOk;
  if (shard != nullptr) {
    if (earlier != nullptr) shard->merge_from(*earlier);
    shard->merge_from(recorded);
  }
  return res;
}

/// What a job feeds the I-cache, short of its scratchpad mask. Jobs with
/// equal keys form one trace program (Workbench::form depends on the line
/// size and trace budget, plus the bench-wide fuse ratio) and lay it out
/// alike, so once their masks agree too they replay one fetch stream and
/// differ only in the cache geometry.
struct StreamKey {
  Bytes line_size = 0;
  Bytes budget = 0;
  bool excluding_layout = false;  ///< Steinke move semantics

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

/// Unique jobs (indices into `unique`) with one stream key.
struct Candidates {
  StreamKey key;
  std::vector<std::size_t> members;
};

/// What one stack replay yields for its group: per-member counters plus the
/// stream.* quantities a direct replay records.
struct StackPass {
  std::vector<memsim::SimCounters> counters;  ///< per group member
  std::uint64_t compiled_runs = 0;
  std::uint64_t replayed_runs = 0;
  std::uint64_t skipped_blocks = 0;  ///< rides with the first member
  obs::MetricsSnapshot validation;   ///< rides with the first member
};

/// A unique job after the prepare phase: the PreparedJob plus the telemetry
/// it recorded (merged into the job's shard only when the job ultimately
/// succeeds), or its contained failure.
struct Prep {
  Workbench::PreparedJob pj;
  obs::MetricsSnapshot recorded;
  std::optional<JobResult> failure;  ///< set when the last attempt failed
  unsigned attempts = 1;             ///< prepare attempts actually run
};

}  // namespace

JobResult Workbench::evaluate(const Job& job) const {
  // The batch containment contract without the fan-out. One job needs no
  // shard ordering to stay deterministic, so it records straight into
  // options().metrics; it binds fault arg 0, as a batch's first job does.
  const fault::ScopedArg scope(0);
  return finish_contained(BatchOptions{}, opt_.metrics, 0, nullptr,
                          [&](obs::MetricsRegistry* reg) {
                            return run(job, reg);
                          });
}

std::vector<JobResult> Workbench::evaluate_batch(
    std::span<const Job> jobs, const BatchOptions& bopt,
    sim::MetricsShards* shards) const {
  CASA_CHECK(shards == nullptr || shards->size() == jobs.size(),
             "MetricsShards size must match the job count");
  // Root trace span for the batch; the tasks the runner fans out are
  // flow-linked back into it.
  obs::Tracer* const tracer = obs::Tracer::current();
  const obs::TraceSpan sweep_scope(tracer, tn::kSweep, tn::kCatSim);
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
  const auto shard_of = [sh](std::size_t job_idx) -> obs::MetricsRegistry* {
    return sh != nullptr ? &sh->shard(job_idx) : nullptr;
  };
  const trace::BlockWalk& walk = exec_.walk;

  // Candidates for a shared stack replay: LRU (the only policy the stack
  // engine models) outside the loop-cache flow (whose region replay it
  // does not model), in sets of at least kMinSharedMembers per stream key.
  // Every other job runs its whole flow in one task, as evaluate does.
  std::vector<Candidates> candidates;
  std::vector<std::size_t> direct;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    const Job& job = jobs[unique[u]];
    if (job.kind == Job::Kind::kLoopCache ||
        job.cache.policy != cachesim::ReplacementPolicy::kLru) {
      direct.push_back(u);
      continue;
    }
    const StreamKey key{
        job.cache.line_size, trace_budget(job),
        job.kind == Job::Kind::kSteinke && opt_.steinke_moves};
    auto home = std::find_if(candidates.begin(), candidates.end(),
                             [&](const Candidates& c) { return c.key == key; });
    if (home == candidates.end()) {
      candidates.push_back(Candidates{key, {}});
      home = candidates.end() - 1;
    }
    home->members.push_back(u);
  }
  std::erase_if(candidates, [&](const Candidates& c) {
    if (c.members.size() >= kMinSharedMembers) return false;
    direct.insert(direct.end(), c.members.begin(), c.members.end());
    return true;
  });
  std::sort(direct.begin(), direct.end());

  // Every stage but the replay, contained per job.
  const auto prepare = [&](std::size_t u) {
    const std::size_t job_idx = unique[u];
    // Bind the job index as the thread's fault argument: spec clauses with
    // arg=N target exactly this job, on any schedule.
    const fault::ScopedArg scope(job_idx);
    Prep p;
    std::exception_ptr error;
    p.attempts = attempt_phase(bopt, error, [&] {
      obs::MetricsRegistry attempt_reg;
      p.pj = prepare_job(jobs[job_idx], sh != nullptr ? &attempt_reg : nullptr);
      p.recorded = attempt_reg.snapshot();
    });
    if (error != nullptr) p.failure = failed_job_result(error, p.attempts);
    return p;
  };
  const auto run_direct = [&](std::size_t u) {
    const std::size_t job_idx = unique[u];
    const fault::ScopedArg scope(job_idx);
    return finish_contained(bopt, shard_of(job_idx), 0, nullptr,
                            [&](obs::MetricsRegistry* reg) {
                              return run(jobs[job_idx], reg);
                            });
  };

  // One wave prepares every candidate next to the direct jobs' whole flows.
  std::vector<std::size_t> to_prepare;
  for (const Candidates& c : candidates) {
    to_prepare.insert(to_prepare.end(), c.members.begin(), c.members.end());
  }
  std::sort(to_prepare.begin(), to_prepare.end());
  struct WaveTask {
    Prep prep;         ///< tasks [0, to_prepare)
    JobResult direct;  ///< then one per direct job
  };
  std::vector<WaveTask> wave = runner.map<WaveTask>(
      to_prepare.size() + direct.size(), [&](std::size_t t, std::uint64_t) {
        WaveTask out;
        if (t < to_prepare.size()) {
          out.prep = prepare(to_prepare[t]);
        } else {
          out.direct = run_direct(direct[t - to_prepare.size()]);
        }
        return out;
      });
  std::vector<Prep> prepared(unique.size());
  for (std::size_t t = 0; t < to_prepare.size(); ++t) {
    prepared[to_prepare[t]] = std::move(wave[t].prep);
  }

  // Within a candidate set, the prepared jobs with one scratchpad mask feed
  // the cache one fetch stream. Failed prepares carry nothing to group.
  std::vector<std::vector<std::size_t>> groups;
  for (const Candidates& c : candidates) {
    const std::size_t first = groups.size();
    for (const std::size_t u : c.members) {
      if (prepared[u].failure) continue;
      const auto home = std::find_if(
          groups.begin() + static_cast<std::ptrdiff_t>(first), groups.end(),
          [&](const std::vector<std::size_t>& g) {
            return prepared[g.front()].pj.on_spm == prepared[u].pj.on_spm;
          });
      if (home == groups.end()) {
        groups.push_back({u});
      } else {
        home->push_back(u);
      }
    }
  }
  // Groups run in job order (by first member), as every wave does, so a
  // batch schedules as its job list reads.
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });

  // One replay of a group's shared stream through the stack engine. The
  // representative's trace program, layout and mask are those of every
  // member (that is what the grouping guarantees), so its compiled stream
  // is too; its job index is the fault argument of the pass. With artifact
  // checking on, the representative's counters are cross-validated against
  // a direct simulation BEFORE any member consumes them: a divergence
  // poisons the whole group, so it must degrade (or, under fail_fast,
  // abort) rather than emit suspect Outcomes.
  const auto stack_pass = [&](const std::vector<std::size_t>& grp) {
    const Workbench::PreparedJob& rep = prepared[grp.front()].pj;
    const fault::ScopedArg pass_scope(unique[grp.front()]);
    fault::at(fault::site_names::kSweepStackPass);
    const obs::TraceSpan span(tracer, tn::kSweepStackPass, tn::kCatSim);
    if (tracer != nullptr) {
      tracer->instant(tn::kSweepConfigsPerPass,
                      static_cast<double>(grp.size()), tn::kCatSim);
    }
    const Bytes line_size = rep.job.cache.line_size;
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(*rep.tp, *rep.layout, line_size);
    cachesim::ConfigFamily family;
    family.line_size = line_size;
    for (const std::size_t u : grp) {
      family.configs.push_back(prepared[u].pj.job.cache);
    }
    cachesim::StackSimulator sim(family);
    memsim::ReplayTally t;
    memsim::replay(sim,
                   memsim::Route{.tp = rep.tp.get(), .stream = &stream,
                                 .spm = &rep.on_spm},
                   walk, t,
                   [](cachesim::StackSimulator& s, MemoryObjectId,
                      const trace::LineRun& run, std::uint64_t weight) {
                     s.access_line(run.addr, run.words, weight);
                     return false;  // misses are read off per member
                   });

    StackPass out;
    out.replayed_runs = t.cache_runs;
    out.skipped_blocks = t.skipped_blocks;
    out.compiled_runs = stream.total_runs();
    // Each member's counters as a direct line-granular replay would have
    // derived them from its slice of the pass (finish_job's latencies).
    const memsim::LatencyParams lat;
    for (const std::size_t u : grp) {
      const cachesim::StackCounters sc = sim.counters(prepared[u].pj.job.cache);
      out.counters.push_back(memsim::counters_from_tally(
          {.spm_words = t.spm_words,
           .cache_words = sc.accesses(),
           .cache_misses = sc.misses,
           .cache_evictions = sc.evictions},
          line_size, lat));
    }
    if (opt_.check_artifacts) {
      const memsim::SimReport direct_run = memsim::simulate_spm_system(
          *rep.tp, *rep.layout, walk, rep.on_spm, rep.job.cache, rep.energies,
          memsim::SimOptions{});
      obs::MetricsRegistry chk_reg;
      check::CheckRunner chk(shard_of(unique[grp.front()]) != nullptr
                                 ? &chk_reg
                                 : nullptr);
      check::check_stack_sweep(out.counters.front(), direct_run.counters,
                               rep.job.cache, chk);
      out.validation = chk_reg.snapshot();
      chk.throw_if_errors();
    }
    return out;
  };

  // The last phase of a prepared job; attempts accumulate across phases, so
  // a job that retried in prepare and again here reports the total.
  const auto finish = [&](std::size_t u, const auto& run) {
    const std::size_t job_idx = unique[u];
    const fault::ScopedArg scope(job_idx);
    const Prep& p = prepared[u];
    return finish_contained(bopt, shard_of(job_idx), p.attempts - 1,
                            &p.recorded, run);
  };

  // One task per group: a stack pass for groups of at least
  // kMinSharedMembers, direct simulation for the rest. A stack pass that
  // fails degrades its group to the direct path in containment mode and
  // propagates under fail_fast (a stack-engine regression must fail the
  // batch, not be silently papered over).
  struct GroupDone {
    std::vector<JobResult> results;  ///< per group member
    bool stack_pass = false;  ///< members finished off one shared replay
    bool degraded = false;    ///< the pass failed, members finished direct
  };
  const std::vector<GroupDone> finished = runner.map<GroupDone>(
      groups.size(), [&](std::size_t g, std::uint64_t) {
        const std::vector<std::size_t>& grp = groups[g];
        GroupDone out;
        if (grp.size() >= kMinSharedMembers) {
          try {
            const StackPass pass = stack_pass(grp);
            for (std::size_t k = 0; k < grp.size(); ++k) {
              out.results.push_back(
                  finish(grp[k], [&](obs::MetricsRegistry* reg) {
                    Outcome o = finish_with_counters(prepared[grp[k]].pj,
                                                     pass.counters[k], reg);
                    if (reg != nullptr) {
                      // The stream.* telemetry a direct replay records.
                      reg->add(mn::kStreamCompiledRuns, pass.compiled_runs);
                      reg->add(mn::kStreamReplayedRuns, pass.replayed_runs);
                      reg->add(mn::kStreamReplayedWords,
                               pass.counters[k].cache_accesses);
                      if (k == 0) {
                        // The pass skipped these once, for every member.
                        reg->add(mn::kStreamSkippedBlocks,
                                 pass.skipped_blocks);
                        reg->merge_from(pass.validation);
                      }
                    }
                    return o;
                  }));
            }
            out.stack_pass = true;
            return out;
          } catch (...) {
            if (bopt.fail_fast) throw;
            // The shared machinery itself failed (injected fault, stack /
            // direct divergence). The members are still individually
            // healthy jobs: degrade the whole group to direct simulation —
            // exact by construction — and account for it.
            out.degraded = true;
            if (tracer != nullptr) {
              tracer->instant(tn::kSweepDegraded,
                              static_cast<double>(grp.size()), tn::kCatFault);
            }
          }
        }
        for (const std::size_t u : grp) {
          out.results.push_back(finish(u, [&](obs::MetricsRegistry* reg) {
            return finish_job(prepared[u].pj, reg);
          }));
        }
        return out;
      });

  // Reassemble in job order: unique results land at their indices,
  // duplicates copy their representative's.
  std::vector<JobResult> by_unique(unique.size());
  for (std::size_t t = 0; t < direct.size(); ++t) {
    by_unique[direct[t]] = std::move(wave[to_prepare.size() + t].direct);
  }
  for (const Candidates& c : candidates) {
    for (const std::size_t u : c.members) {
      if (prepared[u].failure) by_unique[u] = *prepared[u].failure;
    }
  }
  std::uint64_t stack_passes = 0;
  std::uint64_t stack_hits = 0;
  std::uint64_t direct_finishes = direct.size();
  std::uint64_t degraded_groups = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 0; k < groups[g].size(); ++k) {
      by_unique[groups[g][k]] = finished[g].results[k];
    }
    if (finished[g].stack_pass) {
      ++stack_passes;
      stack_hits += groups[g].size();
    } else {
      direct_finishes += groups[g].size();
    }
    if (finished[g].degraded) ++degraded_groups;
  }
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
    m.add(mn::kRunnerDedupHits, jobs.size() - unique.size());
    m.set_gauge(mn::kRunnerThreads, static_cast<double>(runner.threads()));
    m.add(mn::kSweepGroups, groups.size());
    m.add(mn::kSweepStackPasses, stack_passes);
    m.add(mn::kSweepStackHits, stack_hits);
    m.add(mn::kSweepFallbackConfigs, direct_finishes);
    m.add(mn::kSweepDedupHits, jobs.size() - unique.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (finished[g].stack_pass) {
        m.observe(mn::kSweepConfigsPerPass,
                  static_cast<double>(groups[g].size()));
      }
    }
    if (degraded_groups != 0) m.add(mn::kSweepDegradedGroups, degraded_groups);
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
