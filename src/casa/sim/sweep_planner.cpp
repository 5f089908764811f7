#include "casa/sim/sweep_planner.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "casa/cachesim/stack_sim.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/traceopt/layout.hpp"

namespace casa::sim {

namespace {

using report::BatchOptions;
using report::JobResult;
using report::JobStatus;
using report::Outcome;
using report::Workbench;

/// What the I-cache actually sees during a job's replay. Two prepared jobs
/// with equal keys feed the cache the same line-run sequence: the trace
/// program is a deterministic function of (line size, trace budget, fuse
/// ratio — bench-wide), the layout of (trace program, mode, mask), the
/// compiled stream of (trace program, layout, line size), and the walk is
/// shared. Only the cache geometry differs inside a group.
struct StreamKey {
  Bytes line_size = 0;
  cachesim::ReplacementPolicy policy = cachesim::ReplacementPolicy::kLru;
  Bytes max_trace = 0;          ///< effective trace-formation budget
  bool excluding_layout = false;  ///< Steinke move semantics
  bool loop_cache = false;        ///< region replay — never groupable
  std::vector<bool> on_spm;

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

StreamKey key_of(const Workbench::PreparedJob& pj, bool steinke_moves) {
  StreamKey key;
  key.line_size = pj.job.cache.line_size;
  key.policy = pj.job.cache.policy;
  key.max_trace = Workbench::trace_budget(pj.job);
  key.excluding_layout =
      pj.job.kind == Workbench::Job::Kind::kSteinke && steinke_moves;
  key.loop_cache = pj.regions != nullptr;
  key.on_spm = pj.on_spm;
  return key;
}

/// LRU CASA jobs whose conflict graphs one stack replay can share: equal
/// line size and trace budget give one trace program (Workbench::form) and
/// one layout (layout_all depends on nothing else), so their graphs differ
/// only in the cache geometry.
struct GraphFamily {
  Bytes line_size = 0;
  Bytes budget = 0;
  std::vector<std::size_t> members;            ///< indices into `unique`
  std::vector<cachesim::CacheConfig> configs;  ///< distinct geometries
  std::vector<std::size_t> config_of;          ///< per member, into configs
};

std::vector<GraphFamily> graph_families(
    const std::vector<Workbench::Job>& jobs,
    const std::vector<std::size_t>& unique) {
  std::vector<GraphFamily> families;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const Workbench::Job& job = jobs[unique[i]];
    if (job.kind != Workbench::Job::Kind::kCasa ||
        job.cache.policy != cachesim::ReplacementPolicy::kLru) {
      continue;
    }
    const Bytes budget = Workbench::trace_budget(job);
    auto fam = std::find_if(
        families.begin(), families.end(), [&](const GraphFamily& f) {
          return f.line_size == job.cache.line_size && f.budget == budget;
        });
    if (fam == families.end()) {
      families.push_back(GraphFamily{job.cache.line_size, budget, {}, {}, {}});
      fam = families.end() - 1;
    }
    const auto cfg = std::find(fam->configs.begin(), fam->configs.end(),
                               job.cache);
    fam->config_of.push_back(
        static_cast<std::size_t>(cfg - fam->configs.begin()));
    if (cfg == fam->configs.end()) fam->configs.push_back(job.cache);
    fam->members.push_back(i);
  }
  // A lone geometry gains nothing from a shared replay.
  std::erase_if(families,
                [](const GraphFamily& f) { return f.configs.size() < 2; });
  return families;
}

/// Counters a direct line-granular replay (memsim's compiled-stream path)
/// would have produced, reconstructed from one configuration's slice of the
/// stack pass. `spm_words` and the latency table are group-wide; everything
/// else follows from the per-config hit/miss/eviction counts.
memsim::SimCounters counters_from_stack(const cachesim::StackCounters& sc,
                                        std::uint64_t spm_words,
                                        Bytes line_size,
                                        const memsim::LatencyParams& lat) {
  const std::uint64_t line_words = line_size / kWordBytes;
  memsim::SimCounters c;
  c.spm_accesses = spm_words;
  c.cache_hits = sc.hits;
  c.cache_misses = sc.misses;
  c.cache_evictions = sc.evictions;
  c.cache_accesses = sc.hits + sc.misses;
  c.total_fetches = spm_words + c.cache_accesses;
  c.mainmem_words = sc.misses * line_words;
  // run_lines charges every cache word one hit latency (a missing word pays
  // its fill on top), so the cycle total collapses to three terms.
  c.cycles = spm_words * lat.spm_access + c.cache_accesses * lat.cache_hit +
             sc.misses * (lat.miss_base_penalty + line_words * lat.miss_per_word);
  return c;
}

/// A unique job after the prepare phase: the PreparedJob plus the telemetry
/// it recorded (held back as a snapshot and merged into the job's shard
/// only when the job ultimately succeeds) — or its contained failure.
struct Prep {
  Workbench::PreparedJob pj;
  obs::MetricsSnapshot recorded;
  JobResult failure;       ///< valid only when !prepared
  unsigned attempts = 1;   ///< prepare attempts actually run
  bool prepared = false;
};

/// Deterministic inter-attempt backoff plus the runner.retry trace instant
/// (same pacing Workbench::evaluate_job uses).
void pace_retry(const BatchOptions& bopt, unsigned attempt) {
  fault::RetryPolicy policy;
  policy.max_retries = bopt.max_retries;
  policy.backoff_us = bopt.retry_backoff_us;
  fault::backoff_sleep(policy, attempt);
  if (obs::Tracer* tracer = obs::Tracer::current()) {
    tracer->instant(obs::trace_names::kRunnerRetry,
                    static_cast<double>(attempt + 1),
                    obs::trace_names::kCatFault);
  }
}

}  // namespace

std::vector<Outcome> SweepPlanner::run(const std::vector<Job>& jobs,
                                       unsigned threads,
                                       MetricsShards* shards) const {
  report::BatchOptions bopt;
  bopt.threads = threads;
  bopt.fail_fast = true;  // the historical contract: one poisoned job throws
  const std::vector<JobResult> results = run_jobs(jobs, bopt, shards);
  std::vector<Outcome> outcomes;
  outcomes.reserve(results.size());
  for (const JobResult& r : results) outcomes.push_back(r.outcome);
  return outcomes;
}

std::vector<JobResult> SweepPlanner::run_jobs(const std::vector<Job>& jobs,
                                              const report::BatchOptions& bopt,
                                              MetricsShards* shards) const {
  CASA_CHECK(shards == nullptr || shards->size() == jobs.size(),
             "MetricsShards size must match the job count");
  // Root trace span for the sweep; the prepare and group-task flows the
  // runner fans out are flow-linked back into it.
  const obs::TraceSpan sweep_scope(obs::Tracer::current(), obs::trace_names::kSweep,
                                 obs::trace_names::kCatSim);
  const fault::InjectorStats faults_before = fault::stats();
  const report::WorkbenchOptions& wopt = bench_->options();
  RunnerOptions ropt;
  ropt.threads = bopt.threads;
  const ParallelRunner runner(ropt);

  // Same dedup as run_many: repeated sweep points share one JobResult.
  std::vector<std::size_t> unique;
  std::vector<std::size_t> rep_of(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::size_t rep = i;
    for (const std::size_t u : unique) {
      if (jobs[u] == jobs[i]) {
        rep = u;
        break;
      }
    }
    rep_of[i] = rep;
    if (rep == i) unique.push_back(i);
  }

  std::unique_ptr<MetricsShards> local;
  MetricsShards* sh = shards;
  if (sh == nullptr && wopt.metrics != nullptr) {
    local = std::make_unique<MetricsShards>(jobs.size());
    sh = local.get();
  }
  const auto shard_of = [sh](std::size_t job_idx) -> obs::MetricsRegistry* {
    return sh != nullptr ? &sh->shard(job_idx) : nullptr;
  };
  const bool want_metrics = sh != nullptr;
  const trace::BlockWalk& walk = bench_->execution().walk;
  obs::Tracer* const tracer = obs::Tracer::current();

  // Phase 1: every stage but the replay, for every unique job, with per-job
  // containment. Each attempt records into a fresh registry whose snapshot
  // merges into the job's shard only when the job later finishes — a job
  // that dies mid-prepare leaves no partial counts behind.
  //
  // The CASA jobs of a geometry family (see GraphFamily) take their
  // conflict graphs from one shared stack replay instead of building their
  // own. With artifact checking on, the family's first member graph is
  // cross-validated against a direct build before any job consumes it. A
  // failing family build degrades its members to their own per-job builds
  // in containment mode and propagates under fail_fast, as stack passes
  // do. The family builds run in a first wave next to every prepare that
  // needs no family graph; the members prepare in a second wave.
  struct FamilyGraphs {
    std::vector<std::shared_ptr<const conflict::ConflictGraph>> graphs;
    obs::MetricsSnapshot validation;  ///< rides with the first member
    bool degraded = false;
  };
  const std::vector<GraphFamily> families = graph_families(jobs, unique);
  const auto build_family = [this, &families, &jobs, &unique, &walk, &wopt,
                             &bopt, &shard_of, tracer](std::size_t f) {
    const GraphFamily& fam = families[f];
    const std::size_t rep_job = unique[fam.members.front()];
    FamilyGraphs out;
    try {
      const fault::ScopedArg pass_scope(rep_job);
      fault::at(fault::site_names::kSweepGraphPass);
      std::optional<traceopt::TraceProgram> tp;
      {
        const obs::TraceSpan s(tracer, obs::trace_names::kTraceFormation);
        tp.emplace(bench_->form(jobs[rep_job]));
      }
      std::optional<traceopt::Layout> layout;
      {
        const obs::TraceSpan s(tracer, obs::trace_names::kLayout);
        layout.emplace(traceopt::layout_all(*tp));
      }
      const obs::TraceSpan s(tracer, obs::trace_names::kConflictGraph);
      const trace::CompiledStream stream =
          traceopt::compile_fetch_stream(*tp, *layout, fam.line_size);
      std::vector<conflict::ConflictGraph> graphs =
          conflict::build_conflict_graphs(*tp, stream, walk, fam.configs);
      if (wopt.check_artifacts) {
        conflict::BuildOptions direct_opt;
        direct_opt.cache = fam.configs.front();
        const conflict::ConflictGraph direct =
            conflict::build_conflict_graph(*tp, stream, walk, direct_opt);
        obs::MetricsRegistry chk_reg;
        check::CheckRunner chk(shard_of(rep_job) != nullptr ? &chk_reg
                                                            : nullptr);
        check::check_graph_sweep(graphs.front(), direct, fam.configs.front(),
                                 chk);
        out.validation = chk_reg.snapshot();
        chk.throw_if_errors();
      }
      for (conflict::ConflictGraph& g : graphs) {
        out.graphs.push_back(
            std::make_shared<const conflict::ConflictGraph>(std::move(g)));
      }
    } catch (...) {
      if (bopt.fail_fast) throw;
      out = FamilyGraphs{};
      out.degraded = true;
      if (tracer != nullptr) {
        tracer->instant(obs::trace_names::kSweepDegraded,
                        static_cast<double>(fam.members.size()),
                        obs::trace_names::kCatFault);
      }
    }
    return out;
  };

  // Each member holds its own graph reference, so a family's graphs are
  // freed as soon as its last member is prepared.
  std::vector<std::shared_ptr<const conflict::ConflictGraph>> graph_of(
      unique.size());
  std::vector<const obs::MetricsSnapshot*> validation_of(unique.size(),
                                                         nullptr);
  const auto prepare = [this, &jobs, &unique, &bopt, &graph_of,
                        &validation_of, want_metrics](std::size_t i) {
    const std::size_t job_idx = unique[i];
    // Bind the job index as the thread's fault argument: spec clauses with
    // arg=N target exactly this job, on any schedule.
    const fault::ScopedArg scope(job_idx);
    const std::shared_ptr<const conflict::ConflictGraph> graph =
        std::move(graph_of[i]);
    Prep p;
    for (unsigned attempt = 0;; ++attempt) {
      obs::MetricsRegistry temp;
      try {
        p.pj = bench_->prepare_job(jobs[job_idx],
                                   want_metrics ? &temp : nullptr,
                                   graph.get());
        // The family's check.* validation counters ride with its sampled
        // member.
        if (validation_of[i] != nullptr) temp.merge_from(*validation_of[i]);
        p.recorded = temp.snapshot();
        p.attempts = attempt + 1;
        p.prepared = true;
        return p;
      } catch (...) {
        const std::exception_ptr err = std::current_exception();
        if (attempt < bopt.max_retries && fault::is_transient(err)) {
          pace_retry(bopt, attempt);
          continue;
        }
        p.failure = report::failed_job_result(err, attempt + 1);
        p.attempts = attempt + 1;
        return p;
      }
    }
  };

  std::vector<bool> in_family(unique.size(), false);
  for (const GraphFamily& fam : families) {
    for (const std::size_t i : fam.members) in_family[i] = true;
  }
  std::vector<std::size_t> first_wave;
  std::vector<std::size_t> second_wave;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    (in_family[i] ? second_wave : first_wave).push_back(i);
  }
  struct FirstWaveTask {
    FamilyGraphs family;  ///< tasks [0, families.size())
    Prep prep;            ///< the rest, one per first_wave entry
  };
  std::vector<FirstWaveTask> wave = runner.map<FirstWaveTask>(
      families.size() + first_wave.size(),
      [&families, &first_wave, &build_family, &prepare](std::size_t t,
                                                        std::uint64_t) {
        FirstWaveTask out;
        if (t < families.size()) {
          out.family = build_family(t);
        } else {
          out.prep = prepare(first_wave[t - families.size()]);
        }
        return out;
      });
  for (std::size_t f = 0; f < families.size(); ++f) {
    FamilyGraphs& fg = wave[f].family;
    if (fg.degraded) continue;
    for (std::size_t k = 0; k < families[f].members.size(); ++k) {
      graph_of[families[f].members[k]] = fg.graphs[families[f].config_of[k]];
    }
    fg.graphs.clear();
    validation_of[families[f].members.front()] = &fg.validation;
  }
  std::vector<Prep> prepared(unique.size());
  for (std::size_t t = 0; t < first_wave.size(); ++t) {
    prepared[first_wave[t]] = std::move(wave[families.size() + t].prep);
  }
  std::vector<Prep> members = runner.map<Prep>(
      second_wave.size(), [&second_wave, &prepare](std::size_t t,
                                                   std::uint64_t) {
        return prepare(second_wave[t]);
      });
  for (std::size_t t = 0; t < second_wave.size(); ++t) {
    prepared[second_wave[t]] = std::move(members[t]);
  }
  std::uint64_t graph_passes = 0;
  std::uint64_t graph_hits = 0;
  std::uint64_t degraded_families = 0;
  for (std::size_t f = 0; f < families.size(); ++f) {
    if (wave[f].family.degraded) {
      ++degraded_families;
    } else {
      ++graph_passes;
      graph_hits += families[f].members.size();
    }
  }

  // Phase 2: group the successfully prepared jobs by stream signature
  // (indices into `prepared`). Failed prepares carry no artifacts to group.
  struct Group {
    StreamKey key;
    std::vector<std::size_t> members;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (!prepared[i].prepared) continue;
    const StreamKey key = key_of(prepared[i].pj, wopt.steinke_moves);
    Group* home = nullptr;
    if (!key.loop_cache) {
      for (Group& g : groups) {
        if (g.key == key) {
          home = &g;
          break;
        }
      }
    }
    if (home == nullptr) {
      groups.push_back(Group{key, {}});
      home = &groups.back();
    }
    home->members.push_back(i);
  }

  // Phase 3: one task per group. Stack-eligible groups (LRU, >= 2 members,
  // no loop cache) replay the shared stream once; everything else finishes
  // through the ordinary per-configuration simulation. A stack pass that
  // fails degrades its group to the direct path in containment mode and
  // propagates under fail_fast (a stack-engine regression must fail the
  // sweep, not be silently papered over).
  struct GroupDone {
    std::vector<std::pair<std::size_t, JobResult>> done;
    std::size_t size = 0;
    bool stack_pass = false;  ///< members finished off one shared replay
    bool degraded = false;    ///< stack branch failed, fell back to direct
  };
  const std::vector<GroupDone> finished = runner.map<GroupDone>(
      groups.size(),
      [this, &groups, &prepared, &unique, &walk, &wopt, &bopt, &shard_of,
       tracer](std::size_t g, std::uint64_t) {
        const Group& grp = groups[g];
        GroupDone out;
        out.size = grp.members.size();
        out.done.reserve(grp.members.size());

        // Direct per-configuration finish with the same containment and
        // merge-on-success discipline as the prepare phase. Attempts
        // accumulate across phases: a job that retried in prepare and again
        // here reports the total.
        const auto finish_direct = [this, &prepared, &unique, &bopt,
                                    &shard_of](std::size_t idx) -> JobResult {
          const std::size_t job_idx = unique[idx];
          const fault::ScopedArg scope(job_idx);
          const Prep& prep = prepared[idx];
          obs::MetricsRegistry* const shard = shard_of(job_idx);
          for (unsigned attempt = 0;; ++attempt) {
            obs::MetricsRegistry temp;
            try {
              JobResult res;
              res.outcome =
                  bench_->finish_job(prep.pj, shard != nullptr ? &temp : nullptr);
              res.attempts = prep.attempts + attempt;
              res.status =
                  res.attempts > 1 ? JobStatus::kRetriedOk : JobStatus::kOk;
              if (shard != nullptr) {
                shard->merge_from(prep.recorded);
                shard->merge_from(temp.snapshot());
              }
              return res;
            } catch (...) {
              const std::exception_ptr err = std::current_exception();
              if (attempt < bopt.max_retries && fault::is_transient(err)) {
                pace_retry(bopt, attempt);
                continue;
              }
              return report::failed_job_result(err, prep.attempts + attempt);
            }
          }
        };

        const bool stack_eligible =
            grp.key.policy == cachesim::ReplacementPolicy::kLru &&
            !grp.key.loop_cache && grp.members.size() >= 2;
        if (stack_eligible) {
          try {
            // One shared replay. The representative's trace program /
            // layout / mask are byte-identical to every member's (that is
            // what the group key guarantees), so the compiled stream is
            // too. The representative's job index is the fault argument
            // for the pass-wide machinery.
            const Prep& rep = prepared[grp.members.front()];
            const std::size_t rep_job = unique[grp.members.front()];
            const fault::ScopedArg pass_scope(rep_job);
            fault::at(fault::site_names::kSweepStackPass);
            const obs::TraceSpan pass(tracer, obs::trace_names::kSweepStackPass,
                                      obs::trace_names::kCatSim);
            if (tracer != nullptr) {
              tracer->instant(obs::trace_names::kSweepConfigsPerPass,
                              static_cast<double>(grp.members.size()),
                              obs::trace_names::kCatSim);
            }
            const Bytes line_size = grp.key.line_size;
            const trace::CompiledStream stream = traceopt::compile_fetch_stream(
                *rep.pj.tp, *rep.pj.layout, line_size);

            cachesim::ConfigFamily family;
            family.line_size = line_size;
            family.policy = grp.key.policy;
            for (const std::size_t idx : grp.members) {
              family.configs.push_back(prepared[idx].pj.job.cache);
            }
            cachesim::StackSimulator sim(family);

            std::uint64_t spm_words = 0;
            std::uint64_t replayed_runs = 0;
            for (const BasicBlockId bb : walk.seq) {
              const MemoryObjectId mo = rep.pj.tp->object_of(bb);
              if (!rep.pj.on_spm.empty() && rep.pj.on_spm[mo.index()]) {
                spm_words += stream.words_of(bb);
                continue;
              }
              CASA_CHECK(stream.cached(bb),
                         "cached block missing from the compiled layout");
              replayed_runs += stream.runs(bb).size();
              for (const trace::LineRun& run : stream.runs(bb)) {
                sim.access_line(run.addr, run.words);
              }
            }

            const memsim::LatencyParams lat;  // finish_job's defaults
            const memsim::SimCounters sampled = counters_from_stack(
                sim.counters(rep.pj.job.cache), spm_words, line_size, lat);

            // Cross-validate the sampled configuration against a direct
            // simulation BEFORE any member consumes stack counters: a
            // divergence poisons the whole group, so it must degrade (or,
            // under fail_fast, abort) rather than emit suspect Outcomes.
            obs::MetricsSnapshot validation;
            if (wopt.check_artifacts) {
              const memsim::SimReport direct = memsim::simulate_spm_system(
                  *rep.pj.tp, *rep.pj.layout, walk, rep.pj.on_spm,
                  rep.pj.job.cache, rep.pj.energies, memsim::SimOptions{});
              obs::MetricsRegistry chk_reg;
              check::CheckRunner chk(shard_of(rep_job) != nullptr ? &chk_reg
                                                                  : nullptr);
              check::check_stack_sweep(sampled, direct.counters,
                                       rep.pj.job.cache, chk);
              validation = chk_reg.snapshot();
              chk.throw_if_errors();
            }

            for (const std::size_t idx : grp.members) {
              const std::size_t job_idx = unique[idx];
              const fault::ScopedArg member_scope(job_idx);
              const Prep& prep = prepared[idx];
              const memsim::SimCounters c =
                  counters_from_stack(sim.counters(prep.pj.job.cache),
                                      spm_words, line_size, lat);
              obs::MetricsRegistry* const shard = shard_of(job_idx);
              JobResult res;
              for (unsigned attempt = 0;; ++attempt) {
                obs::MetricsRegistry temp;
                try {
                  res.outcome = bench_->finish_with_counters(
                      prep.pj, c, shard != nullptr ? &temp : nullptr);
                  res.attempts = prep.attempts + attempt;
                  res.status = res.attempts > 1 ? JobStatus::kRetriedOk
                                                : JobStatus::kOk;
                  if (shard != nullptr) {
                    shard->merge_from(prep.recorded);
                    // Same stream.* telemetry run_lines emits per direct
                    // replay.
                    temp.add(obs::metric_names::kStreamCompiledRuns,
                             stream.total_runs());
                    temp.add(obs::metric_names::kStreamReplayedRuns,
                             replayed_runs);
                    temp.add(obs::metric_names::kStreamReplayedWords,
                             c.cache_hits + c.cache_misses);
                    shard->merge_from(temp.snapshot());
                    // The group's check.* validation counters ride with the
                    // sampled member.
                    if (idx == grp.members.front()) {
                      shard->merge_from(validation);
                    }
                  }
                  break;
                } catch (...) {
                  const std::exception_ptr err = std::current_exception();
                  if (attempt < bopt.max_retries && fault::is_transient(err)) {
                    pace_retry(bopt, attempt);
                    continue;
                  }
                  res = report::failed_job_result(err, prep.attempts + attempt);
                  break;
                }
              }
              out.done.emplace_back(idx, std::move(res));
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
            out.done.clear();
            if (tracer != nullptr) {
              tracer->instant(obs::trace_names::kSweepDegraded,
                              static_cast<double>(grp.members.size()),
                              obs::trace_names::kCatFault);
            }
          }
        }

        for (const std::size_t idx : grp.members) {
          out.done.emplace_back(idx, finish_direct(idx));
        }
        return out;
      });

  // Reassemble in job order: unique results land at their indices,
  // duplicates copy their representative's.
  std::vector<JobResult> by_unique(unique.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (!prepared[i].prepared) by_unique[i] = prepared[i].failure;
  }
  for (const GroupDone& gd : finished) {
    for (const auto& [idx, res] : gd.done) by_unique[idx] = res;
  }
  std::vector<std::size_t> unique_pos(jobs.size());
  for (std::size_t i = 0; i < unique.size(); ++i) unique_pos[unique[i]] = i;
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(by_unique[unique_pos[rep_of[i]]]);
  }

  std::size_t failed = 0;
  std::size_t retried = 0;
  for (const JobResult& r : results) {
    if (r.status == JobStatus::kFailed) ++failed;
    if (r.status == JobStatus::kRetriedOk) ++retried;
  }
  std::uint64_t stack_passes = 0;
  std::uint64_t stack_hits = 0;
  std::uint64_t direct_finishes = 0;
  std::uint64_t degraded_groups = degraded_families;
  for (const GroupDone& gd : finished) {
    if (gd.stack_pass) {
      ++stack_passes;
      stack_hits += gd.size;
    } else {
      direct_finishes += gd.size;
    }
    if (gd.degraded) ++degraded_groups;
  }

  if (wopt.metrics != nullptr && sh != nullptr) {
    wopt.metrics->merge_from(sh->merged());
    wopt.metrics->add(obs::metric_names::kRunnerJobs, jobs.size());
    wopt.metrics->add(obs::metric_names::kRunnerDedupHits,
                      jobs.size() - unique.size());
    wopt.metrics->set_gauge(obs::metric_names::kRunnerThreads,
                            static_cast<double>(runner.threads()));
    wopt.metrics->add(obs::metric_names::kSweepGroups, groups.size());
    wopt.metrics->add(obs::metric_names::kSweepStackPasses, stack_passes);
    wopt.metrics->add(obs::metric_names::kSweepStackHits, stack_hits);
    wopt.metrics->add(obs::metric_names::kSweepGraphPasses, graph_passes);
    wopt.metrics->add(obs::metric_names::kSweepGraphHits, graph_hits);
    wopt.metrics->add(obs::metric_names::kSweepFallbackConfigs,
                      direct_finishes);
    wopt.metrics->add(obs::metric_names::kSweepDedupHits,
                      jobs.size() - unique.size());
    for (const GroupDone& gd : finished) {
      if (gd.stack_pass) {
        wopt.metrics->observe(obs::metric_names::kSweepConfigsPerPass,
                              static_cast<double>(gd.size));
      }
    }
    if (degraded_groups != 0) {
      wopt.metrics->add(obs::metric_names::kSweepDegradedGroups,
                        degraded_groups);
    }
    if (failed != 0) {
      wopt.metrics->add(obs::metric_names::kRunnerJobsFailed, failed);
    }
    if (retried != 0) {
      wopt.metrics->add(obs::metric_names::kRunnerJobsRetried, retried);
    }
    const std::uint64_t fired = fault::stats().fires - faults_before.fires;
    if (fired != 0) {
      wopt.metrics->add(obs::metric_names::kFaultInjected, fired);
    }
  }

  if (bopt.fail_fast) {
    for (const JobResult& r : results) {
      if (r.status == JobStatus::kFailed) std::rethrow_exception(r.error);
    }
  } else if (wopt.check_artifacts) {
    // Degraded batches are reported, not thrown — same policy as
    // Workbench::run_jobs.
    check::CheckRunner chk(wopt.metrics);
    check::check_batch(report::batch_summary_of(results), chk);
  }
  return results;
}

}  // namespace casa::sim
