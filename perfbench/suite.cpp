// paper_suite and dse_sweep: in-process workloads over Workbench::evaluate
// and sim::SweepPlanner::run_jobs.
#include <algorithm>

#include "bench.hpp"
#include "casa/sim/sweep_planner.hpp"
#include "casa/workloads/workloads.hpp"
#include "layers.hpp"

namespace perfbench {

using casa::report::JobResult;
using casa::report::Outcome;

namespace {

/// A few allocation instances dominate paper_suite and their solve time
/// swings with the profile: across exec seeds g721@1024 takes 1.0-2.9 s
/// (0.5M-1.3M B&B nodes) and pegwit@1024 1.1k-7k generic ILP nodes. So
/// paper_suite always evaluates the default profile, EXPERIMENTS.md's, and
/// the run's seed orders its evaluate calls instead. A run makes one round
/// of Table 1 per this many seconds of --seconds, about the time one round
/// takes on a 4-CPU Xeon VM, so the work of a run is fixed by --seconds,
/// the same on both sides of a comparison.
constexpr double kSuiteSecondsPerRound = 8.0;
constexpr std::size_t kSweepProfiles = 2;
constexpr unsigned kSweepWorkers = 2;
/// Set-up repetitions before (and again after) the timed phase.
constexpr std::size_t kSuiteSetupReps = 12;
constexpr std::size_t kSweepSetupReps = 40;

/// One job of a run, bound to the Workbench of its profile.
struct PlannedJob {
  const Workbench* wb = nullptr;
  Job job;
  std::string label;
};

using BenchSet = std::vector<std::unique_ptr<Bench>>;

BenchSet build_set(const std::vector<std::string>& names, std::uint64_t seed,
                   casa::obs::Tracer* tracer = nullptr,
                   casa::obs::MetricsRegistry* reg = nullptr,
                   LayerTally* tally = nullptr) {
  BenchSet set;
  for (const std::string& n : names) {
    set.push_back(make_bench(n, seed, tracer, reg));
    if (tally != nullptr) {
      tally->profiled_blocks += set.back()->bench->execution().total_blocks;
    }
  }
  return set;
}

/// Set-up samples: `reps` builds of one profile's Workbenches (program
/// generation plus profiling), cycling through the run's profiles and,
/// one build each, through the CPUs. The last build of each profile stays
/// in `sets` for the timed phase.
std::vector<double> timed_setup(const std::vector<std::string>& names,
                                const std::vector<std::uint64_t>& seeds,
                                std::size_t reps, std::vector<BenchSet>& sets) {
  sets.resize(seeds.size());
  const CpuRotation cpus;
  std::vector<double> times;
  for (std::size_t rep = 0; rep < std::max(reps, seeds.size()); ++rep) {
    cpus.pin(rep);
    const std::size_t k = rep % seeds.size();
    sets[k].clear();
    const double t0 = now_s();
    sets[k] = build_set(names, seeds[k]);
    times.push_back(now_s() - t0);
  }
  return times;
}

/// Half the set-up samples are taken before the timed phase and half
/// after it, so one slow stretch of the run cannot move their median.
double setup_median(std::vector<double> before,
                    const std::vector<std::string>& names,
                    const std::vector<std::uint64_t>& seeds, std::size_t reps) {
  std::vector<BenchSet> discarded;
  const std::vector<double> after =
      timed_setup(names, seeds, reps, discarded);
  before.insert(before.end(), after.begin(), after.end());
  return median(before);
}

/// Runs `pass` once, then again while one more pass of the last one's
/// length still fits in `seconds`. Returns each pass's wall time.
template <class Pass>
std::vector<double> timed_passes(double seconds, Pass&& pass) {
  std::vector<double> times;
  const double start = now_s();
  do {
    const double t0 = now_s();
    pass();
    times.push_back(now_s() - t0);
  } while (now_s() - start + times.back() <= seconds);
  return times;
}

/// The first pass's outputs become the run's digests; every later pass
/// (and the traced pass) must repeat them exactly.
struct Outputs {
  std::vector<Outcome> first;

  void check(RunResult& r, const std::vector<std::string>& labels,
             const std::vector<JobResult>& results) {
    const bool is_first = first.empty();
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++r.attempted;
      if (!results[i].ok()) {
        r.fail(labels[i] + ": " + results[i].error_kind + ": " +
               results[i].message);
      } else if (!is_first && !(results[i].outcome == first[i])) {
        r.fail(labels[i] + ": differs between passes");
      }
    }
    if (!is_first) return;
    for (std::size_t i = 0; i < results.size(); ++i) {
      first.push_back(results[i].outcome);
      r.digests.push_back(labels[i] + '\t' + outcome_digest(first.back()));
    }
  }
};

/// Cross-checks every output (reference generation) or a seeded sample.
void cross_check_outputs(RunResult& r, const RunOptions& opt,
                         const std::vector<PlannedJob>& plan,
                         const std::vector<Outcome>& outcomes,
                         std::size_t sample) {
  CrossCheckStats stats;
  for (const std::size_t i :
       check_sample(std::min(plan.size(), outcomes.size()), opt, sample)) {
    const std::string why = cross_check(*plan[i].wb, plan[i].job, outcomes[i],
                                        opt.check_all, stats);
    if (!why.empty()) r.fail(plan[i].label + ": cross-check:" + why);
  }
  r.notes.push_back(
      "cross-checked " + std::to_string(stats.outputs) +
      " outputs (word replay, fresh evaluate); other exact engine agreed on " +
      std::to_string(stats.engine_checked) + ", skipped on " +
      std::to_string(stats.engine_skipped));
}

std::vector<std::string> labels_of(const std::vector<PlannedJob>& plan) {
  std::vector<std::string> labels;
  for (const PlannedJob& p : plan) labels.push_back(p.label);
  return labels;
}

std::vector<PlannedJob> plan_suite(const std::vector<std::string>& names,
                                   const std::vector<std::uint64_t>& seeds,
                                   const std::vector<BenchSet>& sets) {
  std::vector<PlannedJob> plan;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (std::size_t p = 0; p < names.size(); ++p) {
      for (const Job& j : paper_jobs(names[p])) {
        plan.push_back({sets[k][p]->bench.get(), j,
                        std::to_string(seeds[k]) + '/' + job_label(names[p], j)});
      }
    }
  }
  return plan;
}

/// A seeded order of `n` items.
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// Evaluates every planned job one call at a time, in `order`, the job at
/// plan index i of round `round` on CPU i + round, so each job's rounds
/// land on different CPUs; returns the results in plan order, records
/// each call's latency into `job_ms` (also in plan order) and, when
/// tracing, wraps each call in a span.
std::vector<JobResult> evaluate_all(const std::vector<PlannedJob>& plan,
                                    const std::vector<std::size_t>& order,
                                    std::size_t round,
                                    std::vector<double>* job_ms,
                                    casa::obs::Tracer* tracer = nullptr,
                                    LayerTally* tally = nullptr) {
  const CpuRotation cpus;
  std::vector<JobResult> results(plan.size());
  std::vector<double> ms(plan.size());
  for (const std::size_t i : order) {
    cpus.pin(i + round);
    const double t0 = now_s();
    {
      const casa::obs::TraceSpan span(tracer, "evaluate");
      results[i] = plan[i].wb->evaluate(plan[i].job);
    }
    ms[i] = (now_s() - t0) * 1e3;
    if (tally != nullptr) tally->computed(results[i]);
  }
  if (job_ms != nullptr) job_ms->insert(job_ms->end(), ms.begin(), ms.end());
  return results;
}

}  // namespace

RunResult run_paper_suite(const RunOptions& opt) {
  RunResult r;
  const std::vector<std::string> names = casa::workloads::names();
  const std::vector<std::uint64_t> profile{
      casa::report::WorkbenchOptions{}.exec_seed};
  Rng order_rng(opt.seed);
  Outputs outputs;

  if (opt.trace) {
    // One round, in the first round's order: the split of one experiment.
    std::vector<std::size_t> order;
    const auto pass = [&](casa::obs::Tracer* tracer,
                          casa::obs::MetricsRegistry* reg, LayerTally* tally) {
      const double t0 = now_s();
      const casa::obs::TraceSpan root(tracer, "paper_suite");
      std::vector<BenchSet> sets;
      sets.push_back(build_set(names, profile.front(), tracer, reg, tally));
      const std::vector<PlannedJob> plan = plan_suite(names, profile, sets);
      if (order.empty()) order = shuffled(plan.size(), order_rng);
      const std::vector<JobResult> results =
          evaluate_all(plan, order, 0, nullptr, tracer, tally);
      const double wall = now_s() - t0;
      outputs.check(r, labels_of(plan), results);
      return wall;
    };
    trace_layers(r, pass, 1);
    return r;
  }

  std::vector<BenchSet> sets;
  const std::vector<double> setup_s =
      timed_setup(names, profile, kSuiteSetupReps, sets);
  const std::vector<PlannedJob> plan = plan_suite(names, profile, sets);
  const std::vector<std::string> labels = labels_of(plan);
  // The first round grows the heap and touches fresh pages, which no later
  // round repeats; it is checked but not timed.
  outputs.check(r, labels,
                evaluate_all(plan, shuffled(plan.size(), order_rng), 0,
                             nullptr));
  const std::size_t rounds =
      std::max<std::size_t>(units_for(opt.seconds, kSuiteSecondsPerRound), 2) -
      1;
  std::vector<double> job_ms;
  std::vector<double> round_ms;
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::vector<std::size_t> order = shuffled(plan.size(), order_rng);
    const double t0 = now_s();
    const std::vector<JobResult> results =
        evaluate_all(plan, order, k + 1, &job_ms);
    round_ms.push_back((now_s() - t0) * 1e3);
    outputs.check(r, labels, results);
  }

  const double rss = self_peak_rss_mb();
  // Each of Table 1's jobs at its median over the timed rounds: a slow
  // stretch of the host moves one sample of a job, not the experiment.
  const std::vector<double> per_job = item_medians(job_ms, plan.size());
  double experiment_ms = 0.0;
  for (const double ms : per_job) experiment_ms += ms;
  r.add("setup_s", setup_median(setup_s, names, profile, kSuiteSetupReps),
        "s");
  r.add("wall_s", experiment_ms / 1e3, "s");
  r.add("peak_rss_mb", rss, "MiB");
  // The request is one round, the Table 1 experiment a user submits. The
  // per-call latencies are printed only: the typical call is a cache-bound
  // simulation that swings with the host far more than the experiment.
  r.add("req_p50_ms", percentile(round_ms, 0.50), "ms");
  r.add("req_p99_ms", percentile(round_ms, 0.99), "ms");
  std::string rounds_ms;
  for (const double ms : round_ms) rounds_ms += ' ' + std::to_string(ms);
  r.notes.push_back("warm-up and " + std::to_string(rounds) +
                    " timed rounds of " + std::to_string(plan.size()) +
                    " evaluate calls (ms:" + rounds_ms +
                    "); per-job median call p50 " +
                    std::to_string(percentile(per_job, 0.5)) +
                    " ms, slowest " + std::to_string(percentile(per_job, 1.0)) +
                    " ms");
  cross_check_outputs(r, opt, plan, outputs.first, 3);
  return r;
}

namespace {

/// The sweep grid over mpeg: line x I-cache size x associativity x SPM size
/// x {CASA, Steinke}, plus one cache-only job per geometry.
std::vector<Job> sweep_jobs() {
  std::vector<Job> jobs;
  for (const casa::Bytes line : {16u, 32u}) {
    for (const casa::Bytes kib : {1u, 2u, 4u, 8u}) {
      for (const unsigned assoc : {1u, 2u, 4u}) {
        casa::cachesim::CacheConfig c;
        c.size = kib * 1024;
        c.line_size = line;
        c.associativity = assoc;
        for (const casa::Bytes spm : {256u, 512u, 1024u}) {
          jobs.push_back(Job::casa_job(c, spm));
          jobs.push_back(Job::steinke_job(c, spm));
        }
        jobs.push_back(Job::cache_only_job(c));
      }
    }
  }
  return jobs;
}

/// One sweep per profile, each a single fail-soft SweepPlanner batch.
std::vector<JobResult> sweep_all(const std::vector<BenchSet>& sets,
                                 const std::vector<Job>& jobs,
                                 std::vector<double>* sweep_ms = nullptr,
                                 casa::obs::Tracer* tracer = nullptr) {
  casa::report::BatchOptions bopt;
  bopt.threads = kSweepWorkers;
  bopt.fail_fast = false;
  std::vector<JobResult> all;
  for (const BenchSet& set : sets) {
    const double t0 = now_s();
    std::vector<JobResult> results;
    {
      const casa::obs::TraceSpan span(tracer, "run_jobs");
      results = casa::sim::SweepPlanner(*set.front()->bench).run_jobs(jobs, bopt);
    }
    if (sweep_ms != nullptr) sweep_ms->push_back((now_s() - t0) * 1e3);
    all.insert(all.end(), results.begin(), results.end());
  }
  return all;
}

std::vector<PlannedJob> plan_sweep(const std::vector<std::uint64_t>& seeds,
                                   const std::vector<BenchSet>& sets,
                                   const std::vector<Job>& jobs) {
  std::vector<PlannedJob> plan;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (const Job& j : jobs) {
      plan.push_back({sets[k].front()->bench.get(), j,
                      std::to_string(seeds[k]) + '/' + job_label("mpeg", j)});
    }
  }
  return plan;
}

}  // namespace

RunResult run_dse_sweep(const RunOptions& opt) {
  RunResult r;
  const std::vector<std::string> names{"mpeg"};
  const std::vector<std::uint64_t> seeds = run_seeds(opt.seed, kSweepProfiles);
  const std::vector<Job> jobs = sweep_jobs();
  Outputs outputs;

  if (opt.trace) {
    const auto pass = [&](casa::obs::Tracer* tracer,
                          casa::obs::MetricsRegistry* reg, LayerTally* tally) {
      const double t0 = now_s();
      const casa::obs::TraceSpan root(tracer, "dse_sweep");
      std::vector<BenchSet> sets;
      for (const std::uint64_t s : seeds) {
        sets.push_back(build_set(names, s, tracer, reg, tally));
      }
      const std::vector<JobResult> results =
          sweep_all(sets, jobs, nullptr, tracer);
      const double wall = now_s() - t0;
      outputs.check(r, labels_of(plan_sweep(seeds, sets, jobs)), results);
      // The grid has no repeated point, so every result was computed.
      if (tally != nullptr) {
        for (const JobResult& res : results) tally->computed(res);
      }
      return wall;
    };
    trace_layers(r, pass, kSweepWorkers);
    return r;
  }

  std::vector<BenchSet> sets;
  const std::vector<double> setup_s =
      timed_setup(names, seeds, kSweepSetupReps, sets);
  const std::vector<PlannedJob> plan = plan_sweep(seeds, sets, jobs);
  const std::vector<std::string> labels = labels_of(plan);
  std::vector<double> sweep_ms;
  const std::vector<double> passes = timed_passes(opt.seconds, [&] {
    outputs.check(r, labels, sweep_all(sets, jobs, &sweep_ms));
  });

  const double rss = self_peak_rss_mb();
  r.add("setup_s", setup_median(setup_s, names, seeds, kSweepSetupReps), "s");
  r.add("wall_s", median(sweep_ms) / 1e3, "s");
  r.add("peak_rss_mb", rss, "MiB");
  r.add("req_p50_ms", percentile(sweep_ms, 0.50), "ms");
  r.add("req_p99_ms", percentile(sweep_ms, 0.99), "ms");
  r.notes.push_back(std::to_string(passes.size()) + " passes over " +
                    std::to_string(seeds.size()) + " profiles; " +
                    std::to_string(sweep_ms.size()) + " sweep samples");
  cross_check_outputs(r, opt, plan, outputs.first, 4);
  return r;
}

}  // namespace perfbench
