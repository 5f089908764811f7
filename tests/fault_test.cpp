// Fault-injection suite: the casa::fault framework and the containment
// contract it exists to prove.
//
// Three layers. Unit tests pin the spec grammar, arming validation, arg
// targeting, hit windows, fire budgets, the seeded probability coin, the
// deterministic corrupt action, and run_with_retry. Artifact tests drive
// obs::write_artifact_guarded through every action and assert that a
// retried or corrupted write still commits a clean payload. The matrix
// tests inject at every simulation/solver/sweep site through
// Workbench::evaluate_batch and hold the isolation invariant: the targeted
// job fails (or retries) alone, every other job's Outcome is bit-identical
// to a fault-free run, for any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/export.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/report/workbench.hpp"
#include "casa/support/error.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa {
namespace {

using report::BatchOptions;
using report::JobResult;
using report::JobStatus;
using report::Outcome;
using report::Workbench;
using Job = Workbench::Job;
namespace sites = fault::site_names;

/// Armed specs are process-global: every test disarms on the way out so a
/// failing assertion cannot poison its neighbours.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm();
    fault::set_injection_hook(nullptr);
    obs::Tracer::set_current(nullptr);
  }
};

cachesim::CacheConfig cache_cfg(
    Bytes size, unsigned assoc = 1,
    cachesim::ReplacementPolicy policy = cachesim::ReplacementPolicy::kLru) {
  cachesim::CacheConfig cfg;
  cfg.size = size;
  cfg.line_size = 16;
  cfg.associativity = assoc;
  cfg.policy = policy;
  return cfg;
}

const prog::Program& adpcm() {
  static const prog::Program program = workloads::by_name("adpcm");
  return program;
}

const Workbench& bench() {
  static const Workbench b(adpcm());
  return b;
}

/// Job 0 is the injection target (specs pin arg=0); jobs 1 and 2 are the
/// bystanders whose outcomes must not move.
std::vector<Job> matrix_jobs() {
  std::vector<Job> jobs;
  jobs.push_back(Job::casa_job(cache_cfg(128), 256));
  jobs.push_back(Job::casa_job(cache_cfg(256), 256));
  jobs.push_back(Job::cache_only_job(cache_cfg(256, 2)));
  return jobs;
}

void expect_outcome_eq(const Outcome& a, const Outcome& b, std::size_t i) {
  const memsim::SimCounters& x = a.sim.counters;
  const memsim::SimCounters& y = b.sim.counters;
  EXPECT_EQ(x.total_fetches, y.total_fetches) << "job " << i;
  EXPECT_EQ(x.spm_accesses, y.spm_accesses) << "job " << i;
  EXPECT_EQ(x.cache_accesses, y.cache_accesses) << "job " << i;
  EXPECT_EQ(x.cache_hits, y.cache_hits) << "job " << i;
  EXPECT_EQ(x.cache_misses, y.cache_misses) << "job " << i;
  EXPECT_EQ(x.cache_evictions, y.cache_evictions) << "job " << i;
  EXPECT_EQ(x.mainmem_words, y.mainmem_words) << "job " << i;
  EXPECT_EQ(x.cycles, y.cycles) << "job " << i;
  EXPECT_EQ(a.sim.total_energy, b.sim.total_energy) << "job " << i;
  EXPECT_EQ(a.object_count, b.object_count) << "job " << i;
  EXPECT_EQ(a.spm_used, b.spm_used) << "job " << i;
  ASSERT_EQ(a.flow(), b.flow()) << "job " << i;
  if (a.flow() == report::FlowKind::kCasa) {
    EXPECT_EQ(a.alloc().on_spm, b.alloc().on_spm) << "job " << i;
    EXPECT_EQ(a.alloc().used_bytes, b.alloc().used_bytes) << "job " << i;
  }
}

std::string spec_for(std::string_view site, std::string_view action,
                     const std::string& extras = "") {
  std::string s = "site=" + std::string(site) + ",action=" +
                  std::string(action);
  if (!extras.empty()) s += "," + extras;
  return s;
}

// ---------------------------------------------------------------- grammar

TEST_F(FaultTest, ParsesTheSpecGrammar) {
  const fault::FaultSpec spec = fault::parse_spec(
      "seed=7;site=fault.solver.allocate,action=transient,arg=3,hits=2,"
      "count=4,delay_us=50,p=0.25;site=fault.sim.finish");
  EXPECT_EQ(spec.seed, 7u);
  ASSERT_EQ(spec.sites.size(), 2u);
  const fault::SiteSpec& s0 = spec.sites[0];
  EXPECT_EQ(s0.site, "fault.solver.allocate");
  EXPECT_EQ(s0.action, fault::Action::kTransient);
  EXPECT_EQ(s0.arg, 3u);
  EXPECT_EQ(s0.hits_from, 2u);
  EXPECT_EQ(s0.max_fires, 4u);
  EXPECT_EQ(s0.delay_us, 50u);
  EXPECT_DOUBLE_EQ(s0.probability, 0.25);
  // Clause two keeps every default: throw, any arg, first hit, no budget.
  const fault::SiteSpec& s1 = spec.sites[1];
  EXPECT_EQ(s1.site, "fault.sim.finish");
  EXPECT_EQ(s1.action, fault::Action::kThrow);
  EXPECT_EQ(s1.arg, fault::kAnyArg);
  EXPECT_EQ(s1.hits_from, 1u);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parse_spec(""), PreconditionError);
  EXPECT_THROW(fault::parse_spec("seed=3"), PreconditionError);  // no sites
  EXPECT_THROW(fault::parse_spec("action=throw"), PreconditionError);
  EXPECT_THROW(fault::parse_spec("site=fault.sim.finish,bogus=1"),
               PreconditionError);
  EXPECT_THROW(fault::parse_spec("site=fault.sim.finish,action=explode"),
               PreconditionError);
  EXPECT_THROW(fault::parse_spec("site=fault.sim.finish,arg=4x"),
               PreconditionError);
}

TEST_F(FaultTest, ArmRejectsUnregisteredSitesAndDeadClauses) {
  EXPECT_THROW(fault::arm(fault::parse_spec("site=fault.no.such_site")),
               PreconditionError);
  EXPECT_THROW(fault::arm(fault::parse_spec("site=fault.sim.finish,hits=0")),
               PreconditionError);
  EXPECT_THROW(fault::arm(fault::parse_spec("site=fault.sim.finish,count=0")),
               PreconditionError);
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::armed_site_count(), 0u);
}

// --------------------------------------------------------------- behaviour

TEST_F(FaultTest, DisarmedSitesAreNoOps) {
  fault::disarm();
  EXPECT_NO_THROW(fault::at(sites::kSimPrepare));
  std::string payload = "payload";
  EXPECT_FALSE(fault::corrupt_payload(sites::kIoMetricsWrite, payload));
  EXPECT_EQ(payload, "payload");
}

TEST_F(FaultTest, FiresOnlyForTheMatchingArg) {
  fault::arm(fault::parse_spec(spec_for(sites::kSimPrepare, "throw", "arg=3")));
  EXPECT_EQ(fault::armed_site_count(), 1u);
  EXPECT_NO_THROW(fault::at(sites::kSimPrepare));  // no arg bound
  {
    const fault::ScopedArg outer(2);
    EXPECT_NO_THROW(fault::at(sites::kSimPrepare));
    {
      const fault::ScopedArg inner(3);
      EXPECT_EQ(fault::current_arg(), 3u);
      EXPECT_THROW(fault::at(sites::kSimPrepare), fault::FaultError);
    }
    // Nested scopes restore the previous binding.
    EXPECT_EQ(fault::current_arg(), 2u);
    EXPECT_NO_THROW(fault::at(sites::kSimPrepare));
  }
  EXPECT_THROW(fault::at(sites::kSimPrepare, 3), fault::FaultError);
  EXPECT_NO_THROW(fault::at(sites::kSimFinish, 3));  // other sites untouched
  try {
    fault::at(sites::kSimPrepare, 3);
    FAIL() << "expected FaultError";
  } catch (const fault::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find(sites::kSimPrepare),
              std::string::npos);
  }
}

TEST_F(FaultTest, HonoursHitWindowAndFireBudget) {
  fault::arm(fault::parse_spec(
      spec_for(sites::kSimPrepare, "throw", "hits=2,count=1")));
  EXPECT_NO_THROW(fault::at(sites::kSimPrepare));          // hit 1: windowed out
  EXPECT_THROW(fault::at(sites::kSimPrepare), fault::FaultError);  // hit 2
  EXPECT_NO_THROW(fault::at(sites::kSimPrepare));          // budget exhausted
  const fault::InjectorStats st = fault::stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.fires, 1u);
  EXPECT_EQ(st.throws_, 1u);
}

TEST_F(FaultTest, TransientAndDelayActions) {
  fault::arm(fault::parse_spec(spec_for(sites::kSimFinish, "transient")));
  try {
    fault::at(sites::kSimFinish);
    FAIL() << "expected TransientError";
  } catch (const fault::TransientError&) {
  }
  fault::arm(fault::parse_spec(
      spec_for(sites::kSimFinish, "delay", "delay_us=1,count=2")));
  EXPECT_NO_THROW(fault::at(sites::kSimFinish));
  EXPECT_NO_THROW(fault::at(sites::kSimFinish));
  EXPECT_EQ(fault::stats().delays, 2u);
}

TEST_F(FaultTest, ProbabilityCoinIsSeededAndDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    std::string spec = spec_for(sites::kSolverAllocate, "throw", "p=0.4");
    spec += ";seed=" + std::to_string(seed);
    fault::arm(fault::parse_spec(spec));
    std::vector<bool> fired;
    for (std::uint64_t arg = 0; arg < 64; ++arg) {
      bool f = false;
      try {
        fault::at(sites::kSolverAllocate, arg);
      } catch (const fault::FaultError&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  const std::vector<bool> a = pattern(11);
  const std::vector<bool> b = pattern(11);
  EXPECT_EQ(a, b);  // same seed, same visit sequence -> same coins
  std::size_t fires = 0;
  for (const bool f : a) fires += f ? 1u : 0u;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  EXPECT_NE(a, pattern(12345));  // a different seed moves the pattern
}

TEST_F(FaultTest, CorruptPayloadIsDeterministic) {
  const std::string original = "0123456789abcdef0123456789abcdef";
  const auto corrupted = [&original]() {
    fault::arm(fault::parse_spec(spec_for(sites::kIoMetricsWrite, "corrupt")));
    std::string payload = original;
    EXPECT_TRUE(fault::corrupt_payload(sites::kIoMetricsWrite, payload));
    return payload;
  };
  const std::string a = corrupted();
  EXPECT_NE(a, original);
  EXPECT_EQ(a.size(), original.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diffs += a[i] != original[i];
  EXPECT_EQ(diffs, 1u);  // a single deterministic byte flip
  EXPECT_EQ(a, corrupted());
  EXPECT_EQ(fault::stats().corrupts, 1u);
}

TEST_F(FaultTest, RunWithRetryRetriesTransientsOnly) {
  fault::RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_us = 1;

  unsigned calls = 0;
  EXPECT_EQ(fault::run_with_retry(policy, [&] { ++calls; }), 1u);
  EXPECT_EQ(calls, 1u);

  calls = 0;
  std::vector<unsigned> retried;
  const unsigned attempts = fault::run_with_retry(
      policy,
      [&] {
        if (++calls < 3) throw fault::TransientError("flaky");
      },
      [&](unsigned attempt) { retried.push_back(attempt); });
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(retried, (std::vector<unsigned>{1, 2}));

  calls = 0;
  EXPECT_THROW(fault::run_with_retry(
                   policy, [&] { ++calls; throw fault::TransientError("x"); }),
               fault::TransientError);
  EXPECT_EQ(calls, 3u);  // initial attempt + max_retries

  calls = 0;
  EXPECT_THROW(
      fault::run_with_retry(policy, [&] { ++calls; throw Error("fatal"); }),
      Error);
  EXPECT_EQ(calls, 1u);  // non-transients propagate immediately
}

// ----------------------------------------------------------- artifact I/O

TEST_F(FaultTest, GuardedWriteSurvivesTransientAndCorruption) {
  const auto render = [](std::ostream& os) { os << "{\"v\":1}\n"; };
  std::ostringstream clean;
  EXPECT_EQ(obs::write_artifact_guarded(clean, sites::kIoMetricsWrite, render),
            1u);

  fault::RetryPolicy policy;
  policy.backoff_us = 1;

  // A transient with a one-fire budget fails the first attempt and lets the
  // retry commit; the payload that lands is the clean one.
  fault::arm(fault::parse_spec(
      spec_for(sites::kIoMetricsWrite, "transient", "count=1")));
  std::ostringstream retried;
  EXPECT_EQ(obs::write_artifact_guarded(retried, sites::kIoMetricsWrite,
                                        render, policy),
            2u);
  EXPECT_EQ(retried.str(), clean.str());

  // Corruption is detected before the sink sees a byte, classified as
  // transient, and retried clean.
  fault::arm(fault::parse_spec(
      spec_for(sites::kIoMetricsWrite, "corrupt", "count=1")));
  std::ostringstream healed;
  EXPECT_EQ(obs::write_artifact_guarded(healed, sites::kIoMetricsWrite, render,
                                        policy),
            2u);
  EXPECT_EQ(healed.str(), clean.str());
  EXPECT_EQ(fault::stats().corrupts, 1u);

  // Delay perturbs, never retries; a permanent throw propagates after the
  // budget outlasts the policy.
  fault::arm(fault::parse_spec(
      spec_for(sites::kIoTraceWrite, "delay", "delay_us=1")));
  std::ostringstream delayed;
  EXPECT_EQ(obs::write_artifact_guarded(delayed, sites::kIoTraceWrite, render,
                                        policy),
            1u);
  EXPECT_EQ(delayed.str(), clean.str());

  fault::arm(fault::parse_spec(spec_for(sites::kIoCheckWrite, "throw")));
  std::ostringstream failed;
  EXPECT_THROW(obs::write_artifact_guarded(failed, sites::kIoCheckWrite,
                                           render, policy),
               fault::FaultError);
  EXPECT_TRUE(failed.str().empty());
}

// ------------------------------------------------------------ fault matrix

TEST_F(FaultTest, MatrixEverySimSiteIsolatesTheTargetedJob) {
  const std::vector<Job> jobs = matrix_jobs();
  BatchOptions bopt;
  bopt.threads = 2;
  bopt.fail_fast = false;
  bopt.max_retries = 1;
  bopt.retry_backoff_us = 1;
  const std::vector<JobResult> base = bench().evaluate_batch(jobs, bopt);
  ASSERT_EQ(base.size(), jobs.size());
  for (const JobResult& r : base) ASSERT_TRUE(r.ok());

  const std::string_view matrix_sites[] = {
      sites::kSimPrepare, sites::kSimFinish, sites::kSolverAllocate};
  for (const std::string_view site : matrix_sites) {
    for (const std::string_view action : {"throw", "transient", "delay"}) {
      SCOPED_TRACE(std::string(site) + " / " + std::string(action));
      fault::arm(fault::parse_spec(
          spec_for(site, action, "arg=0,count=1,delay_us=1")));
      const std::vector<JobResult> got = bench().evaluate_batch(jobs, bopt);
      fault::disarm();
      ASSERT_EQ(got.size(), base.size());
      // Bystanders are bit-identical to the fault-free run in every cell.
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].ok());
        EXPECT_EQ(got[i].status, JobStatus::kOk);
        expect_outcome_eq(got[i].outcome, base[i].outcome, i);
      }
      if (action == std::string_view("throw")) {
        EXPECT_EQ(got[0].status, JobStatus::kFailed);
        EXPECT_EQ(got[0].error_kind, "fault");
        EXPECT_NE(got[0].message.find(site), std::string::npos);
        EXPECT_EQ(got[0].attempts, 1u);
      } else if (action == std::string_view("transient")) {
        EXPECT_EQ(got[0].status, JobStatus::kRetriedOk);
        EXPECT_EQ(got[0].attempts, 2u);
        expect_outcome_eq(got[0].outcome, base[0].outcome, 0);
      } else {
        EXPECT_EQ(got[0].status, JobStatus::kOk);
        expect_outcome_eq(got[0].outcome, base[0].outcome, 0);
      }
    }
  }
}

TEST_F(FaultTest, FailFastBatchRethrowsTheInjectedFault) {
  fault::arm(fault::parse_spec(
      spec_for(sites::kSolverAllocate, "throw", "arg=0")));
  BatchOptions fail_fast;
  fail_fast.threads = 2;
  EXPECT_THROW(bench().evaluate_batch(matrix_jobs(), fail_fast),
               fault::FaultError);
}

TEST_F(FaultTest, BatchMetricsCountFailuresRetriesAndInjections) {
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench instrumented(adpcm(), wopt);
  BatchOptions bopt;
  bopt.threads = 2;
  bopt.fail_fast = false;
  bopt.max_retries = 1;
  bopt.retry_backoff_us = 1;

  fault::arm(fault::parse_spec(
      spec_for(sites::kSimPrepare, "throw", "arg=0,count=1") + ";" +
      spec_for(sites::kSimFinish, "transient", "arg=1,count=1")));
  const std::vector<JobResult> got =
      instrumented.evaluate_batch(matrix_jobs(), bopt);
  EXPECT_EQ(got[0].status, JobStatus::kFailed);
  EXPECT_EQ(got[1].status, JobStatus::kRetriedOk);
  EXPECT_EQ(got[2].status, JobStatus::kOk);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("runner.jobs_failed"), 1u);
  EXPECT_EQ(snap.counters.at("runner.jobs_retried"), 1u);
  EXPECT_EQ(snap.counters.at("fault.injected"), 2u);
  // The failed job's shard never merges: a batch with a dead job reports
  // the partial-failure check rule instead of silently thin counters.
  EXPECT_GE(snap.counters.at("check.diagnostics"), 1u);
}

TEST_F(FaultTest, TraceHookEmitsInjectionAndRetryInstants) {
  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  obs::install_fault_trace_hook();
  fault::arm(fault::parse_spec(
      spec_for(sites::kSimFinish, "transient", "arg=0,count=1")));
  BatchOptions bopt;
  bopt.threads = 1;
  bopt.fail_fast = false;
  bopt.max_retries = 1;
  bopt.retry_backoff_us = 1;
  const std::vector<JobResult> got =
      bench().evaluate_batch(matrix_jobs(), bopt);
  obs::Tracer::set_current(nullptr);
  EXPECT_EQ(got[0].status, JobStatus::kRetriedOk);

  std::uint64_t injected = 0, retries = 0;
  for (const obs::TraceEvent& e : tracer.drain().events) {
    if (e.kind != obs::TraceEventKind::kInstant) continue;
    if (e.name == obs::trace_names::kFaultInjected) ++injected;
    if (e.name == obs::trace_names::kRunnerRetry) ++retries;
  }
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(retries, 1u);
}

// ------------------------------------------------------------ sweep engine

/// Two stack-eligible LRU families. The stream key ignores cache size and
/// associativity (one stack pass serves the whole sets x assoc family), so
/// the second family needs a different line size to form its own group:
/// jobs 0-3 (line 16) share one fetch stream — the faulted group, with
/// rep_job = 0 — and jobs 4-6 (line 32) the other, three members so that it
/// still earns a stack pass of its own.
std::vector<Job> sweep_jobs() {
  std::vector<Job> jobs;
  for (const Bytes size : {128u, 256u, 512u, 1024u}) {
    jobs.push_back(Job::cache_only_job(cache_cfg(size, 1)));
  }
  for (const Bytes size : {256u, 512u, 1024u}) {
    cachesim::CacheConfig wide = cache_cfg(size, 2);
    wide.line_size = 32;
    jobs.push_back(Job::cache_only_job(wide));
  }
  return jobs;
}

TEST_F(FaultTest, SweepDegradesTheFaultedGroupAndKeepsResults) {
  const std::vector<Job> jobs = sweep_jobs();
  BatchOptions bopt;
  bopt.threads = 2;
  bopt.fail_fast = false;
  bopt.retry_backoff_us = 1;

  // Fault-free baseline on the uninstrumented bench: metrics never change
  // outcomes, so it doubles as the reference for the instrumented run.
  const std::vector<JobResult> base = bench().evaluate_batch(jobs, bopt);
  for (const JobResult& r : base) ASSERT_TRUE(r.ok());

  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench instrumented(adpcm(), wopt);

  // A permanent fault in group 0's shared stack pass degrades that group to
  // per-member direct finishes — same outcomes, one degraded-group mark.
  fault::arm(fault::parse_spec(
      spec_for(sites::kSweepStackPass, "throw", "arg=0")));
  const std::vector<JobResult> got = instrumented.evaluate_batch(jobs, bopt);
  fault::disarm();
  ASSERT_EQ(got.size(), base.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << "job " << i;
    expect_outcome_eq(got[i].outcome, base[i].outcome, i);
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("sweep.degraded_groups"), 1u);
  EXPECT_EQ(snap.counters.at("sweep.stack_passes"), 1u);  // group 1 still did
  EXPECT_EQ(snap.counters.at("fault.injected"), 1u);
  EXPECT_EQ(snap.counters.count("runner.jobs_failed"), 0u);
}

TEST_F(FaultTest, SweepFailFastStillThrowsInjectedFaults) {
  fault::arm(fault::parse_spec(
      spec_for(sites::kSweepStackPass, "throw", "arg=0")));
  BatchOptions bopt;
  bopt.threads = 2;
  EXPECT_THROW(bench().evaluate_batch(sweep_jobs(), bopt), fault::FaultError);
}

TEST_F(FaultTest, SweepUnderFaultIsThreadCountInvariant) {
  const std::vector<Job> jobs = sweep_jobs();
  BatchOptions bopt;
  bopt.fail_fast = false;
  bopt.retry_backoff_us = 1;

  const auto run_at = [&](unsigned threads) {
    fault::arm(fault::parse_spec(
        spec_for(sites::kSweepStackPass, "throw", "arg=0")));
    bopt.threads = threads;
    const std::vector<JobResult> r = bench().evaluate_batch(jobs, bopt);
    fault::disarm();
    return r;
  };
  const std::vector<JobResult> one = run_at(1);
  for (const unsigned threads : {2u, 8u}) {
    const std::vector<JobResult> many = run_at(threads);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i].status, one[i].status) << "job " << i;
      ASSERT_TRUE(many[i].ok()) << "job " << i;
      expect_outcome_eq(many[i].outcome, one[i].outcome, i);
    }
  }
}

}  // namespace
}  // namespace casa
