// Evaluation-service suite: the content-addressed result cache and the
// request scheduler behind casa_serve.
//
// Key tests pin the canonicalization contract (two jobs share a key iff
// the pipeline provably produces bit-identical Outcomes: flow-ignored
// fields are dropped, profiling knobs and workload split the space).
// Cache tests pin LRU eviction under the byte budget. Service tests pin
// single-flight coalescing (deterministically via duplicate batches,
// concurrently via 8 threads against a delayed compute), persistence
// round-trips with corrupted-artifact degradation, admission/cache-load
// fault containment, backpressure rejection, and sampled-hit
// verification catching a poisoned cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/report/workbench.hpp"
#include "casa/support/error.hpp"
#include "casa/svc/protocol.hpp"
#include "casa/svc/result_cache.hpp"
#include "casa/svc/service.hpp"

namespace casa {
namespace {

using report::FlowKind;
using report::JobStatus;
using Job = report::Workbench::Job;
namespace sites = fault::site_names;

constexpr const char* kWorkload = "adpcm";

cachesim::CacheConfig small_cache() {
  cachesim::CacheConfig c;
  c.size = 1024;
  c.line_size = 16;
  c.associativity = 2;
  return c;
}

svc::KeyContext ctx_for(const std::string& workload = kWorkload) {
  svc::KeyContext ctx;
  ctx.workload = workload;
  return ctx;
}

/// Armed specs are process-global: every service test disarms on the way
/// out so a failure cannot leak an armed spec into later tests.
class SvcFaultTest : public ::testing::Test {
 protected:
  ~SvcFaultTest() override { fault::disarm(); }
};

std::string spec_for(std::string_view site, const std::string& rest) {
  return "site=" + std::string(site) + "," + rest;
}

// ---------------------------------------------------------------- keys --

TEST(ResultKeyTest, EqualJobsShareAKey) {
  const auto cache = small_cache();
  EXPECT_EQ(svc::result_key(ctx_for(), Job::casa_job(cache, 512)),
            svc::result_key(ctx_for(), Job::casa_job(cache, 512)));
  EXPECT_TRUE(svc::result_key(ctx_for(), Job::casa_job(cache, 512))
                  .starts_with("casa-result-key v1|"));
}

TEST(ResultKeyTest, EveryMeaningfulFieldSplitsTheKeySpace) {
  const auto cache = small_cache();
  const std::string base = svc::result_key(ctx_for(), Job::casa_job(cache, 512));
  EXPECT_NE(base, svc::result_key(ctx_for(), Job::casa_job(cache, 256)));
  EXPECT_NE(base, svc::result_key(ctx_for(), Job::steinke_job(cache, 512)));
  auto other_cache = cache;
  other_cache.size = 2048;
  EXPECT_NE(base, svc::result_key(ctx_for(), Job::casa_job(other_cache, 512)));
  core::CasaOptions greedy;
  greedy.engine = core::CasaEngine::kGreedy;
  EXPECT_NE(base,
            svc::result_key(ctx_for(), Job::casa_job(cache, 512, greedy)));
  EXPECT_NE(base, svc::result_key(ctx_for("g721"), Job::casa_job(cache, 512)));
  auto seeded = ctx_for();
  seeded.exec_seed = 7;
  EXPECT_NE(base, svc::result_key(seeded, Job::casa_job(cache, 512)));
  auto fused = ctx_for();
  fused.fuse_ratio = 0.25;
  EXPECT_NE(base, svc::result_key(fused, Job::casa_job(cache, 512)));
}

TEST(ResultKeyTest, FlowIgnoredFieldsAreNormalizedAway) {
  const auto cache = small_cache();

  // cache-only ignores capacity, regions, and every solver option.
  Job cache_only = Job::cache_only_job(cache);
  Job decorated = cache_only;
  decorated.size = 4096;
  decorated.max_regions = 9;
  decorated.casa.engine = core::CasaEngine::kGreedy;
  EXPECT_EQ(svc::result_key(ctx_for(), cache_only),
            svc::result_key(ctx_for(), decorated));

  // Steinke ignores solver options and the region budget.
  Job steinke = Job::steinke_job(cache, 512);
  Job steinke_decorated = steinke;
  steinke_decorated.max_regions = 9;
  steinke_decorated.casa.max_nodes = 1;
  EXPECT_EQ(svc::result_key(ctx_for(), steinke),
            svc::result_key(ctx_for(), steinke_decorated));

  // The loop-cache flow keeps its region budget but ignores solver options.
  Job lc = Job::loopcache_job(cache, 512, 4);
  Job lc_decorated = lc;
  lc_decorated.casa.ilp_threads = 5;
  EXPECT_EQ(svc::result_key(ctx_for(), lc),
            svc::result_key(ctx_for(), lc_decorated));
  EXPECT_NE(svc::result_key(ctx_for(), lc),
            svc::result_key(ctx_for(), Job::loopcache_job(cache, 512, 5)));

  // Steinke-move profiling only shapes the Steinke flow's key.
  auto moves_off = ctx_for();
  moves_off.steinke_moves = false;
  EXPECT_NE(svc::result_key(ctx_for(), steinke),
            svc::result_key(moves_off, steinke));
}

TEST(ResultKeyTest, DigestIsStableHexAndCollisionFreeHere) {
  const std::string a = svc::result_key(ctx_for(), Job::casa_job(small_cache(), 512));
  const std::string b = svc::result_key(ctx_for(), Job::casa_job(small_cache(), 256));
  EXPECT_EQ(svc::key_digest(a), svc::key_digest(a));
  EXPECT_NE(svc::key_digest(a), svc::key_digest(b));
  EXPECT_EQ(svc::key_digest(a).size(), 16u);
  EXPECT_EQ(svc::key_digest(a).find_first_not_of("0123456789abcdef"),
            std::string::npos);
}

// --------------------------------------------------------------- cache --

svc::CachedResult entry_of(std::size_t artifact_bytes) {
  svc::CachedResult value;
  value.artifact.assign(artifact_bytes, 'x');
  return value;
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Keys are 1 byte; artifacts 40 — two entries fit in 100 bytes, not 3.
  svc::ResultCache cache(100);
  cache.insert("a", entry_of(40));
  cache.insert("b", entry_of(40));
  EXPECT_EQ(cache.stats().entries, 2u);

  ASSERT_NE(cache.find("a"), nullptr);  // refresh: "b" is now the LRU entry
  cache.insert("c", entry_of(40));
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes, 82u);
}

TEST(ResultCacheTest, NewestEntrySurvivesEvenOverBudget) {
  svc::ResultCache cache(10);
  cache.insert("big", entry_of(500));
  EXPECT_NE(cache.find("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.insert("next", entry_of(500));  // evicts "big", keeps "next"
  EXPECT_EQ(cache.find("big"), nullptr);
  EXPECT_NE(cache.find("next"), nullptr);
}

TEST(ResultCacheTest, ReplaceAndClear) {
  svc::ResultCache cache(1000);
  cache.insert("k", entry_of(10));
  cache.insert("k", entry_of(20));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.find("k")->artifact.size(), 20u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
}

// ------------------------------------------------------------- service --

TEST(EvalServiceTest, MissThenHitReturnsBitIdenticalResult) {
  svc::EvalService service;
  const Job job = Job::steinke_job(small_cache(), 256);
  const svc::EvalResponse first = service.evaluate(kWorkload, job);
  ASSERT_TRUE(first.result.ok());
  EXPECT_EQ(first.provenance, svc::Provenance::kMiss);

  const svc::EvalResponse second = service.evaluate(kWorkload, job);
  ASSERT_TRUE(second.result.ok());
  EXPECT_EQ(second.provenance, svc::Provenance::kHit);
  EXPECT_TRUE(second.result.outcome == first.result.outcome);
  EXPECT_EQ(second.artifact, first.artifact);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
}

TEST(EvalServiceTest, FlushColdStartsTheCache) {
  svc::EvalService service;
  const Job job = Job::steinke_job(small_cache(), 256);
  ASSERT_TRUE(service.evaluate(kWorkload, job).result.ok());
  service.flush();
  const svc::EvalResponse again = service.evaluate(kWorkload, job);
  EXPECT_EQ(again.provenance, svc::Provenance::kMiss);
  EXPECT_EQ(service.stats().misses, 2u);
}

TEST(EvalServiceTest, DuplicateJobsInOneBatchCoalesceDeterministically) {
  svc::EvalService service;
  const Job dup = Job::steinke_job(small_cache(), 256);
  const Job other = Job::steinke_job(small_cache(), 512);
  const std::vector<Job> jobs = {dup, dup, dup, other};
  const auto responses = service.evaluate_batch(kWorkload, jobs);
  ASSERT_EQ(responses.size(), 4u);
  for (const auto& r : responses) ASSERT_TRUE(r.result.ok());
  EXPECT_EQ(responses[0].provenance, svc::Provenance::kMiss);
  EXPECT_EQ(responses[1].provenance, svc::Provenance::kInflightJoin);
  EXPECT_EQ(responses[2].provenance, svc::Provenance::kInflightJoin);
  EXPECT_EQ(responses[3].provenance, svc::Provenance::kMiss);
  EXPECT_TRUE(responses[1].result.outcome == responses[0].result.outcome);
  EXPECT_EQ(responses[2].artifact, responses[0].artifact);

  const auto stats = service.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inflight_joins, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SvcFaultTest, EightThreadsOneKeyComputeOnce) {
  // Delay the single compute 200ms so the seven followers provably arrive
  // while it is in flight and join instead of re-computing.
  fault::arm(fault::parse_spec(
      spec_for(sites::kSimFinish, "action=delay,delay_us=200000,count=1")));
  svc::EvalService service;
  const Job job = Job::steinke_job(small_cache(), 256);

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<svc::EvalResponse> responses(kThreads);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        responses[t] = service.evaluate(kWorkload, job);
      });
    }
  }

  for (const auto& r : responses) {
    ASSERT_TRUE(r.result.ok());
    EXPECT_TRUE(r.result.outcome == responses[0].result.outcome);
    EXPECT_EQ(r.artifact, responses[0].artifact);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.misses, 1u);  // single-flight: one computation total
  EXPECT_EQ(stats.hits + stats.inflight_joins, 7u);
  EXPECT_GE(stats.inflight_joins, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(EvalServiceTest, BackpressureRejectsWithRetryHint) {
  svc::ServiceOptions opt;
  opt.max_inflight = 0;  // every miss is over the admission limit
  opt.retry_after_ms = 7;
  svc::EvalService service(opt);
  const svc::EvalResponse resp =
      service.evaluate(kWorkload, Job::steinke_job(small_cache(), 256));
  EXPECT_TRUE(resp.rejected);
  EXPECT_EQ(resp.retry_after_ms, 7u);
  EXPECT_EQ(service.stats().rejections, 1u);
  EXPECT_EQ(service.stats().misses, 0u);
}

TEST(EvalServiceTest, UnknownWorkloadFailsTheResponseNotTheService) {
  svc::EvalService service;
  const svc::EvalResponse bad =
      service.evaluate("no_such_workload", Job::steinke_job(small_cache(), 256));
  EXPECT_FALSE(bad.result.ok());
  const svc::EvalResponse good =
      service.evaluate(kWorkload, Job::steinke_job(small_cache(), 256));
  EXPECT_TRUE(good.result.ok());
}

TEST(EvalServiceTest, PersistRoundTripServesAcrossServiceInstances) {
  const std::string dir = ::testing::TempDir() + "svc_persist_roundtrip";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions opt;
  opt.persist_dir = dir;
  const Job job = Job::steinke_job(small_cache(), 256);

  svc::EvalService writer(opt);
  const svc::EvalResponse computed = writer.evaluate(kWorkload, job);
  ASSERT_TRUE(computed.result.ok());
  EXPECT_EQ(computed.provenance, svc::Provenance::kMiss);

  svc::EvalService reader(opt);  // fresh process-equivalent, warm disk
  const svc::EvalResponse loaded = reader.evaluate(kWorkload, job);
  ASSERT_TRUE(loaded.result.ok());
  EXPECT_EQ(loaded.provenance, svc::Provenance::kHit);
  EXPECT_TRUE(loaded.result.outcome == computed.result.outcome);
  EXPECT_EQ(loaded.artifact, computed.artifact);
  EXPECT_EQ(reader.stats().persist_loads, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
}

TEST(EvalServiceTest, CorruptedPersistedArtifactDegradesToRecompute) {
  const std::string dir = ::testing::TempDir() + "svc_persist_corrupt";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions opt;
  opt.persist_dir = dir;
  const Job job = Job::steinke_job(small_cache(), 256);

  svc::EvalService writer(opt);
  const svc::EvalResponse computed = writer.evaluate(kWorkload, job);
  ASSERT_TRUE(computed.result.ok());

  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "{\"schema\":\"casa-result v1\", truncated";
  }

  svc::EvalService reader(opt);
  const svc::EvalResponse recomputed = reader.evaluate(kWorkload, job);
  ASSERT_TRUE(recomputed.result.ok());
  EXPECT_EQ(recomputed.provenance, svc::Provenance::kMiss);
  EXPECT_TRUE(recomputed.result.outcome == computed.result.outcome);
  EXPECT_EQ(reader.stats().persist_errors, 1u);
}

TEST(EvalServiceTest, StaleArtifactUnderAnotherKeysNameIsRejected) {
  const std::string dir = ::testing::TempDir() + "svc_persist_stale";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions opt;
  opt.persist_dir = dir;
  const Job written = Job::steinke_job(small_cache(), 256);
  const Job wanted = Job::steinke_job(small_cache(), 512);

  svc::EvalService writer(opt);
  ASSERT_TRUE(writer.evaluate(kWorkload, written).result.ok());

  // Plant the size-256 artifact at the file name the size-512 key hashes
  // to — a digest collision / stale-file stand-in. The loader re-derives
  // the key from the parsed job and must refuse to serve it.
  const std::string written_path =
      dir + "/" +
      svc::key_digest(svc::result_key(ctx_for(), written)) + ".json";
  const std::string wanted_path =
      dir + "/" + svc::key_digest(svc::result_key(ctx_for(), wanted)) + ".json";
  std::filesystem::copy_file(written_path, wanted_path);

  svc::EvalService reader(opt);
  const svc::EvalResponse resp = reader.evaluate(kWorkload, wanted);
  ASSERT_TRUE(resp.result.ok());
  EXPECT_EQ(resp.provenance, svc::Provenance::kMiss);
  EXPECT_EQ(resp.result.outcome.spm_used, 512u);
  EXPECT_EQ(reader.stats().persist_errors, 1u);
}

TEST_F(SvcFaultTest, AdmissionFaultFailsTheRequestNotTheService) {
  fault::arm(
      fault::parse_spec(spec_for(sites::kSvcAdmit, "action=throw,count=1")));
  svc::EvalService service;
  const Job job = Job::steinke_job(small_cache(), 256);
  const svc::EvalResponse faulted = service.evaluate(kWorkload, job);
  EXPECT_FALSE(faulted.result.ok());
  EXPECT_EQ(faulted.result.error_kind, "fault");
  const svc::EvalResponse after = service.evaluate(kWorkload, job);
  EXPECT_TRUE(after.result.ok());
  EXPECT_EQ(after.provenance, svc::Provenance::kMiss);
}

TEST_F(SvcFaultTest, CacheLoadFaultDegradesToRecompute) {
  const std::string dir = ::testing::TempDir() + "svc_persist_fault";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions opt;
  opt.persist_dir = dir;
  const Job job = Job::steinke_job(small_cache(), 256);
  svc::EvalService writer(opt);
  ASSERT_TRUE(writer.evaluate(kWorkload, job).result.ok());

  fault::arm(fault::parse_spec(
      spec_for(sites::kSvcCacheLoad, "action=throw,count=1")));
  svc::EvalService reader(opt);
  const svc::EvalResponse resp = reader.evaluate(kWorkload, job);
  ASSERT_TRUE(resp.result.ok());
  EXPECT_EQ(resp.provenance, svc::Provenance::kMiss);
  EXPECT_EQ(reader.stats().persist_errors, 1u);
  EXPECT_EQ(reader.stats().persist_loads, 0u);
}

TEST(EvalServiceTest, SampledHitVerificationPassesOnAnHonestCache) {
  svc::ServiceOptions opt;
  opt.verify_sample = 1;  // verify every hit
  svc::EvalService service(opt);
  const Job job = Job::steinke_job(small_cache(), 256);
  ASSERT_TRUE(service.evaluate(kWorkload, job).result.ok());
  const svc::EvalResponse hit = service.evaluate(kWorkload, job);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.provenance, svc::Provenance::kHit);
  EXPECT_EQ(service.stats().verified_hits, 1u);
}

TEST(EvalServiceTest, SampledHitVerificationCatchesAPoisonedCache) {
  const std::string dir = ::testing::TempDir() + "svc_persist_poison";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions opt;
  opt.persist_dir = dir;
  const Job job = Job::steinke_job(small_cache(), 256);
  {
    svc::EvalService writer(opt);
    ASSERT_TRUE(writer.evaluate(kWorkload, job).result.ok());
  }

  // Tamper with one counter in the persisted artifact, keeping it a valid
  // casa-result v1 file for the same job: the load succeeds, but the
  // sampled-hit recomputation must flag the mismatch.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = std::move(buf).str();
  }
  const std::string needle = "\"cycles\": ";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits = at + needle.size();
  std::size_t end = digits;
  while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
    ++end;
  }
  text.replace(digits, end - digits, "987654321");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  opt.verify_sample = 1;
  svc::EvalService reader(opt);
  const svc::EvalResponse poisoned_load = reader.evaluate(kWorkload, job);
  // The persist load itself is not a sampled hit; it repopulates the
  // in-memory cache with the poisoned outcome.
  ASSERT_TRUE(poisoned_load.result.ok());
  EXPECT_EQ(poisoned_load.provenance, svc::Provenance::kHit);

  const svc::EvalResponse verified = reader.evaluate(kWorkload, job);
  EXPECT_EQ(verified.provenance, svc::Provenance::kHit);
  EXPECT_FALSE(verified.result.ok());
  EXPECT_EQ(verified.result.error_kind, "check");
  EXPECT_EQ(reader.stats().verified_hits, 0u);
}

// ------------------------------------------------------------ protocol --

TEST(ProtocolTest, ParsesEveryOp) {
  const svc::Request eval = svc::parse_request(
      R"({"op":"evaluate","workload":"fmult","job":{"kind":"steinke","size":256}})");
  EXPECT_EQ(eval.op, svc::Request::Op::kEvaluate);
  EXPECT_EQ(eval.workload, "fmult");
  ASSERT_EQ(eval.jobs.size(), 1u);
  EXPECT_EQ(eval.jobs[0].kind, FlowKind::kSteinke);
  EXPECT_EQ(eval.jobs[0].size, 256u);

  const svc::Request batch = svc::parse_request(
      R"({"op":"batch","workload":"fmult","jobs":[{"kind":"casa","size":512},{"kind":"cache_only"}]})");
  EXPECT_EQ(batch.op, svc::Request::Op::kBatch);
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_EQ(batch.jobs[1].kind, FlowKind::kCacheOnly);

  const svc::Request sweep = svc::parse_request(
      R"({"op":"sweep","workload":"fmult","spm":[256,512],"flows":["casa","cache_only"]})");
  EXPECT_EQ(sweep.op, svc::Request::Op::kSweep);
  ASSERT_EQ(sweep.jobs.size(), 3u);  // casa x2 + cache_only x1

  EXPECT_EQ(svc::parse_request(R"({"op":"stats"})").op,
            svc::Request::Op::kStats);
  EXPECT_EQ(svc::parse_request(R"({"op":"flush"})").op,
            svc::Request::Op::kFlush);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(svc::parse_request("not json"), Error);
  EXPECT_THROW(svc::parse_request(R"({"op":"bogus"})"), PreconditionError);
  EXPECT_THROW(svc::parse_request(R"({"op":"evaluate"})"), PreconditionError);
  EXPECT_THROW(
      svc::parse_request(R"({"op":"batch","workload":"fmult","jobs":[]})"),
      PreconditionError);
  EXPECT_THROW(
      svc::parse_request(
          R"({"op":"evaluate","workload":"fmult","job":{"kind":"warp"}})"),
      PreconditionError);
  EXPECT_THROW(
      svc::parse_request(
          R"({"op":"sweep","workload":"fmult","flows":["casa"]})"),
      PreconditionError);
}

TEST(ProtocolTest, NegativeOrMalformedSizeGetsAnErrorReply) {
  // A negative, non-integer or overflowing count is refused where the
  // request is parsed, not left to fail somewhere inside the pipeline; the
  // service renders the refusal as an error reply naming the token.
  for (const std::string size : {"-1", "1e3", "18446744073709551616"}) {
    SCOPED_TRACE("size " + size);
    const std::string line =
        R"({"op":"evaluate","workload":"fmult","job":{"kind":"steinke","size":)" +
        size + "}}";
    std::ostringstream reply;
    try {
      (void)svc::parse_request(line);
      ADD_FAILURE() << "request accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(size), std::string::npos)
          << e.what();
      svc::write_error_line(reply, e.what());
    }
    EXPECT_EQ(reply.str().rfind(R"({"reply":"error","message":")", 0), 0u)
        << reply.str();
  }
  EXPECT_THROW(
      svc::parse_request(
          R"({"op":"sweep","workload":"fmult","spm":[-256],"flows":["casa"]})"),
      PreconditionError);
  EXPECT_THROW(svc::parse_request(std::string(300000, '[')),
               PreconditionError);
}

TEST(ProtocolTest, UnsignedFieldsRejectValuesPast32Bits) {
  // 2^32 + 2 used to wrap to 2 (an associativity-2 cache, sharing that
  // cache entry) and 2^32 to 0; every narrowed key now refuses the value
  // and names itself. 2^32 - 1 still parses.
  struct Case {
    const char* key;
    std::string request;
  };
  const auto evaluate = [](const std::string& job) {
    return R"({"op":"evaluate","workload":"adpcm","job":)" + job + "}";
  };
  const std::vector<Case> cases = {
      {"associativity",
       evaluate(R"({"kind":"cache_only","cache":{"size":1024,"line_size":16,"associativity":4294967298}})")},
      {"max_regions",
       evaluate(R"({"kind":"loopcache","size":256,"max_regions":4294967296})")},
      {"ilp_threads",
       evaluate(R"({"kind":"casa","size":512,"casa":{"ilp_threads":4294967297}})")},
      {"ilp_subtree_depth",
       evaluate(R"({"kind":"casa","size":512,"casa":{"ilp_subtree_depth":4294967296}})")},
      {"max_regions",
       R"({"op":"sweep","workload":"adpcm","spm":[256],"flows":["loopcache"],"max_regions":4294967296})"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.request);
    try {
      (void)svc::parse_request(c.request);
      ADD_FAILURE() << "request accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
  const svc::Request widest = svc::parse_request(evaluate(
      R"({"kind":"casa","size":512,"casa":{"ilp_subtree_depth":4294967295}})"));
  EXPECT_EQ(widest.jobs[0].casa.ilp_subtree_depth, 4294967295u);
}

TEST(ProtocolTest, WarmHitResponseIsByteIdenticalUpToProvenance) {
  svc::EvalService service;
  const Job job = Job::steinke_job(small_cache(), 256);
  const svc::EvalResponse miss = service.evaluate(kWorkload, job);
  const svc::EvalResponse hit = service.evaluate(kWorkload, job);
  ASSERT_TRUE(miss.result.ok());
  ASSERT_TRUE(hit.result.ok());

  std::ostringstream miss_line;
  std::ostringstream hit_line;
  svc::write_response_line(miss_line, 0, miss);
  svc::write_response_line(hit_line, 0, hit);
  std::string expected = std::move(miss_line).str();
  const std::string needle = "\"provenance\":\"miss\"";
  const std::size_t at = expected.find(needle);
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, needle.size(), "\"provenance\":\"hit\"");
  EXPECT_EQ(std::move(hit_line).str(), expected);
}

}  // namespace
}  // namespace casa
