// serve_session: one closed-loop client driving casa_serve over its stdio
// protocol. Callers of casa_serve wait for each reply before sending the
// next request, so a closed loop is the model; queueing, single-flight
// joins and backpressure are left to svc_test.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "casa/io/json.hpp"
#include "casa/support/error.hpp"
#include "casa/svc/protocol.hpp"
#include "casa/svc/service.hpp"
#include "casa/workloads/workloads.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

constexpr unsigned kServeWorkers = 2;
/// Below the ~145 KB the 88 rendered results take, so the LRU evicts.
constexpr std::uint64_t kCacheBytes = 128 * 1024;
constexpr std::size_t kRequests = 1000;
constexpr double kZipfExponent = 1.0;
constexpr double kSweepShare = 0.1;
/// Sessions per run: one per this many seconds of --seconds (about one
/// session's length on a 4-CPU Xeon VM), each a fresh casa_serve sent its
/// own seeded request sequence; plus set-up-only starts before and after
/// them. Every session serves the default profile: the hot allocations'
/// solve times swing up to 3x with the profile (see kSuiteSecondsPerRound
/// in suite.cpp).
constexpr double kSecondsPerSession = 8.0;
constexpr std::size_t kExtraSetups = 3;

/// One of the 88 paper-configuration jobs: Table 1's three flows at every
/// paper scratchpad size plus the cache-only reference, per program.
struct PaperJob {
  std::string program;
  Job job;
  std::string label;
};

std::vector<PaperJob> universe() {
  std::vector<PaperJob> out;
  for (const std::string& p : casa::workloads::names()) {
    std::vector<Job> jobs = paper_jobs(p);
    jobs.push_back(Job::cache_only_job(casa::workloads::paper_cache_for(p)));
    for (const Job& j : jobs) out.push_back({p, j, job_label(p, j)});
  }
  return out;
}

std::string cache_json(const casa::cachesim::CacheConfig& c) {
  std::ostringstream os;
  os << "{\"size\":" << c.size << ",\"line_size\":" << c.line_size
     << ",\"associativity\":" << c.associativity << "}";
  return os.str();
}

/// One protocol request with the jobs its reply lines answer, in order.
struct Request {
  std::string line;
  std::vector<std::size_t> jobs;  ///< indices into universe()
};

/// The seeded request sequence. Popularity is Zipf over a fixed ranking:
/// each program's CASA jobs (largest scratchpad first), then its Steinke,
/// loop-cache and cache-only jobs, dealt out round-robin across programs.
/// The expensive allocations are thus the hot ones, computed once per
/// session and kept, while the byte budget churns the cheap long tail. A
/// kSweepShare of requests are `sweep` ops over every paper scratchpad size
/// of the drawn job's program and flow.
std::vector<Request> requests(const std::vector<PaperJob>& u,
                              std::uint64_t seed) {
  std::map<std::string, std::vector<std::size_t>> by_program;
  for (std::size_t i = 0; i < u.size(); ++i) by_program[u[i].program].push_back(i);
  for (auto& [program, idx] : by_program) {
    // universe() lists CASA sizes ascending first; put the largest first.
    const auto casa_end = std::partition_point(
        idx.begin(), idx.end(), [&](std::size_t i) {
          return u[i].job.kind == casa::report::FlowKind::kCasa;
        });
    std::reverse(idx.begin(), casa_end);
  }
  std::vector<std::size_t> ranking;
  for (std::size_t k = 0; ranking.size() < u.size(); ++k) {
    for (const std::string& p : casa::workloads::names()) {
      if (k < by_program[p].size()) ranking.push_back(by_program[p][k]);
    }
  }
  std::vector<double> cdf;
  double sum = 0.0;
  for (std::size_t r = 0; r < ranking.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf.push_back(sum);
  }

  Rng rng(seed);
  std::vector<Request> out;
  while (out.size() < kRequests) {
    const double x = rng.uniform() * sum;
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    const std::size_t drawn = ranking[std::min(r, ranking.size() - 1)];
    const PaperJob& pj = u[drawn];
    const bool sweep = rng.uniform() < kSweepShare;
    Request req;
    std::ostringstream os;
    if (!sweep) {
      os << "{\"op\":\"evaluate\",\"workload\":\"" << pj.program
         << "\",\"job\":{\"kind\":\"" << casa::report::to_string(pj.job.kind)
         << "\",\"cache\":" << cache_json(pj.job.cache)
         << ",\"size\":" << pj.job.size
         << ",\"max_regions\":" << pj.job.max_regions << "}}";
      req.jobs.push_back(drawn);
    } else {
      os << "{\"op\":\"sweep\",\"workload\":\"" << pj.program
         << "\",\"cache\":" << cache_json(pj.job.cache) << ",\"spm\":[";
      const std::vector<casa::Bytes> sizes =
          casa::workloads::paper_spm_sizes_for(pj.program);
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        os << (k > 0 ? "," : "") << sizes[k];
      }
      os << "],\"flows\":[\"" << casa::report::to_string(pj.job.kind)
         << "\"]}";
      for (std::size_t i = 0; i < u.size(); ++i) {
        if (u[i].program == pj.program && u[i].job.kind == pj.job.kind) {
          req.jobs.push_back(i);
        }
      }
    }
    req.line = os.str();
    out.push_back(std::move(req));
  }
  return out;
}

/// Warm-up: one cache-only evaluation per program builds every Workbench
/// (the profiling run); the flush then empties the result cache.
std::vector<std::string> warmup_lines(const std::vector<PaperJob>& u) {
  std::vector<std::string> out;
  for (const PaperJob& pj : u) {
    if (pj.job.kind != casa::report::FlowKind::kCacheOnly) continue;
    out.push_back("{\"op\":\"evaluate\",\"workload\":\"" + pj.program +
                  "\",\"job\":{\"kind\":\"cache_only\",\"cache\":" +
                  cache_json(pj.job.cache) + "}}");
  }
  out.push_back("{\"op\":\"flush\"}");
  return out;
}

/// The text of a result line's "outcome" object, or empty.
std::string outcome_text(const std::string& line) {
  const std::size_t at = line.find("\"outcome\":");
  if (at == std::string::npos) return {};
  return line.substr(at + 10, line.size() - (at + 10) - 1);
}

/// Digest of a served outcome: total energy as a hex float and every
/// SimCounters field, as outcome_digest renders them; the scratchpad mask
/// is not on the wire, so bytes placed stands in for it.
std::string served_digest(const casa::io::JsonValue& o) {
  const auto field = [&](const char* key) {
    return casa::io::member(o, key).str;
  };
  char energy[64];
  std::snprintf(energy, sizeof energy, "%a",
                std::strtod(field("total_energy").c_str(), nullptr));
  return std::string(energy) + ' ' + field("total_fetches") + ',' +
         field("spm_accesses") + ',' + field("lc_accesses") + ',' +
         field("cache_accesses") + ',' + field("cache_hits") + ',' +
         field("cache_misses") + ',' + field("cache_evictions") + ',' +
         field("mainmem_words") + ',' + field("cycles") +
         " spm_used=" + field("spm_used");
}

/// Checks every reply line of one request; `served` keeps the first
/// outcome text per job, and every later reply, in any session, must
/// repeat it byte for byte (a warm hit equals the original miss).
struct ReplyCheck {
  std::map<std::size_t, std::string> served;

  void check(RunResult& r, const std::vector<PaperJob>& u, const Request& req,
             const std::vector<std::string>& lines) {
    r.attempted += req.jobs.size();
    if (lines.size() != req.jobs.size() + 1 ||
        lines.back().find("\"reply\":\"done\"") == std::string::npos) {
      r.fail("malformed reply to " + req.line + ": " +
             (lines.empty() ? std::string("(none)") : lines.back()));
      return;
    }
    for (std::size_t k = 0; k < req.jobs.size(); ++k) {
      const std::string& line = lines[k];
      const std::string& label = u[req.jobs[k]].label;
      if (line.find("\"reply\":\"result\"") == std::string::npos ||
          line.find("\"status\":\"failed\"") != std::string::npos) {
        r.fail(label + ": " + line);
        continue;
      }
      const std::string text = outcome_text(line);
      const auto [it, fresh] = served.emplace(req.jobs[k], text);
      if (!fresh && it->second != text) r.fail(label + ": reply changed");
    }
  }
};

/// A casa_serve child process on a pair of pipes.
class ServeProcess {
 public:
  ServeProcess(const std::string& bin, const std::vector<std::string>& args) {
    int in[2];
    int out[2];
    CASA_CHECK(::pipe(in) == 0 && ::pipe(out) == 0, "pipe failed");
    pid_ = ::fork();
    CASA_CHECK(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      ::dup2(in[0], 0);
      ::dup2(out[1], 1);
      ::close(in[0]);
      ::close(in[1]);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      finish();
    }
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Sends one request line and reads its reply: result lines up to the
  /// `done` line, or the single ok/stats/error line.
  std::vector<std::string> request(const std::string& line) {
    const std::string msg = line + '\n';
    for (std::size_t sent = 0; sent < msg.size();) {
      const ssize_t w = ::write(to_child_, msg.data() + sent, msg.size() - sent);
      CASA_CHECK(w > 0, "casa_serve closed its input");
      sent += static_cast<std::size_t>(w);
    }
    std::vector<std::string> lines;
    for (;;) {
      lines.push_back(read_line());
      const std::string& l = lines.back();
      if (l.find("\"reply\":\"result\"") == std::string::npos &&
          l.find("\"reply\":\"rejected\"") == std::string::npos) {
        return lines;
      }
    }
  }

  /// Closes the child's input and waits for it to exit; returns its peak
  /// resident set in MiB (negative when it did not exit cleanly).
  double finish() {
    if (to_child_ >= 0) ::close(to_child_);
    to_child_ = -1;
    int status = 0;
    rusage ru{};
    const pid_t done = ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (from_child_ >= 0) ::close(from_child_);
    from_child_ = -1;
    if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::read(from_child_, chunk, sizeof chunk);
      CASA_CHECK(n > 0, "casa_serve exited mid-reply");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buf_;
};

std::vector<std::string> serve_args(std::uint64_t profile) {
  return {"--threads=" + std::to_string(kServeWorkers),
          "--cache-bytes=" + std::to_string(kCacheBytes),
          "--seed=" + std::to_string(profile)};
}

/// The traced run: the first session's lines replayed in-process through
/// the calls casa_serve makes for each line.
void traced_serve(RunResult& r, const std::vector<PaperJob>& u,
                  const std::vector<Request>& sequence, std::uint64_t profile,
                  ReplyCheck& replies) {
  const auto pass = [&](casa::obs::Tracer* tracer,
                        casa::obs::MetricsRegistry* reg, LayerTally* tally) {
    const double t0 = now_s();
    const casa::obs::TraceSpan root(tracer, "serve_session");
    casa::svc::ServiceOptions so;
    so.cache_bytes = kCacheBytes;
    so.threads = kServeWorkers;
    so.exec_seed = profile;
    so.metrics = reg;
    casa::svc::EvalService service(so);
    // The profiling layer as the warm-up pays it, timed on its own: the
    // service builds its Workbenches inside its request spans.
    for (const std::string& p : casa::workloads::names()) {
      const std::unique_ptr<Bench> b = make_bench(p, profile, tracer);
      if (tally != nullptr) {
        tally->profiled_blocks += b->bench->execution().total_blocks;
      }
    }
    casa::svc::EvalService::Stats before;
    const auto handle = [&](const std::string& line, const Request* timed) {
      casa::svc::Request req;
      {
        const casa::obs::TraceSpan span(tracer, "parse_request");
        req = casa::svc::parse_request(line);
      }
      if (req.op == casa::svc::Request::Op::kFlush) {
        service.flush();
        before = service.stats();
        return;
      }
      std::vector<casa::svc::EvalResponse> responses;
      {
        const casa::obs::TraceSpan span(tracer, "evaluate_batch");
        responses = service.evaluate_batch(req.workload, req.jobs);
      }
      bool all_hit = timed != nullptr;
      for (const casa::svc::EvalResponse& resp : responses) {
        all_hit = all_hit && resp.provenance == casa::svc::Provenance::kHit;
        if (tally != nullptr && timed != nullptr &&
            resp.provenance == casa::svc::Provenance::kMiss) {
          tally->computed(resp.result);
        }
      }
      if (tally != nullptr) tally->request_all_hit.push_back(all_hit);
      std::ostringstream reply;
      {
        const casa::obs::TraceSpan span(tracer, "write_response");
        for (std::size_t i = 0; i < responses.size(); ++i) {
          casa::svc::write_response_line(reply, i, responses[i]);
        }
        casa::svc::write_done_line(reply, responses.size());
      }
      if (timed == nullptr) return;
      std::vector<std::string> lines;
      std::istringstream in(reply.str());
      for (std::string l; std::getline(in, l);) lines.push_back(l);
      replies.check(r, u, *timed, lines);
    };
    for (const std::string& line : warmup_lines(u)) handle(line, nullptr);
    for (const Request& req : sequence) handle(req.line, &req);
    if (tally != nullptr) {
      const casa::svc::EvalService::Stats after = service.stats();
      tally->svc_hits += after.hits - before.hits;
      tally->svc_misses += after.misses - before.misses;
      tally->svc_evictions += after.cache.evictions - before.cache.evictions;
    }
    return now_s() - t0;
  };
  trace_layers(r, pass, kServeWorkers);
}

/// Re-derives sampled (or all) served outcomes in-process: a per-job
/// Workbench::evaluate rendered exactly as casa_serve renders it, plus the
/// independent paths of cross_check.
void cross_check_served(RunResult& r, const RunOptions& opt,
                        const std::vector<PaperJob>& u, std::uint64_t profile,
                        const ReplyCheck& replies) {
  std::vector<std::size_t> outputs;
  for (const auto& [idx, text] : replies.served) outputs.push_back(idx);
  std::map<std::string, std::unique_ptr<Bench>> benches;
  CrossCheckStats stats;
  for (const std::size_t pick : check_sample(outputs.size(), opt, 3)) {
    const std::size_t idx = outputs[pick];
    const PaperJob& pj = u[idx];
    const std::string label = std::to_string(profile) + '/' + pj.label;
    std::unique_ptr<Bench>& b = benches[pj.program];
    if (b == nullptr) b = make_bench(pj.program, profile);
    const casa::report::JobResult res = b->bench->evaluate(pj.job);
    if (!res.ok()) {
      r.fail(label + ": in-process evaluate failed");
      continue;
    }
    casa::svc::EvalResponse resp;
    resp.result = res;
    std::ostringstream line;
    casa::svc::write_response_line(line, 0, resp);
    std::string text = line.str();
    text.pop_back();  // newline
    if (outcome_text(text) != replies.served.at(idx)) {
      r.fail(label + ": served outcome differs from Workbench::evaluate");
    }
    const std::string why =
        cross_check(*b->bench, pj.job, res.outcome, opt.check_all, stats);
    if (!why.empty()) r.fail(label + ": cross-check:" + why);
  }
  r.notes.push_back(
      "cross-checked " + std::to_string(stats.outputs) +
      " served outputs (in-process evaluate, word replay); other exact "
      "engine agreed on " + std::to_string(stats.engine_checked) +
      ", skipped on " + std::to_string(stats.engine_skipped));
}

void add_served_digests(RunResult& r, const std::vector<PaperJob>& u,
                        std::uint64_t profile, const ReplyCheck& replies) {
  for (const auto& [idx, text] : replies.served) {
    if (text.empty()) continue;
    r.digests.push_back(std::to_string(profile) + '/' + u[idx].label + '\t' +
                        served_digest(casa::io::JsonReader(text).parse()));
  }
}

/// Starts casa_serve and runs the warm-up; returns the set-up time.
double start_server(RunResult& r, const RunOptions& opt,
                    const std::vector<PaperJob>& u, std::uint64_t profile,
                    std::unique_ptr<ServeProcess>& server) {
  const double t0 = now_s();
  server = std::make_unique<ServeProcess>(opt.serve_bin, serve_args(profile));
  for (const std::string& line : warmup_lines(u)) {
    const std::vector<std::string> reply = server->request(line);
    if (reply.back().find("\"reply\":\"error\"") != std::string::npos) {
      r.fail("warm-up: " + reply.back());
    }
  }
  return now_s() - t0;
}

}  // namespace

RunResult run_serve_session(const RunOptions& opt) {
  RunResult r;
  const std::vector<PaperJob> u = universe();
  std::vector<std::vector<Request>> sequences;
  for (const std::uint64_t s : run_seeds(
           opt.seed, units_for(opt.seconds, kSecondsPerSession))) {
    sequences.push_back(requests(u, s));
  }
  const std::uint64_t profile = casa::svc::ServiceOptions{}.exec_seed;
  ReplyCheck replies;
  if (opt.trace) {
    traced_serve(r, u, sequences.front(), profile, replies);
    add_served_digests(r, u, profile, replies);
    return r;
  }
  ::signal(SIGPIPE, SIG_IGN);  // a dead server surfaces as a write error
  CASA_CHECK(!opt.serve_bin.empty() && ::access(opt.serve_bin.c_str(), X_OK) == 0,
             "serve_session needs --serve-bin naming casa_serve");

  std::vector<double> setups;
  const auto setup_only = [&] {
    std::unique_ptr<ServeProcess> server;
    setups.push_back(start_server(r, opt, u, profile, server));
    if (server->finish() < 0) r.fail("casa_serve did not exit cleanly");
  };
  for (std::size_t i = 0; i < kExtraSetups; ++i) setup_only();

  std::vector<double> session_s;
  std::vector<double> latency_ms;
  std::vector<double> rss;
  std::vector<std::string> stats;
  for (const std::vector<Request>& sequence : sequences) {
    std::unique_ptr<ServeProcess> server;
    setups.push_back(start_server(r, opt, u, profile, server));
    const double t0 = now_s();
    for (const Request& req : sequence) {
      const double q0 = now_s();
      const std::vector<std::string> lines = server->request(req.line);
      latency_ms.push_back((now_s() - q0) * 1e3);
      replies.check(r, u, req, lines);
    }
    session_s.push_back(now_s() - t0);
    stats.push_back(server->request("{\"op\":\"stats\"}").back());
    rss.push_back(server->finish());
    if (rss.back() < 0) r.fail("casa_serve did not exit cleanly");
  }
  for (std::size_t i = 0; i < kExtraSetups; ++i) setup_only();

  r.add("setup_s", median(setups), "s");
  r.add("wall_s", median(session_s), "s");
  r.add("peak_rss_mb", median(rss), "MiB");
  r.add("req_p50_ms", percentile(latency_ms, 0.50), "ms");
  r.add("req_p99_ms", percentile(latency_ms, 0.99), "ms");
  r.notes.push_back(std::to_string(sequences.size()) + " sessions, " +
                    std::to_string(latency_ms.size()) + " request samples, " +
                    std::to_string(setups.size()) + " set-ups");
  for (const std::string& s : stats) r.notes.push_back(s);
  add_served_digests(r, u, profile, replies);
  cross_check_served(r, opt, u, profile, replies);
  return r;
}

}  // namespace perfbench
