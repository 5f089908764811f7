// casa_serve — a persistent evaluation service over JSON lines.
//
//   casa_serve                          # serve requests on stdin/stdout
//   casa_serve --tcp=7777               # serve one client at a time on TCP
//   casa_serve --persist=./cache        # persist results as casa-result v1
//   casa_serve --cache-bytes=1048576 --max-inflight=8 --verify-sample=10
//
// Requests are one JSON object per line (docs/serve.md):
//
//   {"op":"evaluate","workload":"adpcm","job":{"kind":"casa","size":512}}
//   {"op":"batch","workload":"adpcm","jobs":[...]}
//   {"op":"sweep","workload":"adpcm","spm":[256,512],"flows":["casa"]}
//   {"op":"stats"}
//   {"op":"flush"}
//
// Every evaluated job answers with one result line carrying its status,
// attempts, and cache provenance (hit | miss | inflight_join); each
// request ends with a `done` line. The Workbench for a workload is built
// once (the profiling run) and reused for the life of the process — the
// point of serving instead of re-running casa_cli per configuration.
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/io/serialize.hpp"
#include "casa/obs/export.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/support/args.hpp"
#include "casa/support/error.hpp"
#include "casa/support/thread_pool.hpp"
#include "casa/svc/protocol.hpp"
#include "casa/svc/service.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace casa;

namespace {

/// Longest request line the TCP loop buffers, newline excluded. A longer
/// line is answered with one error line and discarded up to its newline;
/// the connection keeps serving.
constexpr std::size_t kMaxTcpLineBytes = std::size_t{1} << 20;

/// Handles one request line; the reply text goes to `os` (responses for a
/// request are rendered atomically so a TCP client never sees a torn
/// reply). Malformed requests answer with an error line — the service
/// never dies on bad input.
void handle_line(svc::EvalService& service, const std::string& line,
                 std::ostream& os) {
  try {
    const svc::Request req = svc::parse_request(line);
    switch (req.op) {
      case svc::Request::Op::kStats:
        svc::write_stats_line(os, service.stats());
        return;
      case svc::Request::Op::kFlush:
        service.flush();
        svc::write_ok_line(os);
        return;
      case svc::Request::Op::kEvaluate:
      case svc::Request::Op::kBatch:
      case svc::Request::Op::kSweep: {
        const std::vector<svc::EvalResponse> responses =
            service.evaluate_batch(req.workload, req.jobs);
        for (std::size_t i = 0; i < responses.size(); ++i) {
          svc::write_response_line(os, i, responses[i]);
        }
        svc::write_done_line(os, responses.size());
        return;
      }
    }
  } catch (const std::exception& e) {
    svc::write_error_line(os, e.what());
  }
}

/// stdin/stdout (or any stream pair) request loop.
void serve_stream(svc::EvalService& service, std::istream& in,
                  std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    handle_line(service, line, out);
    out.flush();
  }
}

/// Writes all of `text` to `fd`; gives up silently when the peer is gone.
void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t w = ::write(fd, text.data() + sent, text.size() - sent);
    if (w <= 0) return;
    sent += static_cast<std::size_t>(w);
  }
}

/// Minimal single-client TCP loop: accept, serve line-by-line until the
/// client disconnects, accept the next. Returns only on accept failure.
int serve_tcp(svc::EvalService& service, std::uint16_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  CASA_CHECK(listener >= 0, "casa_serve: cannot create socket");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  CASA_CHECK(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0,
             "casa_serve: cannot bind 127.0.0.1:" + std::to_string(port));
  CASA_CHECK(::listen(listener, 1) == 0, "casa_serve: listen failed");
  std::cerr << "casa_serve listening on 127.0.0.1:" << port << "\n";
  for (;;) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) break;
    std::string line;         // the current line's bytes so far
    bool overlong = false;    // the current line passed the limit: drop it
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(client, buf, sizeof buf);
      if (n <= 0) break;
      const char* p = buf;
      const char* const end = buf + n;
      while (p < end) {
        const auto* nl = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        const char* const stop = nl != nullptr ? nl : end;
        if (!overlong) {
          if (line.size() + static_cast<std::size_t>(stop - p) >
              kMaxTcpLineBytes) {
            overlong = true;
            line.clear();
            std::ostringstream reply;
            svc::write_error_line(
                reply, "request line exceeds " +
                           std::to_string(kMaxTcpLineBytes) +
                           " bytes; discarded up to its newline");
            send_all(client, std::move(reply).str());
          } else {
            line.append(p, stop);
          }
        }
        if (nl == nullptr) break;
        p = nl + 1;
        if (!overlong && !line.empty()) {
          std::ostringstream reply;
          handle_line(service, line, reply);
          send_all(client, std::move(reply).str());
        }
        overlong = false;
        line.clear();
      }
    }
    ::close(client);
  }
  ::close(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::uint64_t tcp_port =
      args.get_u64("tcp", 0, "serve on 127.0.0.1:PORT instead of stdio");
  const std::uint64_t cache_bytes = args.get_u64(
      "cache-bytes", 64ull << 20, "result cache byte budget (keys+artifacts)");
  const std::uint64_t threads =
      args.get_u64("threads", 0, "miss-evaluation worker threads (0 = auto)");
  const std::uint64_t max_inflight = args.get_u64(
      "max-inflight", 64, "max jobs computing at once before rejection");
  const std::uint64_t retry_after_ms = args.get_u64(
      "retry-after-ms", 50, "retry hint attached to rejected responses");
  const std::uint64_t max_retries =
      args.get_u64("max-retries", 0, "per-job transient-failure retries");
  const std::string persist_dir =
      args.get("persist", "", "persist results as casa-result v1 files here");
  const std::uint64_t verify_sample = args.get_u64(
      "verify-sample", 0, "recompute and bit-compare every Nth cache hit");
  const std::uint64_t seed = args.get_u64("seed", 42, "execution seed");
  const double fuse = args.get_double("fuse", 0.5, "trace fusion ratio");
  const std::string metrics_json = args.get(
      "metrics-json", "", "write a casa-metrics artifact here on exit");
  const std::string fault_spec =
      args.get("fault-spec", "", "arm fault injection (see docs/faults.md)");

  if (args.help_requested()) {
    std::cout << "casa_serve — persistent evaluation service (JSON lines)\n\n"
              << args.help();
    return 0;
  }
  try {
    args.reject_unknown();
  } catch (const PreconditionError& e) {
    std::cerr << e.what() << "\nrun with --help for usage\n";
    return 2;
  }

  try {
    if (!fault_spec.empty()) {
      fault::arm(fault::parse_spec(fault_spec));
    } else {
      fault::arm_from_env();
    }

    obs::MetricsRegistry registry;
    svc::ServiceOptions opt;
    opt.cache_bytes = cache_bytes;
    opt.threads = checked_unsigned(threads, "--threads");
    // A count the pool cap refuses fails here, not on every request.
    (void)support::ThreadPool::resolve(opt.threads);
    opt.max_retries = checked_unsigned(max_retries, "--max-retries");
    opt.max_inflight = max_inflight;
    opt.retry_after_ms = checked_unsigned(retry_after_ms, "--retry-after-ms");
    opt.persist_dir = persist_dir;
    opt.verify_sample = checked_unsigned(verify_sample, "--verify-sample");
    opt.exec_seed = seed;
    opt.fuse_ratio = fuse;
    opt.metrics = &registry;
    if (fault::armed()) {
      registry.set_gauge(obs::metric_names::kFaultArmedSites,
                         static_cast<double>(fault::armed_site_count()));
    }
    svc::EvalService service(opt);

    int rc = 0;
    if (tcp_port != 0) {
      rc = serve_tcp(service, static_cast<std::uint16_t>(tcp_port));
    } else {
      serve_stream(service, std::cin, std::cout);
    }

    if (!metrics_json.empty()) {
      std::ofstream out(metrics_json);
      CASA_CHECK(out.good(),
                 "cannot open metrics output file: " + metrics_json);
      obs::ArtifactOptions aopt;
      aopt.tool = "casa_serve";
      obs::write_artifact_guarded(
          out, fault::site_names::kIoMetricsWrite,
          [&](std::ostream& os) {
            io::write_metrics_json(os, registry.snapshot(), aopt);
          });
      std::cerr << "metrics artifact written to " << metrics_json << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "casa_serve: " << e.what() << "\n";
    return 1;
  }
}
