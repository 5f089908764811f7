// Shared pieces of the whole-experiment benchmark binary: run options, the
// result every workload reports, the paper's job universe, output digests
// and the independent cross-checks that back the committed reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "casa/obs/tracer.hpp"
#include "casa/prog/program.hpp"
#include "casa/report/workbench.hpp"

namespace perfbench {

using casa::report::Workbench;
using Job = Workbench::Job;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 30.0;
  bool trace = false;
  std::string serve_bin;     ///< casa_serve executable (serve_session)
  std::string digests_path;  ///< where per-job output digests are written
  /// Cross-check every output (reference generation) instead of a seeded
  /// sample.
  bool check_all = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// "label\tdigest" lines, one per distinct output, compared against the
  /// committed reference by run.py.
  std::vector<std::string> digests;
  /// Human-readable lines (sample counts, layer shares) printed before the
  /// result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why);
};

// ---- timing and statistics ----
double now_s();
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// `samples` lists one value per item of a fixed list of `items`, the
/// whole list over and over; returns each item's median over its repeats.
std::vector<double> item_medians(const std::vector<double>& samples,
                                 std::size_t items);
/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

// ---- the paper's configuration space ----
/// A generated program with its Workbench (the profiling run). The
/// Workbench points into the Program, so both live in one heap object.
struct Bench {
  casa::prog::Program program;
  std::unique_ptr<const Workbench> bench;
};

/// Generates `name` and profiles it with exec_seed = `seed`; when `tracer`
/// is set the two calls are wrapped in spans named "generate" and
/// "profiling".
std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed,
                                  casa::obs::Tracer* tracer = nullptr,
                                  casa::obs::MetricsRegistry* metrics = nullptr);

/// Table 1's three flows at every paper scratchpad size on the paper
/// I-cache of `program` (CASA, Steinke, loop cache with four regions).
std::vector<Job> paper_jobs(const std::string& program);

std::string job_label(const std::string& program, const Job& job);
/// Bit-exact digest: total energy as a hex float, every SimCounters field,
/// and the scratchpad mask (CASA) or bytes placed.
std::string outcome_digest(const casa::report::Outcome& out);

/// In a thorough check the other-engine check runs the generic ILP on
/// specialized-engine jobs only up to this many presolved conflict edges,
/// and with this node budget; beyond either it is skipped (mpeg's 400+-edge
/// instances cost seconds per thousand generic nodes). Sampled checks run
/// it only where the generic engine was used and the fast specialized
/// B&B is the other.
inline constexpr std::size_t kGenericCheckMaxEdges = 200;
inline constexpr std::uint64_t kGenericCheckMaxNodes = 20000;

struct CrossCheckStats {
  std::size_t outputs = 0;
  std::size_t engine_checked = 0;
  std::size_t engine_skipped = 0;
};

/// Independent re-derivations of `out` (the result of `job` on `wb`): the
/// word-granular replay, a fresh Workbench::evaluate, and for CASA jobs the
/// other exact engine. Returns an empty string when all agree, else what
/// differed.
std::string cross_check(const Workbench& wb, const Job& job,
                        const casa::report::Outcome& out, bool thorough,
                        CrossCheckStats& stats);

/// Indices of the outputs to cross-check: all of `n` for a thorough check
/// (opt.check_all), else a sample of `k` drawn from the run's seed.
std::vector<std::size_t> check_sample(std::size_t n, const RunOptions& opt,
                                      std::size_t k);

/// How many fixed units of work of about `unit_seconds` each a run of
/// `seconds` gets (at least one).
std::size_t units_for(double seconds, double unit_seconds);

/// Seeds of one run's inputs (dse_sweep's profiles, serve_session's request
/// sequences): the run's seed first, then `count - 1` more derived from it.
std::vector<std::uint64_t> run_seeds(std::uint64_t seed, std::size_t count);

/// On a shared host one CPU can run a third slower than another for
/// minutes, so a single-threaded phase that the scheduler leaves on a slow
/// CPU reads slow throughout. CpuRotation moves the calling thread from CPU
/// to CPU of the set it may use, so such a phase samples all of them, and
/// gives the thread that whole set back when destroyed (before any worker
/// threads are started, which would inherit a pin).
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the (k mod n)-th of the set's n CPUs.
  void pin(std::size_t k) const;

 private:
  std::vector<int> cpus_;
};

/// Deterministic generator for workload inputs (SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

RunResult run_paper_suite(const RunOptions& opt);
RunResult run_dse_sweep(const RunOptions& opt);
RunResult run_serve_session(const RunOptions& opt);

}  // namespace perfbench
