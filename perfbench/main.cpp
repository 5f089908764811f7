// casa_perfbench — one workload of the whole-experiment benchmark per
// process. run.py builds this binary and casa_serve, runs it, compares the
// digests it writes against the committed reference, and prints the
// benchmark's result line. Usage:
//
//   casa_perfbench --workload=paper_suite --seed=42 --seconds=30 --trace=0
//                  --digests=out.tsv [--serve-bin=casa_serve] [--check-all]
//
// The last stdout line is a JSON object with the metrics, the number of
// operations attempted and the number that failed in-process checks.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "casa/support/args.hpp"
#include "casa/support/error.hpp"

int main(int argc, char** argv) {
  casa::ArgParser args(argc, argv);
  perfbench::RunOptions opt;
  opt.workload = args.get("workload", "", "paper_suite | dse_sweep | serve_session");
  opt.seed = args.get_u64("seed", 42, "workload seed");
  opt.seconds = args.get_double("seconds", 30.0, "measured time per run");
  opt.trace = args.get_u64("trace", 0, "1 = traced run (per-layer metrics)") != 0;
  opt.serve_bin = args.get("serve-bin", "", "casa_serve executable");
  opt.digests_path = args.get("digests", "", "write output digests here");
  opt.check_all = args.get_flag("check-all", "cross-check every output");
  if (args.help_requested()) {
    std::cout << args.help();
    return 0;
  }
  try {
    args.reject_unknown();
    perfbench::RunResult r;
    if (opt.workload == "paper_suite") {
      r = perfbench::run_paper_suite(opt);
    } else if (opt.workload == "dse_sweep") {
      r = perfbench::run_dse_sweep(opt);
    } else if (opt.workload == "serve_session") {
      r = perfbench::run_serve_session(opt);
    } else {
      std::cerr << "casa_perfbench: unknown workload '" << opt.workload
                << "'\n";
      return 2;
    }
    if (!opt.digests_path.empty()) {
      std::ofstream out(opt.digests_path);
      for (const std::string& d : r.digests) out << d << '\n';
      CASA_CHECK(out.good(), "cannot write " + opt.digests_path);
    }
    for (const std::string& n : r.notes) std::cout << n << '\n';
    std::cout << "{\"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
      std::cout << (i > 0 ? ", " : "") << '"' << r.metrics[i].name
                << "\": {\"value\": " << value << ", \"unit\": \""
                << r.metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "casa_perfbench: " << e.what() << "\n";
    return 1;
  }
}
