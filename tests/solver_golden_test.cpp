// Golden solver-path table for Table 1's CASA instances.
//
// Every paper configuration of every bundled program (27 instances, default
// profile) is allocated through Workbench::evaluate and compared against a
// table recorded from the reference implementation: the engine that ran,
// the chosen mask, the predicted energy and root gap as hexfloats, and the
// search counters. The simplex pricing, ratio test and pivot, and the
// specialized B&B's bound, are tuned for speed under a bit-exact contract
// (docs/solver.md): any change to a pivot, a node, or an incumbent shows up
// here as a changed counter or mask.
//
// Tied optima make the pivot path observable. epic, gsm and jpeg at 128 B
// each have two optimal masks with identical energy and counters; which one
// the generic engine returns depends on the exact sequence of pivots, and
// on epic and gsm the specialized engine picks the other tie. A faster
// simplex that changes no objective value can still flip these masks.
//
// The generic rows' effort columns (nodes, simplex_iterations, bound_prunes,
// incumbent_updates) were re-recorded when the allocator started passing
// the specialized engine's mask to the generic search as an objective
// cutoff: it prunes nodes that cannot reach that mask's energy, so 12 of
// the 18 generic rows explore fewer nodes and find fewer incumbents above
// the cutoff. Their engine, mask, predicted energy and root gap columns
// are unchanged from the reference recording.
//
// The specialized rows' nodes and bound_prunes were re-recorded when that
// engine gained its Lagrangian bound, a second prune test on searches past
// 256 nodes: g721/512, g721/1024, mpeg/512 and mpeg/1024 explore fewer
// nodes (g721/1024: 972637 -> 29163). It prunes only subtrees that cannot
// beat the incumbent, so every mask, predicted energy, root gap and
// incumbent_updates count of those rows, and every generic row, is
// unchanged.
//
// The generic rows' nodes, simplex_iterations and bound_prunes were
// re-recorded again when the allocator started passing the specialized
// engine's near-optimal set with the cutoff: a node whose bound box holds
// none of those masks is pruned before its LP solve. No row explores more
// nodes (jpeg/128: 1514 -> 274), every row solves fewer pivots, and
// bound_prunes now count those prunes too, so it rises on some rows. The
// engine, mask, predicted energy, root gap and incumbent_updates columns,
// and every specialized row, are unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "casa/report/workbench.hpp"
#include "casa/workloads/workloads.hpp"

namespace {

using namespace casa;

// program/spm engine mask predicted_energy root_gap nodes simplex_iterations
// bound_prunes incumbent_updates
const char* const kGolden[] = {
    // clang-format off
    "adpcm/64 generic-ilp 000100001000010000000000001000000 0x1.d90cdd972072ep+23 0x1.a9e163766a06p+18 12 433 9 1",
    "adpcm/128 generic-ilp 00000010110000000000001001010 0x1.0687be3300305p+23 0x1.d2f13311c800ap+21 16 955 11 1",
    "adpcm/256 generic-ilp 11101000000000000000001001010 0x1.93048ed6d1abp+20 0x1.1c7ebec19aab2p+21 8 299 7 1",
    "g721/128 specialized-bnb 000001000100000000000000100000000000000000010000000000000000000000000001111000000 0x1.02daabcb9394dp+25 0x0p+0 17 0 8 1",
    "g721/256 specialized-bnb 0000000011000000000001000000000001010010000000000000101111100000 0x1.c7667a856e5dp+24 0x0p+0 37 0 19 0",
    "g721/512 specialized-bnb 01000001111000011000000000000000011001000000000000001110101000 0x1.48ccb906e0166p+24 0x0p+0 693 0 334 7",
    "g721/1024 specialized-bnb 01101110111111111000000000001000011100000000000000001111101000 0x1.2be11aea16f12p+23 0x0p+0 29163 0 14569 8",
    "mpeg/128 specialized-bnb 00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000011100000000000 0x1.0290319be4edcp+24 0x0p+0 167 0 76 2",
    "mpeg/256 specialized-bnb 0000000000000000000000000000000010000000000000000000001100000000100001100000000000000000000000000000000000000000000000000000000000000000000001010000000000 0x1.e7fbba84d9016p+23 0x0p+0 211 0 88 0",
    "mpeg/512 specialized-bnb 000000000000000000000000000000000000011101000000111000010000000000000000000000000000000000000100000000000 0x1.937612f3f2d7p+23 0x0p+0 391 0 176 7",
    "mpeg/1024 specialized-bnb 000001000000000000000010001110000000100010000001100001100000000000000000000000000111110000000000 0x1.19e8837ee41fbp+23 0x0p+0 309 0 140 8",
    "epic/64 generic-ilp 000000000010000000000000000000000000000000000000000000000 0x1.1229de18a339ep+19 0x1.fe10da8f9cda8p+13 88 1064 46 2",
    "epic/128 generic-ilp 000000100000000000000000000000000000000110000000 0x1.c588119e335b3p+18 0x1.4929a39727dcp+15 216 14340 111 1",
    "epic/256 generic-ilp 01000000000000000000000000000000000 0x1.43eba7252b882p+18 0x1.88d66d3241e8p+12 72 3251 40 0",
    "epic/512 generic-ilp 111000000000000000010001110000100 0x1.56dc7faf6c13p+17 0x1.5a29e49929b3p+14 174 6257 89 2",
    "pegwit/128 specialized-bnb 000100000000000001001000000000000000000000000000000000000000000000000000000000000000000000 0x1.ac377494129bfp+21 0x0p+0 31 0 10 1",
    "pegwit/256 generic-ilp 000000100011000000000000000000000000000000000000000000000000 0x1.558a502942ae8p+21 0x1.b090e7f94c2p+15 82 7372 45 0",
    "pegwit/512 generic-ilp 01001001000000000000000000000000000000000000000 0x1.eb7d77b263eabp+20 0x1.3bb9bb9d5ee8p+17 138 10016 73 0",
    "pegwit/1024 generic-ilp 11101000000000000000000000000000000001100000000 0x1.2b0dbb8ff0f8cp+20 0x1.89a4f152ed36ep+18 10 471 8 1",
    "gsm/128 generic-ilp 000000000000010000010000000000000000000000000000000000000000000000000000000000001100000 0x1.0f5931705033cp+21 0x1.d5e6cdc8800ep+15 210 20953 108 1",
    "gsm/256 generic-ilp 000000000100110000000000000000000000000000000000000000000000 0x1.926dc7948cfe5p+20 0x1.a12acb1f717p+14 52 4074 30 0",
    "gsm/512 generic-ilp 000000010111111100000000000000000000000100011100000 0x1.2f19ea61ab2a5p+20 0x1.97b1fce6d6f18p+16 130 8129 68 1",
    "gsm/1024 generic-ilp 000011111111111100100000000000000001100011111000 0x1.e947ebf143cd4p+19 0x1.243125ba63ccap+17 10 473 8 1",
    "jpeg/128 generic-ilp 000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000110000000000 0x1.d34876d26da52p+22 0x1.9705170a07cp+16 274 28036 140 1",
    "jpeg/256 generic-ilp 0000010000000000001000000000000000000000000000000000000000000000000000000000001111000000000 0x1.98decc1161005p+22 0x1.5ee5a3cd7a88p+17 170 12748 88 1",
    "jpeg/512 generic-ilp 00000110000000011001100000000000000000000000000000000000000000000 0x1.36c8720b96bc2p+22 0x1.6d56ccf89abp+17 14 709 10 1",
    "jpeg/1024 generic-ilp 100111000011000011100000000000000000000000001111000000000 0x1.8b431e3fd8fep+21 0x1.5d61d9b19cc58p+19 76 3055 41 1",
    // clang-format on
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string row(const std::string& program, Bytes spm,
                const core::AllocationResult& a) {
  std::ostringstream os;
  os << program << '/' << spm << ' ' << core::to_string(a.engine_used) << ' ';
  for (const bool b : a.on_spm) os << (b ? '1' : '0');
  const ilp::SolveStats& s = a.solver_stats;
  os << ' ' << hex(a.predicted_energy) << ' ' << hex(s.root_gap) << ' '
     << s.nodes << ' ' << s.simplex_iterations << ' ' << s.bound_prunes << ' '
     << s.incumbent_updates;
  return os.str();
}

TEST(SolverGolden, Table1CasaInstancesKeepTheirSolverPath) {
  std::vector<std::string> got;
  for (const std::string& name : workloads::names()) {
    const prog::Program program = workloads::by_name(name);
    const report::Workbench bench(program);
    const cachesim::CacheConfig cache = workloads::paper_cache_for(name);
    for (const Bytes spm : workloads::paper_spm_sizes_for(name)) {
      const report::JobResult r =
          bench.evaluate(report::Workbench::Job::casa_job(cache, spm));
      ASSERT_TRUE(r.ok()) << name << '/' << spm << ": " << r.message;
      got.push_back(row(name, spm, r.value().alloc()));
    }
  }

  const std::vector<std::string> want(std::begin(kGolden), std::end(kGolden));
  std::ostringstream table;
  for (const std::string& line : got) table << "    \"" << line << "\",\n";
  ASSERT_EQ(got.size(), want.size()) << "recomputed table:\n" << table.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "recomputed table:\n" << table.str();
  }
}

}  // namespace
