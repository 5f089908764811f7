#!/usr/bin/env bash
# Benchmark regression gate.
#
# Runs build/bench/cachesim_throughput with a short measurement window and
# compares every benchmark's items_per_second against the checked-in
# baseline (BENCH_cachesim.json at the repo root). Fails when any benchmark
# regresses by more than TOLERANCE (default 20%). Also asserts ten
# current-run invariants, each a ratio of two kernels from the same run:
#   - BM_ConflictGraphBuild >= 2x BM_ConflictGraphBuildWordRef (compiled
#     streams);
#   - BM_ConflictGraphBuild and BM_ConflictGraphBuildTwoWay >= 2x
#     BM_ConflictGraphBuildTwoWayFifo, and BM_HierarchySimulation and
#     BM_HierarchySimulationTwoWay >= 2x BM_HierarchySimulationTwoWayFifo
#     (mpeg's 1-way paper cache and its 2-way LRU twin replay on the tag
#     models, the 2-way FIFO twin on the generic Cache, so a silent
#     fallback fails);
#   - BM_HierarchySimulation >= 1.3x BM_HierarchySimulationFlatWalk (mpeg's
#     walk along its repeat schedule against the same walk with the
#     schedule cleared, so a replay that stops taking the schedule fails);
#   - BM_StackSweep >= 3x BM_StackSweepPerConfigRef (one-pass
#     multi-config simulation);
#   - BM_TraceOverheadNull >= 0.85x BM_TraceOverheadOff (a detached
#     obs::Span is within measurement noise of no span at all);
#   - BM_FaultCheckOff >= 0.85x BM_TraceOverheadOff (a disarmed fault::at
#     site is one relaxed load);
#   - BM_ServeCacheHit >= 10x BM_ServeCacheMiss (a content-addressed
#     serve-cache hit beats recomputing the job).
#
# The baseline records the CMAKE_BUILD_TYPE of the build tree it was taken
# from (read from CMakeCache.txt, NOT from google-benchmark's self-reported
# library_build_type, which describes the benchmark library only). A
# compare run against a tree built with a different CMAKE_BUILD_TYPE fails
# immediately: Debug-vs-Release throughput deltas would otherwise drown any
# real regression.
#
# Additionally runs the solver benchmark (build/bench/ilp_runtime) and
# gates its search effort. BM_GenericIlpWarmStarted (the production solver
# configuration on the largest bundled workload) is gated on wall-clock
# (same tolerance) and the explored-node counter: node counts are
# deterministic, so ANY increase over the baseline fails. The solver-path
# entries BM_SpecializedBnB/g721_1024 (Table 1's longest proof),
# BM_SpecializedBnB/mpeg_L16_1K_2w_1024 (a dense sweep instance on which
# the Lagrangian bound backs off) and BM_GenericIlpTight/g721_512 are
# gated on exact equality of `nodes` and `simplex_iterations`: the kernels
# promise a bit-identical search (docs/solver.md, "Bit-exact kernel
# contract"), so a changed branching order or pivot path fails here even
# when nothing gets slower. Their wall-clock is reported, not gated. An
# intentional search-strategy change must re-record with --update.
#
# BM_ParallelSweep is measured but only reported, never gated — its
# items/sec depends on the host's core count, which the baseline can't know.
#
# Usage:
#   tools/bench_check.sh [--update] [--build-dir DIR]
#     --update      rewrite BENCH_cachesim.json from this run instead of
#                   comparing (use after an intentional perf change)
#     --build-dir   where the bench binary lives (default: build)
#
# Environment:
#   BENCH_MIN_TIME  --benchmark_min_time value (default 0.2; this repo's
#                   google-benchmark wants a plain double, no "s" suffix)
#   BENCH_TOLERANCE allowed fractional regression (default 0.20)
set -euo pipefail

repo_root="$(cd "$(dirname -- "$0")/.." && pwd)"
build_dir="$repo_root/build"
update=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --update) update=1; shift ;;
    --build-dir) build_dir="${2:?--build-dir needs a value}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

bench_bin="$build_dir/bench/cachesim_throughput"
solver_bin="$build_dir/bench/ilp_runtime"
solver_filter="BM_GenericIlpWarmStarted|BM_SpecializedBnB/g721_1024$|BM_SpecializedBnB/mpeg_L16_1K_2w_1024$|BM_GenericIlpTight/g721_512$"
baseline="$repo_root/BENCH_cachesim.json"
min_time="${BENCH_MIN_TIME:-0.2}"
tolerance="${BENCH_TOLERANCE:-0.20}"

# The build tree's actual configuration. An unset CMAKE_BUILD_TYPE is
# recorded as "" and only matches a baseline recorded the same way.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  echo "bench_check: FAIL — no CMakeCache.txt in $build_dir" >&2
  echo "  is --build-dir pointing at a configured build tree?" >&2
  exit 1
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
              "$build_dir/CMakeCache.txt" | head -n 1)"

# Missing prerequisites are gate failures, not soft skips: a CI lane that
# forgets to build the bench binary or check in the baseline must go red,
# loudly, naming what is missing.
for bin in "$bench_bin" "$solver_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_check: FAIL — benchmark binary missing: $bin" >&2
    echo "  build it first: cmake -B build -G Ninja && cmake --build build" >&2
    exit 1
  fi
done

run_json="$(mktemp /tmp/bench_check.XXXXXX.json)"
solver_json="$(mktemp /tmp/bench_check_solver.XXXXXX.json)"
trap 'rm -f "$run_json" "$solver_json"' EXIT

echo "bench_check: running $bench_bin (--benchmark_min_time=$min_time)"
"$bench_bin" --benchmark_min_time="$min_time" \
             --benchmark_format=json \
             --benchmark_out="$run_json" \
             --benchmark_out_format=json > /dev/null

echo "bench_check: running $solver_bin (--benchmark_filter=$solver_filter)"
"$solver_bin" --benchmark_filter="$solver_filter" \
              --benchmark_min_time="$min_time" \
              --benchmark_format=json \
              --benchmark_out="$solver_json" \
              --benchmark_out_format=json > /dev/null

if [[ "$update" -eq 1 ]]; then
  python3 - "$run_json" "$solver_json" "$baseline" "$build_type" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
solver = json.load(open(sys.argv[2]))
out = {
    "_comment": ("Throughput baseline for tools/bench_check.sh. "
                 "items_per_second from ./build/bench/cachesim_throughput on "
                 "the recording host; regenerate with tools/bench_check.sh "
                 "--update after intentional perf changes. context.build_type "
                 "is the recording tree's CMAKE_BUILD_TYPE; compares against "
                 "a differently-configured tree fail outright."),
    "context": {
        "host_cpus": run["context"]["num_cpus"],
        "build_type": sys.argv[4],
    },
    "benchmarks": {
        b["name"]: round(b["items_per_second"], 1)
        for b in run["benchmarks"] if "items_per_second" in b
    },
    "solver": {
        b["name"]: {
            "real_time_ns": round(b["real_time"], 1),
            "nodes": int(b["nodes"]),
            "simplex_iterations": int(b["simplex_iterations"]),
        }
        for b in solver["benchmarks"] if "nodes" in b
    },
}
json.dump(out, open(sys.argv[3], "w"), indent=2)
print(f"bench_check: baseline updated ({len(out['benchmarks'])} throughput, "
      f"{len(out['solver'])} solver entries, "
      f"build_type={sys.argv[4] or '(unset)'})")
EOF
  exit 0
fi

if [[ ! -f "$baseline" ]]; then
  echo "bench_check: FAIL — baseline missing: $baseline" >&2
  echo "  record one with: tools/bench_check.sh --update" >&2
  exit 1
fi

python3 - "$run_json" "$solver_json" "$baseline" "$tolerance" "$build_type" <<'EOF'
import json, sys

run = json.load(open(sys.argv[1]))
solver_run = json.load(open(sys.argv[2]))
base = json.load(open(sys.argv[3]))
tol = float(sys.argv[4])
build_type = sys.argv[5]

# Hard gate, checked first: throughput numbers from differently-configured
# trees are not comparable, so a build-type mismatch fails before any ratio
# is even looked at.
base_build_type = base.get("context", {}).get("build_type")
if base_build_type is None:
    print("bench_check: FAIL\n  - baseline records no context.build_type; "
          "re-record it with tools/bench_check.sh --update")
    sys.exit(1)
if base_build_type != build_type:
    print("bench_check: FAIL\n"
          f"  - build type mismatch: baseline was recorded from a "
          f"{base_build_type or '(unset)'} tree but this run used a "
          f"{build_type or '(unset)'} tree\n"
          "    compare with a matching -DCMAKE_BUILD_TYPE build, or "
          "re-record via tools/bench_check.sh --update")
    sys.exit(1)
print(f"build type: {build_type or '(unset)'} (matches baseline)")

current = {b["name"]: b["items_per_second"]
           for b in run["benchmarks"] if "items_per_second" in b}

failures = []
# An empty side means the gate cannot gate anything — that is a failure
# (a crashed bench run or a gutted baseline must not read as "all clear").
if not base.get("benchmarks"):
    failures.append(f"baseline {sys.argv[2]} contains no benchmarks")
if not current:
    failures.append("benchmark run produced no items_per_second entries")
print(f"{'benchmark':44} {'baseline':>14} {'current':>14} {'ratio':>7}")
for name, expected in base["benchmarks"].items():
    got = current.get(name)
    if got is None:
        failures.append(f"{name}: missing from this run")
        continue
    ratio = got / expected
    gated = not name.startswith("BM_ParallelSweep")
    note = "" if gated else "  (informational — host-core dependent)"
    print(f"{name:44} {expected:14.3e} {got:14.3e} {ratio:6.2f}x{note}")
    if gated and ratio < 1.0 - tol:
        failures.append(
            f"{name}: {got:.3e} items/s is {100 * (1 - ratio):.1f}% below "
            f"baseline {expected:.3e} (tolerance {100 * tol:.0f}%)")

# Compiled-stream invariant: the line-granular path must keep its >= 2x
# advantage over the word-granular reference on the same inputs.
fast = current.get("BM_ConflictGraphBuild")
ref = current.get("BM_ConflictGraphBuildWordRef")
if fast and ref:
    speedup = fast / ref
    print(f"\ncompiled-stream speedup (conflict build): {speedup:.2f}x")
    if speedup < 2.0:
        failures.append(
            f"compiled-stream speedup {speedup:.2f}x < 2.0x required")
elif current:
    # The invariant's inputs disappearing is itself a regression signal.
    for name in ("BM_ConflictGraphBuild", "BM_ConflictGraphBuildWordRef"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the compiled-stream speedup "
                "invariant but absent from this run")

# Tag-model invariants: mpeg's paper cache is 1-way, so its line replays
# run on cachesim::LruTags<1>, and its 2-way LRU twins on LruTags<2>; the
# TwoWayFifo twins replay the same stream at 2 FIFO ways through the
# generic Cache. Each tag-model kernel must stay >= 2x its FIFO twin, so a
# replay that silently falls back to the generic path fails here.
for fast_name, ref_name, what in (
        ("BM_ConflictGraphBuild", "BM_ConflictGraphBuildTwoWayFifo",
         "conflict build, 1-way"),
        ("BM_ConflictGraphBuildTwoWay", "BM_ConflictGraphBuildTwoWayFifo",
         "conflict build, 2-way LRU"),
        ("BM_HierarchySimulation", "BM_HierarchySimulationTwoWayFifo",
         "hierarchy simulation, 1-way"),
        ("BM_HierarchySimulationTwoWay", "BM_HierarchySimulationTwoWayFifo",
         "hierarchy simulation, 2-way LRU")):
    fast = current.get(fast_name)
    ref = current.get(ref_name)
    if fast and ref:
        speedup = fast / ref
        print(f"tag-model speedup ({what} vs 2-way FIFO): {speedup:.2f}x")
        if speedup < 2.0:
            failures.append(
                f"tag-model {what} speedup {speedup:.2f}x < 2.0x required")
    elif current:
        for name in (fast_name, ref_name):
            if not current.get(name):
                failures.append(
                    f"{name}: required by the tag-model speedup "
                    "invariant but absent from this run")

# Repeat-schedule invariant: mpeg's 1-way simulation replays each run of
# equal loop iterations once, weighted (memsim/replay.hpp); the FlatWalk
# twin replays the same walk with its schedule cleared. 1.6-1.7x on the
# recording host; a kernel that ignores the schedule reads about 1.0x.
fast = current.get("BM_HierarchySimulation")
ref = current.get("BM_HierarchySimulationFlatWalk")
if fast and ref:
    speedup = fast / ref
    print(f"repeat-schedule speedup (hierarchy simulation): {speedup:.2f}x")
    if speedup < 1.3:
        failures.append(
            f"repeat-schedule speedup {speedup:.2f}x < 1.3x required")
elif current:
    for name in ("BM_HierarchySimulation", "BM_HierarchySimulationFlatWalk"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the repeat-schedule speedup "
                "invariant but absent from this run")

# Null-tracer invariant: with no registry and no tracer attached, an
# obs::Span must cost one relaxed atomic load — the instrumented hot paths
# may not slow down when tracing is off. Both variants run the same mix
# kernel, so their ratio isolates the Span construction cost; >= 0.85
# allows measurement noise and nothing more.
fast = current.get("BM_TraceOverheadNull")
ref = current.get("BM_TraceOverheadOff")
if fast and ref:
    ratio = fast / ref
    print(f"null-tracer overhead (Null/Off): {ratio:.2f}x")
    if ratio < 0.85:
        failures.append(
            f"null-tracer span path {ratio:.2f}x of the bare kernel "
            "(>= 0.85x required — tracing-off must stay within noise)")
elif current:
    for name in ("BM_TraceOverheadNull", "BM_TraceOverheadOff"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the null-tracer overhead invariant "
                "but absent from this run")

# Disarmed-injection invariant: a fault::at site with no spec armed must
# cost one relaxed atomic load, exactly like the detached span. Both
# variants run the same mix kernel; >= 0.85 allows measurement noise and
# nothing more (measured ~1.0x on the recording host).
fast = current.get("BM_FaultCheckOff")
ref = current.get("BM_TraceOverheadOff")
if fast and ref:
    ratio = fast / ref
    print(f"disarmed fault-site overhead (FaultCheckOff/Off): {ratio:.2f}x")
    if ratio < 0.85:
        failures.append(
            f"disarmed fault-site path {ratio:.2f}x of the bare kernel "
            "(>= 0.85x required — injection-off must stay within noise)")
elif current:
    for name in ("BM_FaultCheckOff", "BM_TraceOverheadOff"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the disarmed fault-site overhead "
                "invariant but absent from this run")

# One-pass sweep invariant: replaying a fetch stream once through the
# stack-distance engine must stay >= 3x faster than simulating the same
# 16-config family one Cache at a time.
fast = current.get("BM_StackSweep")
ref = current.get("BM_StackSweepPerConfigRef")
if fast and ref:
    speedup = fast / ref
    print(f"one-pass sweep speedup (16-config family): {speedup:.2f}x")
    if speedup < 3.0:
        failures.append(
            f"one-pass sweep speedup {speedup:.2f}x < 3.0x required")
elif current:
    for name in ("BM_StackSweep", "BM_StackSweepPerConfigRef"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the one-pass sweep speedup "
                "invariant but absent from this run")

# Serve-cache invariant: a content-addressed hit (key + LRU lookup +
# stored-bytes copy) must stay >= 10x faster than recomputing the same job
# through the pipeline — the ratio the evaluation service exists to
# deliver. Measured ~3000x on the recording host; 10x leaves room for any
# realistic host while still catching a cache that silently recomputes.
fast = current.get("BM_ServeCacheHit")
ref = current.get("BM_ServeCacheMiss")
if fast and ref:
    speedup = fast / ref
    print(f"serve-cache speedup (hit vs recompute): {speedup:.1f}x")
    if speedup < 10.0:
        failures.append(
            f"serve-cache hit speedup {speedup:.1f}x < 10.0x required")
elif current:
    for name in ("BM_ServeCacheHit", "BM_ServeCacheMiss"):
        if not current.get(name):
            failures.append(
                f"{name}: required by the serve-cache speedup invariant "
                "but absent from this run")

# Solver gate: wall-clock within tolerance, explored nodes never above the
# recorded baseline (the search is deterministic — more nodes means the
# search strategy regressed, not the host). The solver-path entries must
# reproduce their node and pivot counts exactly instead.
exact_path = {"BM_SpecializedBnB/g721_1024",
              "BM_SpecializedBnB/mpeg_L16_1K_2w_1024",
              "BM_GenericIlpTight/g721_512"}
solver_current = {b["name"]: b for b in solver_run.get("benchmarks", [])
                  if "nodes" in b}
solver_base = base.get("solver", {})
if not solver_base:
    failures.append(f"baseline {sys.argv[3]} contains no solver entries "
                    "(record with tools/bench_check.sh --update)")
if not solver_current:
    failures.append("solver benchmark run produced no node-counted entries")
print()
for name in sorted(exact_path - solver_base.keys()):
    failures.append(f"{name}: solver-path entry missing from the baseline "
                    "(record with tools/bench_check.sh --update)")
for name, expected in solver_base.items():
    got = solver_current.get(name)
    if got is None:
        failures.append(f"{name}: missing from the solver run")
        continue
    t_ratio = got["real_time"] / expected["real_time_ns"]
    print(f"{name:44} time {expected['real_time_ns']:12.3e} -> "
          f"{got['real_time']:12.3e} ns ({t_ratio:.2f}x)   "
          f"nodes {expected['nodes']} -> {int(got['nodes'])}   "
          f"pivots {expected.get('simplex_iterations', '-')} -> "
          f"{int(got.get('simplex_iterations', 0))}")
    if name in exact_path:
        for counter in ("nodes", "simplex_iterations"):
            want = expected.get(counter)
            have = int(got.get(counter, -1))
            if want != have:
                failures.append(
                    f"{name}: {counter} {have}, baseline {want} — the "
                    "solver path changed (bit-exact kernel contract)")
        continue
    if t_ratio > 1.0 + tol:
        failures.append(
            f"{name}: {got['real_time']:.3e} ns is "
            f"{100 * (t_ratio - 1):.1f}% above baseline "
            f"{expected['real_time_ns']:.3e} (tolerance {100 * tol:.0f}%)")
    if int(got["nodes"]) > expected["nodes"]:
        failures.append(
            f"{name}: explored {int(got['nodes'])} nodes, baseline is "
            f"{expected['nodes']} — search-effort regression")

if failures:
    print("\nbench_check: FAIL")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("\nbench_check: OK")
EOF
