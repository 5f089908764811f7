#!/usr/bin/env bash
# Golden-stdout gate for the experiments perfbench never runs.
#
# Runs each program below from the build tree and diffs its stdout against
# tools/golden/<program>.txt. Every program is seeded and single-threaded,
# so its output is byte-stable across runs and build types; a diff means a
# counter, an energy or a chosen allocation moved. Together they cover the
# replays the perf benchmark skips: the loop-cache flow (fig5), the
# two-level hierarchy (l2_hierarchy), overlay profiling and simulation
# (overlay_vs_static, overlay_phases) and the data-side profile
# (unified_code_data), plus Table 1.
#
# To re-record one program after an intended output change, run it and
# overwrite its golden file, e.g.
#   build/bench/l2_hierarchy > tools/golden/l2_hierarchy.txt
# and say in CHANGES.md which rows changed and why.
#
# Registered as a ctest (output_check); hard-fails on a missing binary.
#
# Usage:
#   tools/output_check.sh [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname -- "$0")/.." && pwd)"
build_dir="$repo_root/build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="${2:?--build-dir needs a value}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

programs=(
  bench/table1_energy
  bench/fig5_casa_vs_loopcache
  bench/l2_hierarchy
  bench/overlay_vs_static
  bench/unified_code_data
  examples/overlay_phases
)

out="$(mktemp /tmp/output_check.XXXXXX.txt)"
trap 'rm -f "$out"' EXIT

failures=0
for program in "${programs[@]}"; do
  name="$(basename -- "$program")"
  bin="$build_dir/$program"
  golden="$repo_root/tools/golden/$name.txt"
  if [[ ! -x "$bin" ]]; then
    echo "output_check: FAIL — binary missing: $bin" >&2
    failures=$((failures + 1))
    continue
  fi
  "$bin" > "$out"
  if diff -u "$golden" "$out"; then
    echo "output_check: ok   $name"
  else
    echo "output_check: FAIL $name differs from tools/golden/$name.txt" >&2
    failures=$((failures + 1))
  fi
done

if [[ $failures -gt 0 ]]; then
  echo "output_check: $failures of ${#programs[@]} programs FAILED" >&2
  exit 1
fi
echo "output_check: all ${#programs[@]} outputs match"
