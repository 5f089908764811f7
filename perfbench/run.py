#!/usr/bin/env python3
"""Whole-experiment benchmark for the CASA pipeline.

Builds casa_perfbench and casa_serve (Release) from the sources one directory
up into .bench_build/ at the repository root, runs one workload, checks its
outputs against the committed reference wherever it holds them, and prints
one JSON result line last:

    python3 perfbench/run.py --workload paper_suite --seed 42 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 prints
the per-layer metrics of a separate traced run. README.md in this directory
explains the workloads and metrics. --write-reference regenerates the
reference digests for seed 42 after cross-checking every output.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_suite", "dse_sweep", "serve_session")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "req_p50_ms", "req_p99_ms")
RUN_TIMEOUT_S = 170
REFERENCE_SEED = 42


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds casa_perfbench and casa_serve; returns the
    paths of both executables."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no CASA sources next to perfbench/")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as fh:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode:
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(f"perfbench: configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "--target", "casa_perfbench",
               "casa_serve", "-j", jobs]
        if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode:
            sys.exit(f"perfbench: build failed, see {log}")
    return out / "casa_perfbench", out / "casa_tools" / "casa_serve"


def read_digests(path):
    digests = {}
    with open(path) as fh:
        for line in fh:
            label, _, digest = line.rstrip("\n").partition("\t")
            digests[label] = digest
    return digests


def reference_path(workload):
    return HERE / "reference" / f"{workload}.tsv"


def compare_reference(workload, seed, digests):
    """Returns (outputs compared, mismatch descriptions). Every output whose
    label (profile seed and job) is in the committed reference is compared.
    paper_suite and serve_session always run the default profile, so every
    seed's outputs are; dse_sweep's profiles follow the seed, so only seed
    42's are, and other seeds rely on casa_perfbench's in-process
    cross-check of a seeded sample."""
    ref = reference_path(workload)
    expected = read_digests(ref) if ref.is_file() else {}
    compared = [label for label in digests if label in expected]
    bad = [f"{label}: {digests[label]} != reference {expected[label]}"
           for label in compared if digests[label] != expected[label]]
    if seed == REFERENCE_SEED and not compared:
        bad.append("no output of this run is in the reference")
    return len(compared), bad


def run_bench(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: workload timed out")
    if proc.returncode != 0:
        sys.exit(f"perfbench: casa_perfbench exited with {proc.returncode}")
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="cross-check every output and rewrite the seed-42 "
                         "reference digests")
    args = ap.parse_args()
    if args.write_reference and (args.seed != REFERENCE_SEED or args.trace):
        sys.exit("perfbench: --write-reference needs --seed 42 --trace 0")

    out = build_dir()
    binary, serve = build(out)
    digests_path = out / f"digests-{args.workload}-{args.trace}.tsv"
    if digests_path.exists():
        digests_path.unlink()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-bin={serve}", f"--digests={digests_path}"]
    if args.write_reference:
        cmd.append("--check-all")
    lines = run_bench(cmd, 3600 if args.write_reference else RUN_TIMEOUT_S)
    if not lines:
        sys.exit("perfbench: casa_perfbench printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    digests = read_digests(digests_path)

    failed = int(result["failed"])
    if args.write_reference:
        if failed:
            sys.exit("perfbench: not writing a reference from a failing run")
        ref = reference_path(args.workload)
        ref.parent.mkdir(exist_ok=True)
        with open(ref, "w") as fh:
            for label in sorted(digests):
                fh.write(f"{label}\t{digests[label]}\n")
        print(f"wrote {len(digests)} digests to {ref}")
    else:
        compared, bad = compare_reference(args.workload, args.seed, digests)
        for why in bad[:20]:
            print("REFERENCE MISMATCH:", why)
        failed += len(bad)
        print(f"compared {compared} of {len(digests)} outputs with the "
              "reference")

    metrics = result["metrics"]
    complete = all(math.isfinite(m["value"]) for m in metrics.values())
    if not args.trace:
        complete = complete and all(name in metrics for name in END_TO_END)
    print(json.dumps({
        "correct": failed == 0 and complete and bool(digests),
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
