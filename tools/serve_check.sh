#!/usr/bin/env bash
# Evaluation-service smoke gate (docs/serve.md).
#
# Drives casa_serve end-to-end over the JSON-lines protocol and holds the
# serving contract at the process boundary:
#   * run A: evaluate -> re-evaluate in one session — the second response
#     is flagged "hit" and is byte-identical to the miss apart from that
#     provenance tag (the warm-cache byte-identity contract), and the
#     stats line reconciles (requests/hits/misses/cache_entries);
#   * run B: a fresh process over run A's --persist directory — the first
#     response is already a "hit" served from the persisted casa-result v1
#     artifact, with the same outcome bytes as run A's miss;
#   * run C: the persisted artifact corrupted on disk — the service
#     degrades to a recompute (status ok, provenance miss, persist_errors
#     counted), never to a crash or a wrong answer;
#   * run D: a one-shot throw at fault.svc.admit — the faulted request
#     fails with error_kind "fault", and the same session then answers the
#     retry cleanly (the service outlives injected admission faults);
#   * run E: malformed requests (bad JSON, unknown op, empty batch, a
#     negative size, a 300k-deep nested array) — one error line each, and
#     the session keeps serving afterwards;
#   * run F: over --tcp, a request line of exactly the 1 MiB line limit is
#     served, a longer one answers with one error line and is discarded up
#     to its newline, and the same connection keeps serving;
#   * run G: values past 32 bits (associativity 2^32 + 2, max_regions
#     2^32) get one error line naming the key instead of wrapping, and a
#     genuine 2-way request afterwards is a miss, not a hit on an entry the
#     wrapped request left behind;
#   * run H: a batch of three LRU cache-only geometries, sent once
#     fault-free and once with fault.sim.finish throwing for job 1 — job 1
#     fails with error_kind "fault", and the other two result lines are
#     byte-identical to the fault-free session's;
#   * run I: "ilp_threads":100000, above the thread-pool cap — the job
#     fails with error_kind "precondition" instead of aborting the process,
#     and the same session then serves the next request; --threads above
#     the cap fails at startup;
#   * run J: job fields outside their ranges ("size" 130, 0 and 2^40, a
#     96 B and a 1 GiB cache, 3 ways, "max_regions" 4000000) — each job
#     fails with error_kind "precondition" and a message naming the key,
#     where they used to fail deep inside a stage or be served, and the
#     session then serves a valid job.
#
# Registered as a ctest (serve_check); exits 77 (ctest SKIP) on hosts
# without python3, hard-fails on a missing casa_serve binary.
#
# Usage:
#   tools/serve_check.sh [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname -- "$0")/.." && pwd)"
build_dir="$repo_root/build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="${2:?--build-dir needs a value}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

serve="$build_dir/tools/casa_serve"
if [[ ! -x "$serve" ]]; then
  echo "serve_check: FAIL — casa_serve binary missing: $serve" >&2
  echo "  build it first: cmake -B build -G Ninja && cmake --build build" >&2
  exit 1
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "serve_check: SKIP — python3 not found on this host" >&2
  exit 77
fi

workdir="$(mktemp -d /tmp/serve_check.XXXXXX)"
trap 'rm -rf "$workdir"' EXIT
persist="$workdir/persist"

job='{"kind":"steinke","size":256}'
evaluate="{\"op\":\"evaluate\",\"workload\":\"adpcm\",\"job\":$job}"

echo "serve_check: run A — warm-cache byte-identity in one session"
printf '%s\n' "$evaluate" "$evaluate" '{"op":"stats"}' \
  | "$serve" --persist="$persist" > "$workdir/a.txt"
python3 - "$workdir/a.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
results = [l for l in lines if l.get("reply") == "result"]
assert len(results) == 2, f"expected 2 results, got {len(results)}"
miss, hit = results
assert miss["status"] == "ok" and miss["provenance"] == "miss", miss
assert hit["status"] == "ok" and hit["provenance"] == "hit", hit
raw = [l for l in open(sys.argv[1]) if '"reply":"result"' in l]
normalized = raw[1].replace('"provenance":"hit"', '"provenance":"miss"')
assert normalized == raw[0], "hit response differs beyond the provenance tag"
stats = [l for l in lines if l.get("reply") == "stats"][0]
assert stats["requests"] == 2 and stats["hits"] == 1 and stats["misses"] == 1
assert stats["cache_entries"] == 1, stats
print("serve_check: run A ok — hit byte-identical to miss up to provenance")
EOF
miss_line="$(grep '"provenance":"miss"' "$workdir/a.txt")"

echo "serve_check: run B — persisted artifact served across processes"
printf '%s\n' "$evaluate" '{"op":"stats"}' \
  | "$serve" --persist="$persist" > "$workdir/b.txt"
python3 - "$workdir/b.txt" "$miss_line" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
result = [l for l in lines if l.get("reply") == "result"][0]
assert result["status"] == "ok" and result["provenance"] == "hit", result
assert result["outcome"] == json.loads(sys.argv[2])["outcome"], \
    "persisted outcome differs from the originally computed one"
stats = [l for l in lines if l.get("reply") == "stats"][0]
assert stats["persist_loads"] == 1 and stats["misses"] == 0, stats
print("serve_check: run B ok — cold process hit from casa-result v1")
EOF

echo "serve_check: run C — corrupted persistence degrades to recompute"
for f in "$persist"/*.json; do
  head -c 40 "$f" > "$f.tmp" && mv "$f.tmp" "$f"
done
printf '%s\n' "$evaluate" '{"op":"stats"}' \
  | "$serve" --persist="$persist" > "$workdir/c.txt"
python3 - "$workdir/c.txt" "$miss_line" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
result = [l for l in lines if l.get("reply") == "result"][0]
assert result["status"] == "ok" and result["provenance"] == "miss", result
assert result["outcome"] == json.loads(sys.argv[2])["outcome"], \
    "recomputed outcome differs from the original"
stats = [l for l in lines if l.get("reply") == "stats"][0]
assert stats["persist_errors"] == 1, stats
print("serve_check: run C ok — corrupt artifact recomputed, error counted")
EOF

echo "serve_check: run D — admission fault contained to one request"
printf '%s\n' "$evaluate" "$evaluate" '{"op":"stats"}' \
  | "$serve" --fault-spec='site=fault.svc.admit,action=throw,count=1' \
  > "$workdir/d.txt"
python3 - "$workdir/d.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
results = [l for l in lines if l.get("reply") == "result"]
assert len(results) == 2, results
assert results[0]["status"] == "failed", results[0]
assert results[0]["error_kind"] == "fault", results[0]
assert results[1]["status"] == "ok" and results[1]["provenance"] == "miss"
stats = [l for l in lines if l.get("reply") == "stats"][0]
assert stats["requests"] == 2, stats
print("serve_check: run D ok — faulted request failed alone, service alive")
EOF

echo "serve_check: run E — malformed requests answered, session survives"
deep="$(python3 -c 'print("[" * 300000)')"
printf '%s\n' 'this is not json' '{"op":"teleport"}' \
  '{"op":"batch","workload":"adpcm","jobs":[]}' \
  '{"op":"evaluate","workload":"adpcm","job":{"kind":"steinke","size":-1}}' \
  "$deep" '{"op":"stats"}' \
  | "$serve" > "$workdir/e.txt"
python3 - "$workdir/e.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
errors = [l for l in lines if l.get("reply") == "error"]
assert len(errors) == 5, f"expected 5 error lines, got {len(errors)}"
stats = [l for l in lines if l.get("reply") == "stats"]
assert len(stats) == 1, "stats must still be answered after bad requests"
print("serve_check: run E ok — five error lines, then normal service")
EOF

echo "serve_check: run F — overlong TCP request line refused, connection survives"
python3 - "$serve" << 'EOF'
import json, socket, subprocess, sys, time
serve = sys.argv[1]
probe = socket.socket()
probe.bind(("127.0.0.1", 0))
port = probe.getsockname()[1]
probe.close()
server = subprocess.Popen([serve, f"--tcp={port}"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
try:
    deadline = time.time() + 30
    while True:
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=60)
            break
        except OSError:
            if time.time() > deadline or server.poll() is not None:
                raise
            time.sleep(0.05)
    limit = 1 << 20
    stats = b'{"op":"stats"}'
    at_limit = b" " * (limit - len(stats)) + stats
    conn.sendall(at_limit + b"\n" + b"x" * (2 * limit) + b"\n" + stats + b"\n")
    reader = conn.makefile("rb")
    replies = [json.loads(reader.readline()) for _ in range(3)]
    conn.close()
finally:
    server.terminate()
    server.wait(timeout=10)
kinds = [r["reply"] for r in replies]
assert kinds == ["stats", "error", "stats"], replies
assert "exceeds" in replies[1]["message"], replies[1]
print("serve_check: run F ok — 1 MiB line served, longer line refused once")
EOF

echo "serve_check: run G — values past 32 bits refused, no aliased cache entry"
wide_assoc='{"op":"evaluate","workload":"adpcm","job":{"kind":"cache_only","cache":{"size":1024,"line_size":16,"associativity":4294967298}}}'
wide_regions='{"op":"evaluate","workload":"adpcm","job":{"kind":"loopcache","size":256,"max_regions":4294967296}}'
two_way='{"op":"evaluate","workload":"adpcm","job":{"kind":"cache_only","cache":{"size":1024,"line_size":16,"associativity":2}}}'
printf '%s\n' "$wide_assoc" "$wide_regions" "$two_way" '{"op":"stats"}' \
  | "$serve" > "$workdir/g.txt"
python3 - "$workdir/g.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
errors = [l for l in lines if l.get("reply") == "error"]
assert len(errors) == 2, f"expected 2 error lines, got {lines}"
assert "associativity" in errors[0]["message"], errors[0]
assert "max_regions" in errors[1]["message"], errors[1]
results = [l for l in lines if l.get("reply") == "result"]
assert len(results) == 1 and results[0]["status"] == "ok", results
assert results[0]["provenance"] == "miss", results[0]
stats = [l for l in lines if l.get("reply") == "stats"]
assert len(stats) == 1, lines
assert stats[0]["requests"] == 1 and stats[0]["hits"] == 0, stats[0]
assert stats[0]["cache_entries"] == 1, stats[0]
print("serve_check: run G ok — both refused by key, the 2-way request missed")
EOF

echo "serve_check: run H — a faulted batch job fails alone, the rest exact"
cache_only() {
  printf '{"kind":"cache_only","cache":{"size":%s,"line_size":16,"associativity":%s}}' "$1" "$2"
}
batch="{\"op\":\"batch\",\"workload\":\"adpcm\",\"jobs\":[$(cache_only 256 1),$(cache_only 512 2),$(cache_only 1024 4)]}"
printf '%s\n' "$batch" | "$serve" > "$workdir/h_clean.txt"
printf '%s\n' "$batch" \
  | "$serve" --fault-spec='site=fault.sim.finish,action=throw,arg=1' \
      > "$workdir/h_fault.txt"
python3 - "$workdir" << 'EOF'
import json, sys
d = sys.argv[1]
def results(name):
    return [l for l in open(f"{d}/{name}") if '"reply":"result"' in l]
clean, faulted = results("h_clean.txt"), results("h_fault.txt")
assert len(clean) == 3 and len(faulted) == 3, (clean, faulted)
for line in clean:
    assert json.loads(line)["status"] == "ok", line
failed = json.loads(faulted[1])
assert failed["status"] == "failed", failed
assert failed["error_kind"] == "fault", failed
assert [faulted[0], faulted[2]] == [clean[0], clean[2]], \
    "bystander results differ from the fault-free session"
print("serve_check: run H ok — job 1 failed as a fault, two results byte-identical")
EOF

echo "serve_check: run I — a thread count above the pool cap is refused"
huge='{"op":"evaluate","workload":"adpcm","job":{"kind":"casa","size":512,"casa":{"ilp_threads":100000}}}'
printf '%s\n' "$huge" "$evaluate" '{"op":"stats"}' \
  | "$serve" > "$workdir/i.txt"
python3 - "$workdir/i.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
results = [l for l in lines if l.get("reply") == "result"]
assert len(results) == 2, lines
assert results[0]["status"] == "failed", results[0]
assert results[0]["error_kind"] == "precondition", results[0]
assert results[1]["status"] == "ok", results[1]
assert len([l for l in lines if l.get("reply") == "stats"]) == 1, lines
print("serve_check: run I ok — refused as a precondition, session alive")
EOF
if "$serve" --threads=1025 < /dev/null 2> "$workdir/i_threads.txt"; then
  echo "serve_check: FAIL — --threads above the pool cap was accepted" >&2
  exit 1
fi
if ! grep -q "above the limit" "$workdir/i_threads.txt"; then
  echo "serve_check: FAIL — --threads refusal does not name the limit:" >&2
  cat "$workdir/i_threads.txt" >&2
  exit 1
fi
echo "serve_check: run I ok — --threads above the cap refused at startup"

echo "serve_check: run J — job fields outside their ranges refused by key"
job_line() {
  printf '{"op":"evaluate","workload":"adpcm","job":%s}\n' "$1"
}
{
  job_line '{"kind":"casa","size":130}'
  job_line '{"kind":"casa","size":0}'
  job_line '{"kind":"steinke","size":1099511627776}'
  job_line '{"kind":"cache_only","cache":{"size":96,"line_size":16}}'
  job_line '{"kind":"cache_only","cache":{"size":1073741824,"line_size":16}}'
  job_line '{"kind":"casa","size":256,"cache":{"size":1024,"line_size":16,"associativity":3}}'
  job_line '{"kind":"loopcache","size":256,"max_regions":4000000}'
  printf '%s\n' "$evaluate" '{"op":"stats"}'
} | "$serve" > "$workdir/j.txt"
python3 - "$workdir/j.txt" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
results = [l for l in lines if l.get("reply") == "result"]
named = ["job 'size' = 130", "job 'size' = 0", "job 'size' = 1099511627776",
         "cache 'size' = 96", "cache 'size' = 1073741824",
         "cache 'associativity' = 3", "job 'max_regions' = 4000000"]
assert len(results) == len(named) + 1, lines
for r, key in zip(results, named):
    assert r["status"] == "failed", r
    assert r["error_kind"] == "precondition", r
    assert key in r["message"], (key, r)
assert results[-1]["status"] == "ok", results[-1]
assert len([l for l in lines if l.get("reply") == "stats"]) == 1, lines
print("serve_check: run J ok — seven jobs refused by key, session alive")
EOF

echo "serve_check: PASS"
