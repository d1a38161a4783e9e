#!/usr/bin/env sh
# End-to-end observability smoke test: boot krsp_serve --catalog with
# --trace-out on a temporary Unix socket, drive it with krsp_loadgen
# --topology --check --latency-out, probe the `metrics` wire op and the
# per-request `timing` flag over the raw socket, shut the server down,
# then validate every exported artifact:
#   * the Chrome trace is valid JSON and contains the span taxonomy the
#     serving path promises (phase1, cycle_cancel_round, residual_rebuild,
#     bicameral_find, budget_pass, queue_wait, cache_lookup, admission);
#   * the metrics exposition carries per-SLA-class latency quantiles;
#   * a timing-flagged solve response breaks its latency down;
#   * the load generator's --latency-out CSV has the documented header
#     and one served row per request.
#
#   usage: obs_smoke.sh <krsp_serve> <krsp_loadgen> <krsp_gen> <krsp_pack>
set -eu

SERVE="$1"
LOADGEN="$2"
GEN="$3"
PACK="$4"

DIR="$(mktemp -d /tmp/krsp_obs.XXXXXX)"
SOCK="$DIR/krsp.sock"
CATALOG="$DIR/catalog"
TRACE="$DIR/trace.json"
LATENCY="$DIR/latency.csv"
mkdir -p "$CATALOG"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# A small catalog entry solved in scaled mode: large enough that the
# solver runs phase 1, the RSP oracle, and cycle cancellation (so their
# spans must appear), small enough to stay fast.
"$GEN" --family=waxman --n=40 --k=2 --slack=0.35 --seed=77 \
       --out="$DIR/waxman.kri" >/dev/null
"$PACK" --in="$DIR/waxman.kri" --out="$CATALOG/waxman40.krspb" >/dev/null

"$SERVE" --socket="$SOCK" --threads=2 --max-pending=64 \
         --catalog="$CATALOG" --trace-out="$TRACE" &
SERVER_PID=$!

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "obs_smoke: server never bound $SOCK" >&2
    exit 1
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "obs_smoke: server exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done

# Traffic that exercises the full serving path (admission, cache lookup,
# engine queue, solve) with per-request latencies exported.
"$LOADGEN" --socket="$SOCK" --catalog="$CATALOG" --topology=waxman40 \
  --requests=12 --connections=2 --mode=scaled --check \
  --latency-out="$LATENCY"

# Raw-socket probes: the metrics op and a timing-flagged solve.
python3 - "$SOCK" <<'EOF'
import json
import socket
import sys


def rpc(sock_path, request):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock_path)
    s.sendall((json.dumps(request) + "\n").encode())
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    s.close()
    return json.loads(buf)


sock = sys.argv[1]

metrics = rpc(sock, {"op": "metrics"})
assert metrics.get("ok") is True, metrics
assert metrics.get("protocol_version") == 2, metrics
text = metrics["metrics"]
for needle in (
    '# TYPE krsp_serve_latency_ns summary',
    'krsp_serve_latency_ns{class="batch",quantile="0.99"}',
    'krsp_serve_requests_total{class="batch",outcome="served"}',
    'krsp_wire_requests_total{op="solve"}',
    'krsp_transport_bytes_total{direction="in"}',
):
    assert needle in text, "metrics exposition missing: " + needle

timed = rpc(sock, {"op": "solve", "id": "timed-1", "topology": "waxman40",
                   "mode": "scaled", "timing": True})
assert timed.get("ok") is True, timed
timing = timed.get("timing")
assert timing is not None, "timing flag did not produce a breakdown"
for key in ("cache_lookup_ms", "admission_ms", "queue_wait_ms", "solve_ms",
            "total_ms"):
    assert key in timing, "timing breakdown missing " + key
    # On a cache hit solve_ms echoes the cached result's original solve
    # wall (and can exceed total_ms), so only non-negativity is invariant.
    assert timing[key] >= 0.0, timing
assert timing["total_ms"] > 0.0, timing

plain = rpc(sock, {"op": "solve", "id": "plain-1", "topology": "waxman40",
                   "mode": "scaled"})
assert plain.get("ok") is True, plain
assert "timing" not in plain, "timing must be opt-in"

print("obs_smoke: wire probes OK")
EOF

"$LOADGEN" --socket="$SOCK" --shutdown >/dev/null
if ! wait "$SERVER_PID"; then
  echo "obs_smoke: server exited non-zero" >&2
  exit 1
fi

# The server writes the Chrome trace on clean shutdown; validate its
# shape and the span taxonomy end to end.
python3 - "$TRACE" "$LATENCY" <<'EOF'
import csv
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
names = {e["name"] for e in events}
expected = {"phase1", "cycle_cancel_round", "residual_rebuild",
            "bicameral_find", "budget_pass", "queue_wait", "cache_lookup",
            "admission", "wire_handle", "transport_read"}
missing = expected - names
assert not missing, "trace missing spans: %s (have %s)" % (
    sorted(missing), sorted(names))
for e in events:
    assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0, e

with open(sys.argv[2]) as f:
    rows = list(csv.DictReader(f))
assert rows, "latency CSV is empty"
assert set(rows[0]) == {"request", "connection", "pool", "outcome",
                        "latency_ms", "cache_hit", "degraded",
                        "shard"}, rows[0]
served = [r for r in rows if r["outcome"] == "served"]
assert len(served) == 12, "expected 12 served rows, got %d" % len(served)
assert all(float(r["latency_ms"]) >= 0.0 for r in rows)

print("obs_smoke: trace spans %s; %d latency rows OK" % (
    sorted(expected & names), len(rows)))
EOF

echo "obs_smoke: OK"
