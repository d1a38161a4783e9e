#!/usr/bin/env sh
# End-to-end fleet serving test: boot two krsp_serve shards (one Unix
# socket, one TCP) behind a krsp_router TCP front, drive the fleet with
# krsp_loadgen --connect --check (every served response bit-identical to
# a direct solve, every served row naming its shard), then kill -9 one
# shard mid-run and require 100% eventual success through the router's
# mark-down + failover path. Finally SIGTERM the router and the survivor
# and require clean drains ending in structured final_stats lines that
# carry every field of each daemon's stats op (the shard's including the
# per-protocol solves_v1/solves_v2 split).
#
#   usage: fleet_smoke.sh <krsp_serve> <krsp_loadgen> <krsp_router> \
#                         <krsp_gen> <krsp_pack>
set -eu

SERVE="$1"
LOADGEN="$2"
ROUTER="$3"
GEN="$4"
PACK="$5"

# mktemp under /tmp keeps the path short (sun_path is ~108 bytes).
DIR="$(mktemp -d /tmp/krsp_fleet.XXXXXX)"
SOCK_A="$DIR/shard-a.sock"
CATALOG="$DIR/catalog"
LATENCY="$DIR/latency.csv"
mkdir -p "$CATALOG"
trap 'kill "$ROUTER_PID" "$SHARD_A_PID" "$SHARD_B_PID" 2>/dev/null || true
      rm -rf "$DIR"' EXIT

# One catalog entry shared by both shards and the router: the router must
# see the same catalog so v2 requests fingerprint onto the same ring keys
# the shards cache under.
"$GEN" --family=waxman --n=40 --k=2 --slack=0.35 --seed=77 \
       --out="$DIR/waxman.kri" >/dev/null
"$PACK" --in="$DIR/waxman.kri" --out="$CATALOG/waxman40.krspb" >/dev/null

# Fails unless the final_stats line in log $1 (from daemon $2) carries
# every field named after it.
require_fields() {
  _log="$1"; _who="$2"; shift 2
  _final="$(grep '"event":"final_stats"' "$_log" || true)"
  for _field in "$@"; do
    case "$_final" in
      *"\"$_field\":"*) ;;
      *)
        echo "fleet_smoke: $_who final_stats lacks \"$_field\":" >&2
        cat "$_log" >&2
        exit 1
        ;;
    esac
  done
}

# Parse the kernel-picked port from a server's announced
#   {"event":"listening","transport":"tcp","port":NNNN}
# line, waiting for the process to write it.
wait_port() {
  _log="$1"; _pid="$2"; _who="$3"
  i=0
  while :; do
    _port="$(sed -n 's/.*"event":"listening".*"port":\([0-9]*\).*/\1/p' \
             "$_log" | head -n 1)"
    [ -n "$_port" ] && { echo "$_port"; return 0; }
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "fleet_smoke: $_who never announced its port" >&2
      exit 1
    fi
    if ! kill -0 "$_pid" 2>/dev/null; then
      echo "fleet_smoke: $_who exited before listening" >&2
      exit 1
    fi
    sleep 0.1
  done
}

"$SERVE" --socket="$SOCK_A" --threads=1 --max-pending=64 \
  --catalog="$CATALOG" > "$DIR/shard-a.log" 2>&1 &
SHARD_A_PID=$!
"$SERVE" --tcp=0 --threads=1 --max-pending=64 \
  --catalog="$CATALOG" > "$DIR/shard-b.log" 2>&1 &
SHARD_B_PID=$!

i=0
while [ ! -S "$SOCK_A" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "fleet_smoke: shard A never bound $SOCK_A" >&2
    exit 1
  fi
  if ! kill -0 "$SHARD_A_PID" 2>/dev/null; then
    echo "fleet_smoke: shard A exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done
PORT_B="$(wait_port "$DIR/shard-b.log" "$SHARD_B_PID" "shard B")"

# Fast health knobs so the mid-run kill is detected within ~100ms.
"$ROUTER" --tcp=0 --shards="$SOCK_A,127.0.0.1:$PORT_B" \
  --catalog="$CATALOG" --probe-interval-ms=50 \
  --mark-down-after=2 --mark-up-after=2 --quiet \
  > "$DIR/router.log" 2>&1 &
ROUTER_PID=$!
RPORT="$(wait_port "$DIR/router.log" "$ROUTER_PID" "router")"

# Healthy fleet: every request served, bit-identical to a direct solve,
# and every served CSV row names the shard that answered.
"$LOADGEN" --connect="127.0.0.1:$RPORT" --catalog="$CATALOG" \
  --topology=waxman40 --requests=24 --connections=2 --mode=exact \
  --check --latency-out="$LATENCY"
served_rows="$(awk -F, '$4 == "served" && $8 != "" { n++ } END { print n+0 }' \
               "$LATENCY")"
if [ "$served_rows" -ne 24 ]; then
  echo "fleet_smoke: expected 24 served rows naming a shard, got $served_rows" >&2
  cat "$LATENCY" >&2
  exit 1
fi

# Kill shard A mid-run: an open-loop paced run long enough (~6s) that the
# kill lands inside it. With retries armed, every request must still
# eventually succeed — the router classifies the refused connect as
# retryable-elsewhere, marks the shard down, and fails over; krsp_loadgen
# exits nonzero if even one request never lands.
"$LOADGEN" --connect="127.0.0.1:$RPORT" --catalog="$CATALOG" \
  --topology=waxman40 --requests=120 --connections=2 --rate=20 \
  --mode=exact --check --retries=8 --timeout-ms=5000 &
LOADGEN_PID=$!
sleep 2
kill -9 "$SHARD_A_PID"
if ! wait "$LOADGEN_PID"; then
  echo "fleet_smoke: loadgen failed after shard A was killed" >&2
  cat "$DIR/router.log" >&2
  exit 1
fi

# SIGTERM the router: graceful drain plus its final_stats accounting —
# traffic was routed, and the killed shard ended marked down.
kill -TERM "$ROUTER_PID"
if ! wait "$ROUTER_PID"; then
  echo "fleet_smoke: router exited non-zero after SIGTERM" >&2
  cat "$DIR/router.log" >&2
  exit 1
fi
for needle in '"event":"final_stats"' '"router":true' '"state":"down"'; do
  if ! grep -q "$needle" "$DIR/router.log"; then
    echo "fleet_smoke: router final_stats missing $needle:" >&2
    cat "$DIR/router.log" >&2
    exit 1
  fi
done
require_fields "$DIR/router.log" router event protocol_version router \
  shards ring_shards vnodes requests_routed no_shard_errors shard_stats \
  name state ewma_probe_ms keyspace_share in_flight forwards_ok \
  forwards_failed forwards_refused probes_ok probes_failed recoveries \
  connections peer_resets send_failures

# The surviving shard drains cleanly too, reporting the per-protocol
# solve split (all traffic here was v2 topology requests).
kill -TERM "$SHARD_B_PID"
if ! wait "$SHARD_B_PID"; then
  echo "fleet_smoke: shard B exited non-zero after SIGTERM" >&2
  cat "$DIR/shard-b.log" >&2
  exit 1
fi
for needle in '"event":"final_stats"' '"solves_v1":' '"solves_v2":'; do
  if ! grep -q "$needle" "$DIR/shard-b.log"; then
    echo "fleet_smoke: shard B final_stats missing $needle:" >&2
    cat "$DIR/shard-b.log" >&2
    exit 1
  fi
done
require_fields "$DIR/shard-b.log" "shard B" event protocol_version \
  solves_v1 solves_v2 received served rejected_queue_full \
  rejected_deadline rejected_draining cache_hits cache_misses \
  cache_insertions cache_evictions cache_entries cache_shard_entries \
  pending peak_pending ewma_service_ms interactive_admitted \
  interactive_rejected_queue_full interactive_rejected_deadline \
  interactive_degraded interactive_pending interactive_ewma_service_ms \
  batch_admitted batch_rejected_queue_full batch_rejected_deadline \
  batch_degraded batch_pending batch_ewma_service_ms threads \
  catalog_topologies connections peer_resets send_failures

echo "fleet_smoke: OK"
