#!/usr/bin/env sh
# End-to-end serving smoke test: boot krsp_serve on a temporary Unix
# socket, drive it with krsp_loadgen --check (every served response must
# be bit-identical to a direct in-process solve), then shut it down over
# the wire and require a clean exit from both sides, with a final_stats
# line that carries every stats field.
#
#   usage: serve_smoke.sh <krsp_serve-binary> <krsp_loadgen-binary>
set -eu

SERVE="$1"
LOADGEN="$2"

# mktemp under /tmp keeps the path short (sun_path is ~108 bytes).
DIR="$(mktemp -d /tmp/krsp_smoke.XXXXXX)"
SOCK="$DIR/krsp.sock"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

LOG="$DIR/serve.log"
"$SERVE" --socket="$SOCK" --threads=2 --max-pending=64 > "$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the socket to appear (the server binds before serving).
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve_smoke: server never bound $SOCK" >&2
    exit 1
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_smoke: server exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done

# Mixed pool, repeated requests so the cache path is exercised too.
"$LOADGEN" --socket="$SOCK" --requests=24 --connections=3 --pool=4 \
  --n=10 --seed=99 --mode=exact --check --stats --shutdown

# The shutdown op must drain the server to a clean exit.
if ! wait "$SERVER_PID"; then
  echo "serve_smoke: server exited non-zero" >&2
  cat "$LOG" >&2
  exit 1
fi

# The final_stats line: every stats-op field (pending through threads
# and the per-class gauges included) plus the process-level counters.
FINAL="$(grep '"event":"final_stats"' "$LOG" || true)"
for field in event protocol_version solves_v1 solves_v2 received served \
    rejected_queue_full rejected_deadline rejected_draining cache_hits \
    cache_misses cache_insertions cache_evictions cache_entries \
    cache_shard_entries pending peak_pending ewma_service_ms \
    interactive_admitted interactive_rejected_queue_full \
    interactive_rejected_deadline interactive_degraded interactive_pending \
    interactive_ewma_service_ms batch_admitted batch_rejected_queue_full \
    batch_rejected_deadline batch_degraded batch_pending \
    batch_ewma_service_ms threads catalog_topologies connections \
    peer_resets send_failures; do
  case "$FINAL" in
    *"\"$field\":"*) ;;
    *)
      echo "serve_smoke: final_stats lacks \"$field\":" >&2
      cat "$LOG" >&2
      exit 1
      ;;
  esac
done
echo "serve_smoke: OK"
