#!/usr/bin/env sh
# End-to-end chaos serving test: boot krsp_serve with the SLA ladder armed,
# hammer it with krsp_loadgen under a 10% transport fault rate with retries
# armed (every idempotent request must eventually succeed and --check every
# served response bit-identical to a direct solve, and the run must inject
# faults that force retries), then SIGTERM the daemon and require a clean
# drain that emits the structured final_stats line.
#
#   usage: chaos_serve.sh <krsp_serve-binary> <krsp_loadgen-binary>
set -eu

SERVE="$1"
LOADGEN="$2"

# mktemp under /tmp keeps the path short (sun_path is ~108 bytes).
DIR="$(mktemp -d /tmp/krsp_chaos.XXXXXX)"
SOCK="$DIR/krsp.sock"
LOG="$DIR/serve.log"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

"$SERVE" --socket="$SOCK" --threads=2 --max-pending=64 \
  --max-pending-batch=48 --degrade-wait=5 > "$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the socket to appear (the server binds before serving).
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "chaos_serve: server never bound $SOCK" >&2
    exit 1
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "chaos_serve: server exited before binding" >&2
    exit 1
  fi
  sleep 0.1
done

# 10% of sends draw a fault (garbage / stall / truncate / reset / slow
# read); with retries armed every request must still eventually succeed —
# krsp_loadgen exits nonzero otherwise, and --check pins bit-identity.
# Request r rides connection r % 4, each with its own seeded schedule, so
# the faults are the same every run: fault seed 20 injects 6 over the 48
# sends, 2 of which (a truncate or a reset) force a retry. A run that
# injects none, or none that needs a retry, tests nothing and fails.
LOADGEN_OUT="$DIR/loadgen.out"
if ! "$LOADGEN" --socket="$SOCK" --requests=48 --connections=4 --pool=4 \
  --n=10 --seed=99 --mode=exact --check --stats \
  --fault-rate=0.1 --fault-seed=20 --retries=8 --timeout-ms=5000 \
  > "$LOADGEN_OUT" 2>&1; then
  cat "$LOADGEN_OUT" >&2
  echo "chaos_serve: krsp_loadgen failed" >&2
  exit 1
fi
cat "$LOADGEN_OUT"
FAULTS="$(sed -n 's/.*faults_injected=\([0-9]*\).*/\1/p' "$LOADGEN_OUT")"
RETRIES="$(sed -n 's/.* retries=\([0-9]*\).*/\1/p' "$LOADGEN_OUT")"
if [ "${FAULTS:-0}" -lt 1 ] || [ "${RETRIES:-0}" -lt 1 ]; then
  echo "chaos_serve: expected injected faults and retries, got" \
    "faults_injected=${FAULTS:-?} retries=${RETRIES:-?}" >&2
  exit 1
fi

# SIGTERM must drain gracefully: clean exit plus the structured stats line.
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "chaos_serve: server exited non-zero after SIGTERM" >&2
  exit 1
fi
if ! grep -q '"event":"final_stats"' "$LOG"; then
  echo "chaos_serve: no final_stats line in server output:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "chaos_serve: OK"
