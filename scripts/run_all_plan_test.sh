#!/usr/bin/env sh
# Pins run_all_experiments.sh's input handling: the corpus-consuming
# benches (bench_catalog, bench_fleet) must run with --corpus when the
# committed corpus exists, and must be skipped cleanly — not abort the
# sweep under `set -e` — when it does not.
#
# The plan lists the benches under <root>/build/bench, while the tree
# under test may be configured anywhere: the script runs from a temporary
# root whose build/bench is that tree's bench directory and whose corpus
# is the repo's.
#
#   usage: run_all_plan_test.sh <repo-root> <bench-dir>
set -eu

ROOT="$1"
BENCH_DIR="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/scripts" "$WORK/build" "$WORK/data"
ln -s "$ROOT/scripts/run_all_experiments.sh" "$WORK/scripts/"
ln -s "$BENCH_DIR" "$WORK/build/bench"
ln -s "$ROOT/data/corpus" "$WORK/data/corpus"
SCRIPT="$WORK/scripts/run_all_experiments.sh"

PLAN="$("$SCRIPT" --plan)"
for bench in bench_catalog bench_fleet; do
  if ! echo "$PLAN" | grep -q "^run $bench --corpus="; then
    echo "FAIL: expected $bench to run with --corpus; plan was:" >&2
    echo "$PLAN" >&2
    exit 1
  fi
done
if echo "$PLAN" | grep -q "^skip"; then
  echo "FAIL: nothing should be skipped with the corpus present:" >&2
  echo "$PLAN" >&2
  exit 1
fi

PLAN_NO_CORPUS="$(KRSP_CORPUS=/nonexistent-krsp-corpus "$SCRIPT" --plan)"
for bench in bench_catalog bench_fleet; do
  if ! echo "$PLAN_NO_CORPUS" | grep -q "^skip $bench "; then
    echo "FAIL: expected $bench to be skipped without a corpus:" >&2
    echo "$PLAN_NO_CORPUS" >&2
    exit 1
  fi
  if echo "$PLAN_NO_CORPUS" | grep -q "^run $bench"; then
    echo "FAIL: $bench must not run without a corpus:" >&2
    echo "$PLAN_NO_CORPUS" >&2
    exit 1
  fi
done

echo "run_all_plan_test: OK"
