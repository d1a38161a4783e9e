#!/usr/bin/env python3
"""Perf-regression gate for gated-benchmark JSON (E13 kernel, E14 serving).

Usage: check_bench.py BASELINE.json FRESH.json [--tolerance=0.25]

BASELINE is a committed BENCH_*.json (BENCH_kernel.json, BENCH_serving.json);
FRESH is the JSON a CI run just emitted (e.g. bench_kernel --smoke
--out=FRESH.json). Any benchmark emitting the same shape — a top-level
"identical" bool plus a "gate" object of {value, direction, min/max}
metrics — can use this gate. It fails (exit 1) when any of the following
holds:

  * the fresh run was not bit-identical — a correctness failure, not a
    perf one, and always fatal;
  * a gate metric regressed by more than the tolerance relative to the
    baseline (direction-aware: "higher" metrics may not drop below
    baseline*(1-tol), "lower" metrics may not rise above baseline*(1+tol));
  * a gate metric violates its absolute floor/ceiling ("min"/"max" in the
    baseline entry) — the hard acceptance bar, independent of drift.

Gate metrics are host-independent ratios or deterministic counts (pruned
fraction, DP rounds per find, peak DP bytes), so comparing a laptop
baseline against a CI runner is meaningful; wall-clock milliseconds are
reported but never gated.
"""

import json
import sys


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return 1


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tolerance = 0.25
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
    if len(args) != 2:
        print(__doc__)
        return 2

    with open(args[0]) as f:
        baseline = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    rc = 0
    if fresh.get("identical") is not True:
        rc |= fail("fresh run was not bit-identical (configurations or "
                   "served results diverged from the reference solve)")

    base_gate = baseline.get("gate", {})
    fresh_gate = fresh.get("gate", {})
    if not base_gate:
        rc |= fail(f"baseline {args[0]} has no gate block")
    for name, base in base_gate.items():
        if name not in fresh_gate:
            rc |= fail(f"gate metric '{name}' missing from fresh run")
            continue
        bval = base["value"]
        fval = fresh_gate[name]["value"]
        higher = base.get("direction", "higher") == "higher"
        if higher:
            limit = bval * (1.0 - tolerance)
            if fval < limit:
                rc |= fail(f"'{name}' regressed: {fval:.3f} < {limit:.3f} "
                           f"(baseline {bval:.3f}, tolerance {tolerance:.0%})")
            floor = base.get("min")
            if floor is not None and fval < floor:
                rc |= fail(f"'{name}' below absolute floor: "
                           f"{fval:.3f} < {floor:.3f}")
        else:
            limit = bval * (1.0 + tolerance)
            if fval > limit:
                rc |= fail(f"'{name}' regressed: {fval:.3f} > {limit:.3f} "
                           f"(baseline {bval:.3f}, tolerance {tolerance:.0%})")
            ceil = base.get("max")
            if ceil is not None and fval > ceil:
                rc |= fail(f"'{name}' above absolute ceiling: "
                           f"{fval:.3f} > {ceil:.3f}")
        if rc == 0:
            print(f"check_bench: ok: {name} = {fval:.3f} "
                  f"(baseline {bval:.3f})")

    if rc == 0:
        print("check_bench: PASS")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
