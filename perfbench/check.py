"""Response checker, independent of the solver.

A served solve response is accepted when its paths are k edge-disjoint
s->t walks over existing edges, its cost and delay equal the path sums,
its delay respects the mode's guarantee ((1+eps1)·D in "scaled", 2D in
"phase1"), and it is not declared infeasible for a query whose minimum
possible delay the benchmark knows to be within D. Bit-identity with a
reference solve is not required: a change may pick other paths.
"""

import dataclasses

SERVED_STATUSES = ("optimal", "approx", "approx-delay-over")


def check_response(resp, query, topo, expected_id):
    """None when `resp` (a parsed response object) is acceptable for
    `query`, otherwise the reason it is not."""
    if not isinstance(resp, dict):
        return "response is not a JSON object"
    if resp.get("id") != expected_id:
        return f"id {resp.get('id')!r} != {expected_id!r}"
    if resp.get("ok") is not True:
        return f"error: {resp.get('error')}"
    if resp.get("served") is not True:
        return f"rejected: {resp.get('reject')}"
    status = resp.get("status")
    if status not in SERVED_STATUSES:
        return f"status {status!r} although min delay {query.min_delay} <= D {query.delay_bound}"
    if status == "approx-delay-over" and query.mode != "phase1":
        return "approx-delay-over outside phase1 mode"
    paths = resp.get("paths")
    if not isinstance(paths, list) or len(paths) != query.k:
        return f"expected {query.k} paths"
    edges = topo.edges
    used = set()
    cost = delay = 0
    for path in paths:
        if not isinstance(path, list) or not path:
            return "empty path"
        at = query.s
        for e in path:
            if not isinstance(e, int) or not 0 <= e < len(edges):
                return f"edge {e!r} does not exist"
            if e in used:
                return f"edge {e} used twice"
            used.add(e)
            u, v, c, d = edges[e]
            if u != at:
                return f"edge {e} starts at {u}, walk is at {at}"
            at = v
            cost += c
            delay += d
        if at != query.t:
            return f"path ends at {at}, not t={query.t}"
    if resp.get("cost") != cost:
        return f"cost {resp.get('cost')} != path sum {cost}"
    if resp.get("delay") != delay:
        return f"delay {resp.get('delay')} != path sum {delay}"
    if delay > query.delay_cap():
        return f"delay {delay} over the {query.mode} bound {query.delay_cap()}"
    return None


def walks_from_flow(topo, s, t, k, flow_edges):
    """Splits a unit k-flow (edge ids) into k edge-disjoint s->t walks."""
    out_of = {}
    for e in flow_edges:
        out_of.setdefault(topo.edges[e][0], []).append(e)
    walks = []
    for _ in range(k):
        at, walk = s, []
        while at != t:
            e = out_of[at].pop()
            walk.append(e)
            at = topo.edges[e][1]
        walks.append(walk)
    return walks


def self_test(topo, queries, oracle_flows):
    """Feeds genuine and tampered responses to the checker.

    `oracle_flows[i]` holds the min-delay flow edges of `queries[i]`; a
    response built from it is valid (its delay is the minimum, <= D).
    Returns a list of failures (empty = the checker behaves).
    """
    failures = []
    for q, flow in zip(queries, oracle_flows):
        walks = walks_from_flow(topo, q.s, q.t, q.k, flow)
        cost = sum(topo.edges[e][2] for w in walks for e in w)
        delay = sum(topo.edges[e][3] for w in walks for e in w)
        good = {"id": "x", "ok": True, "served": True, "cache_hit": False,
                "status": "approx", "cost": cost, "delay": delay, "paths": walks}
        verdict = check_response(good, q, topo, "x")
        if verdict is not None:
            failures.append(f"valid response rejected: {verdict}")
        tampered = {
            "dropped edge": dict(good, paths=[walks[0][:-1]] + walks[1:]),
            "wrong cost": dict(good, cost=cost + 1),
            "wrong delay": dict(good, delay=delay - 1),
            "edge used twice": dict(good, paths=[walks[0], walks[0]] + walks[2:]),
            "infeasible status": {"id": "x", "ok": True, "served": True,
                                  "status": "infeasible"},
            "rejection": {"id": "x", "ok": True, "served": False, "reject": "queue-full"},
            "wrong id": dict(good, id="y"),
        }
        for what, resp in tampered.items():
            if check_response(resp, q, topo, "x") is None:
                failures.append(f"{what} accepted")
        # Delay over the bound: the same paths against a tighter query.
        tight = dataclasses.replace(q, delay_bound=delay // 2, min_delay=0)
        if check_response(good, tight, topo, "x") is None:
            failures.append("delay over the bound accepted")
    return failures
