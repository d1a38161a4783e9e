"""Deterministic benchmark inputs built from the committed corpus.

The request stream of a workload depends only on the seed and on the
`.krspb` files in data/corpus. Delay bounds and the quality baseline come
from optimal values computed by perfbench_oracle (this package's own
min-cost k-flow), never from a solution the code under test chose, so a
parent commit and a change receive byte-identical requests.
"""

import bisect
import functools
import hashlib
import json
import math
import os
import struct
import subprocess
from dataclasses import dataclass

MASK64 = (1 << 64) - 1
EPS1 = 0.25  # the daemon's default delay slack for mode "scaled"


class SplitMix64:
    """Seeded PRNG whose output is fixed by this file, not by Python."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n):
        return (self.next_u64() * n) >> 64

    def fork(self, label):
        digest = hashlib.sha256(f"{self.state}:{label}".encode()).digest()
        return SplitMix64(int.from_bytes(digest[:8], "little"))


@dataclass
class Topology:
    id: str
    n: int
    edges: list  # (from, to, cost, delay), indexed by edge id

    @functools.cached_property
    def graph_text(self):
        """The graph as .kri text (src/graph/io.h), edges in id order."""
        lines = ["c krsp digraph, cost+delay per arc", f"p krsp {self.n} {len(self.edges)}"]
        lines += [f"a {u} {v} {c} {d}" for (u, v, c, d) in self.edges]
        return "\n".join(lines) + "\n"


def read_krspb(path):
    """Parses a .krspb container (layout: src/store/format.h)."""
    with open(path, "rb") as f:
        buf = f.read()
    (magic, version, endian, n, m, _s, _t, _k, _d, _digest, file_bytes,
     off_offsets, off_targets, off_costs, off_delays, off_ids) = struct.unpack_from(
        "<QIIqqqqqqQQQQQQQ", buf, 0)
    if magic != 0x0A0D425053524B89 or version != 1 or endian != 0x01020304:
        raise ValueError(f"{path}: not a version-1 .krspb container")
    if file_bytes != len(buf):
        raise ValueError(f"{path}: truncated")
    offsets = struct.unpack_from(f"<{n + 1}Q", buf, off_offsets)
    targets = struct.unpack_from(f"<{m}i", buf, off_targets)
    costs = struct.unpack_from(f"<{m}q", buf, off_costs)
    delays = struct.unpack_from(f"<{m}q", buf, off_delays)
    ids = struct.unpack_from(f"<{m}i", buf, off_ids)
    edges = [None] * m
    for u in range(n):
        for slot in range(offsets[u], offsets[u + 1]):
            edges[ids[slot]] = (u, targets[slot], costs[slot], delays[slot])
    if any(e is None for e in edges):
        raise ValueError(f"{path}: edge ids are not a permutation")
    stem = os.path.basename(path)[: -len(".krspb")]
    return Topology(stem, n, edges)


def load_corpus(corpus_dir, ids):
    return {i: read_krspb(os.path.join(corpus_dir, i + ".krspb")) for i in ids}


def kri_text(topo, s, t, k, d):
    """The instance as .kri text (src/core/io.h)."""
    return topo.graph_text + f"q {s} {t} {k} {d}\n"


def run_oracle(oracle_bin, topo, queries, paths=False):
    """(min_delay, min_cost, cheapest_delay[, flow edges]) per (s, t, k).

    -1 marks a query with fewer than k edge-disjoint paths.
    """
    text = [f"{topo.n} {len(topo.edges)}"]
    text += [f"{u} {v} {c} {d}" for (u, v, c, d) in topo.edges]
    text.append(str(len(queries)))
    text += [f"{s} {t} {k}" for (s, t, k) in queries]
    cmd = [oracle_bin] + (["--paths"] if paths else [])
    out = subprocess.run(cmd, input="\n".join(text) + "\n", capture_output=True,
                         text=True, check=True).stdout.split("\n")
    result = []
    for line in out[: len(queries)]:
        fields = [int(x) for x in line.split()]
        result.append((*fields[:3], fields[3:]) if paths else tuple(fields[:3]))
    return result


@dataclass
class Query:
    topology: str
    s: int
    t: int
    k: int
    delay_bound: int
    mode: str
    min_delay: int
    c_free: int  # min-cost k-flow cost ignoring D: a lower bound on C_OPT

    def delay_cap(self):
        """Largest delay the mode's guarantee allows."""
        if self.mode == "phase1":
            return 2 * self.delay_bound
        return math.floor((1 + EPS1) * self.delay_bound)


def draw_queries(rng, oracle_bin, topo, count, mode, slack_max, k=2, need_cancel=False):
    """`count` distinct (s, t) queries admitting k edge-disjoint paths.

    D = min_delay + floor(min_delay * u), u uniform in [0, slack_max).
    With `need_cancel`, only queries whose cheapest routing misses D are
    kept (every min-cost k-flow has delay > D), so phase 1 cannot stop at
    an optimum and the solve normally goes on to cycle cancellation.
    """
    chosen, seen = [], set()
    for _ in range(8):
        need = count - len(chosen)
        if need <= 0:
            break
        batch = []
        while len(batch) < need + need // 4 + 16:
            s, t = rng.below(topo.n), rng.below(topo.n)
            if s != t and (s, t) not in seen:
                seen.add((s, t))
                batch.append((s, t, k))
        for (s, t, _), (dmin, cmin, cheap_d) in zip(batch, run_oracle(oracle_bin, topo, batch)):
            if dmin < 0 or len(chosen) >= count:
                continue
            d = dmin + math.floor(dmin * rng.uniform() * slack_max)
            if need_cancel and cheap_d <= d:
                continue
            chosen.append(Query(topo.id, s, t, k, d, mode, dmin, cmin))
    if len(chosen) < count:
        raise RuntimeError(f"{topo.id}: only {len(chosen)} feasible queries")
    return chosen


def request_line(rid, q, form, topologies, timing):
    """One solve request line: v2 names the topology and overrides its
    query, v1 ships the whole instance as .kri text."""
    req = {"op": "solve", "id": rid}
    if form == "v1":
        req["instance"] = kri_text(topologies[q.topology], q.s, q.t, q.k, q.delay_bound)
    else:
        req.update(topology=q.topology, s=q.s, t=q.t, k=q.k, delay_bound=q.delay_bound)
    req["mode"] = q.mode
    if timing:
        req["timing"] = True
    return json.dumps(req, separators=(",", ":"))


@dataclass
class Workload:
    """A request pool plus the order (and open-loop gaps) to send it in."""
    name: str
    loop: str          # "closed" or "open"
    connections: int
    pool: list         # (query index, form) per distinct request line
    queries: list      # Query per index
    sequence: list     # (pool index, gap_us)
    rate: float = 0.0  # open loop: offered requests per second
    warmup_s: float = 2.0  # untimed traffic before the timed phase
    prefill: bool = False  # fill the result cache before the warm-up

    def lines(self, topologies, timing=False):
        return [request_line(f"r{i}", self.queries[qi], form, topologies, timing)
                for i, (qi, form) in enumerate(self.pool)]

    def digest(self, topologies):
        h = hashlib.sha256()
        for line in self.lines(topologies):
            h.update(line.encode() + b"\n")
        for idx, gap in self.sequence:
            h.update(f"{idx} {gap}\n".encode())
        return h.hexdigest()


ISP = "isp-backbone"
GRID = ("road-grid64", "scalefree-ba4000")
TOPOLOGIES = (ISP,) + GRID

# Pools exceed the daemon's default 1024-entry cache (8 shards of 128) by
# enough that every shard overflows, so cyclic replay always misses.
ISP_POOL = 2048
GRID_POOL = 1600
GRID_SLACK = 0.25
# hot-mix: Zipf-Mandelbrot popularity 1/(rank + 1 + offset)^alpha over ISP
# + grid queries at a fixed offered rate. The offset spreads the head over
# a few dozen queries, so no single query's response size sets the p50.
# Popularity ranks repeat the pattern grid, grid, grid, ISP.
MIX_ISP = 512
MIX_GRID = 1536
MIX_ALPHA = 1.2
MIX_OFFSET = 8
MIX_RATE = 250.0
MIX_STREAM_SECONDS = 40


def filler_lines(topologies, count=2048):
    """Cheap distinct solves that fill every cache shard before a run.

    Single shortest paths (k = 1, loose D, mode phase1) between fixed
    isp-backbone pairs: a fraction of a millisecond each, and keyed apart
    from every workload query, which all have k = 2.
    """
    n = topologies[ISP].n
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t][:count]
    return [json.dumps({"op": "solve", "id": f"f{i}", "topology": ISP, "s": s, "t": t,
                        "k": 1, "delay_bound": 10**9, "mode": "phase1"},
                       separators=(",", ":"))
            for i, (s, t) in enumerate(pairs)]


def isp_queries(rng, oracle_bin, topologies, count):
    return draw_queries(rng, oracle_bin, topologies[ISP], count, "scaled", 0.0,
                        need_cancel=True)


def grid_queries(rng, oracle_bin, topologies, count):
    per = [draw_queries(rng.fork(name), oracle_bin, topologies[name],
                        (count + 1 - i) // 2, "phase1", GRID_SLACK)
           for i, name in enumerate(GRID)]
    # Alternate the two topologies.
    return [q for pair in zip(*per) for q in pair] + per[0][len(per[1]):]


def build(name, seed, oracle_bin, topologies):
    rng = SplitMix64(seed).fork(name)
    if name == "isp-cancel":
        queries = isp_queries(rng.fork("isp"), oracle_bin, topologies, ISP_POOL)
        pool = [(i, "v2") for i in range(len(queries))]
        return Workload(name, "closed", 1, pool, queries,
                        [(i, 1) for i in range(len(pool))], prefill=True)
    if name == "grid-phase1":
        queries = grid_queries(rng.fork("grid"), oracle_bin, topologies, GRID_POOL)
        pool = [(i, "v2") for i in range(len(queries))]
        return Workload(name, "closed", 4, pool, queries,
                        [(i, 1) for i in range(len(pool))], prefill=True)
    if name == "hot-mix":
        isp = isp_queries(rng.fork("isp"), oracle_bin, topologies, MIX_ISP)
        grid = grid_queries(rng.fork("grid"), oracle_bin, topologies, MIX_GRID)
        # Popularity rank = position in a fixed ISP/grid pattern, so every
        # seed puts the same mix of kinds at the head of the Zipf.
        per_isp = len(grid) // len(isp)
        queries = [q for i, tail in enumerate(isp)
                   for q in grid[i * per_isp:(i + 1) * per_isp] + [tail]]
        # Every ISP query has a v1 (inline .kri) and a v2 (id + override)
        # line; both forms share one cache entry.
        pool, lines_of = [], []
        for qi, q in enumerate(queries):
            forms = ("v1", "v2") if q.topology == ISP else ("v2",)
            lines_of.append([])
            for form in forms:
                lines_of[-1].append(len(pool))
                pool.append((qi, form))
        cumulative, total = [], 0.0
        for rank in range(len(queries)):
            total += 1.0 / (rank + 1 + MIX_OFFSET) ** MIX_ALPHA
            cumulative.append(total)
        srng = rng.fork("stream")
        sequence = []
        mean_gap_us = 1e6 / MIX_RATE
        for _ in range(int(MIX_RATE * MIX_STREAM_SECONDS)):
            rank = min(bisect.bisect_left(cumulative, srng.uniform() * total), len(queries) - 1)
            choices = lines_of[rank]
            line = choices[srng.below(len(choices))]
            gap = max(1, round(-math.log(1.0 - srng.uniform()) * mean_gap_us))
            sequence.append((line, gap))
        # A longer warm-up lets the timed phase see a filled cache.
        return Workload(name, "open", 4, pool, queries, sequence, rate=MIX_RATE,
                        warmup_s=8.0)
    raise KeyError(name)


WORKLOAD_NAMES = ("isp-cancel", "grid-phase1", "hot-mix")
