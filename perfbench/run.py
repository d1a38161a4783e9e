#!/usr/bin/env python3
"""End-to-end benchmark of krsp_serve on corpus traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds krsp_serve and the benchmark's helpers
from source into .bench_build/, generates the workload's requests from the
seed and the committed corpus, starts `krsp_serve --catalog=data/corpus
--threads=4` on a private Unix socket, drives it, checks every response,
and prints one JSON result as the last line of standard output.

--trace 0 reports the end-to-end metrics. --trace 1 replays the same
stream untraced and then with "timing":true against a fresh daemon, reads
the `stats` op around the timed phase, times each layer's public functions
in-process (perfbench_layers), and reports the per-layer metrics plus the
tracing overhead. README.md in this directory describes the workloads and
every metric.
"""

import argparse
import collections
import ctypes
import hashlib
import json
import math
import os
import secrets
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import check  # noqa: E402
import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TARGETS = ("krsp_serve", "perfbench_oracle", "perfbench_drive", "perfbench_layers")

SERVE_FLAGS = ("--catalog=data/corpus", "--threads=4")
SETUP_SPAWNS = 9      # setup_s is the median over this many daemon starts
LATE_BOUND_MS = 50.0  # open loop: p99 take-up lateness beyond this voids a run
LAYER_BUDGET_S = 3.0  # in-process solver timing budget of the traced run
LAYER_LINES = 4000    # stream lines timed through wire/fingerprint/materialize
MIN_SAMPLES = 1000    # p99 needs at least 10 samples beyond it

E2E_UNITS = {
    "setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "success_frac": "frac", "cost_ratio": "ratio",
    "server_cpu_ms_per_req": "ms", "server_rss_mb": "MiB",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    """Child pre-exec hook: SIGTERM the child if this process dies."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


# ---------------------------------------------------------------- build


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as out:
        def sh(cmd):
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  preexec_fn=die_with_parent).returncode == 0

        def configure_and_build():
            return ((os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) or
                     sh(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])) and
                    sh(["cmake", "--build", BUILD_DIR, "-j4", "--target", *TARGETS]))

        if not configure_and_build():
            # A stale tree (moved checkout) fails; wipe it and build once more.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            if not configure_and_build():
                raise RuntimeError(f"build failed, see {log_path}")
    return {
        "krsp_serve": os.path.join(BUILD_DIR, "krsp", "tools", "krsp_serve"),
        "oracle": os.path.join(BUILD_DIR, "perfbench_oracle"),
        "drive": os.path.join(BUILD_DIR, "perfbench_drive"),
        "layers": os.path.join(BUILD_DIR, "perfbench_layers"),
    }


# ---------------------------------------------------------------- daemon


def exchange(sock_path, lines, timeout=60.0):
    """Sends request lines on one connection, 128 at a time, and returns
    the parsed responses."""
    responses = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        reader = s.makefile("rb")
        for start in range(0, len(lines), 128):
            chunk = lines[start:start + 128]
            s.sendall("".join(line + "\n" for line in chunk).encode())
            responses += [json.loads(reader.readline()) for _ in chunk]
    return responses


class Daemon:
    """One krsp_serve process on a private socket; stop() always reaps it."""

    def __init__(self, binary, run_dir, name):
        self.socket = os.path.relpath(os.path.join(run_dir, name + ".sock"), ROOT)
        if len(self.socket) > 100:
            raise RuntimeError(f"socket path too long: {self.socket}")
        self.cmd = [binary, f"--socket={self.socket}", *SERVE_FLAGS]
        self.log = open(os.path.join(run_dir, name + ".log"), "w")
        self.proc = None
        self.setup_s = None

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=die_with_parent)
        deadline = t0 + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"krsp_serve exited with {self.proc.returncode}")
            try:
                if exchange(os.path.join(ROOT, self.socket), ['{"op":"ping"}'])[0].get("pong"):
                    self.setup_s = time.perf_counter() - t0
                    return
            except (OSError, ValueError):
                time.sleep(0.0005)
        raise RuntimeError("krsp_serve did not answer ping")

    def prefill(self, topologies):
        """Fills the result cache, so every later miss also evicts."""
        for resp in exchange(os.path.join(ROOT, self.socket),
                             inputs.filler_lines(topologies)):
            if not (resp.get("ok") and resp.get("served")):
                raise RuntimeError(f"cache prefill failed: {resp}")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ---------------------------------------------------------------- driving


# One request as perfbench_drive recorded it (times in ns), with its
# parsed response and the checker's verdict (None = accepted).
Record = collections.namedtuple(
    "Record", "phase index due taken send recv response error")


class Phase:
    """The records of one driven stream, checked and reduced."""

    def __init__(self, workload, topologies, out_path):
        with open(out_path) as f:
            self.header = json.loads(f.readline())
            raw = [line.rstrip("\n").split("\t", 1) for line in f]
        self.open_loop = workload.loop == "open"
        self.records = []
        self.failures = []
        for fields, text in raw:
            phase, index, due, taken, send, recv = (int(x) for x in fields.split())
            q = workload.queries[workload.pool[index][0]]
            resp, error = None, "transport failure"
            if recv >= 0:
                try:
                    resp = json.loads(text)
                    error = check.check_response(resp, q, topologies[q.topology], f"r{index}")
                except ValueError:
                    error = "unparsable response"
            if error is not None:
                self.failures.append(f"r{index}: {error}")
            self.records.append(Record(phase, index, due, taken, send, recv, resp, error))
        self.timed = [r for r in self.records if r.phase == 1]
        self.completed = [r for r in self.timed if r.recv >= 0]
        # Open loop times a request from when it was due, so time spent
        # waiting for a free connection counts; closed loop from its send.
        self.latency_ms = [(r.recv - (r.due if self.open_loop else r.send)) / 1e6
                           for r in self.completed]
        self.late_ms = [(r.taken - r.due) / 1e6 for r in self.timed]
        self.wall_s = self.header["wall_ns"] / 1e9

    def stats_delta(self, field):
        before = json.loads(self.header["stats_before"])
        after = json.loads(self.header["stats_after"])
        return after[field] - before[field]


def drive(bins, daemon, workload, lines, run_dir, tag, seconds):
    pool_path = os.path.join(run_dir, tag + ".pool")
    seq_path = os.path.join(run_dir, tag + ".seq")
    out_path = os.path.join(run_dir, tag + ".out")
    with open(pool_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(seq_path, "w") as f:
        f.write("".join(f"{i} {gap}\n" for i, gap in workload.sequence))
    subprocess.run([bins["drive"], f"--socket={daemon.socket}", f"--pool={pool_path}",
                    f"--sequence={seq_path}", f"--out={out_path}", f"--loop={workload.loop}",
                    f"--connections={workload.connections}", f"--seconds={seconds}",
                    f"--warmup={workload.warmup_s}", f"--server-pid={daemon.proc.pid}"],
                   cwd=ROOT, check=True, timeout=seconds + workload.warmup_s + 120,
                   preexec_fn=die_with_parent)
    return out_path


def validity_problems(phase, reports_p99):
    problems = []
    if reports_p99 and len(phase.latency_ms) < MIN_SAMPLES:
        problems.append(f"{len(phase.latency_ms)} latency samples < {MIN_SAMPLES}")
    if phase.open_loop and percentile(phase.late_ms, 0.99) > LATE_BOUND_MS:
        problems.append(f"load generator late: p99 {percentile(phase.late_ms, 0.99):.3f} ms "
                        f"> {LATE_BOUND_MS} ms")
    return problems


# ---------------------------------------------------------------- runs


def end_to_end(bins, workload, topologies, run_dir, seconds):
    daemons = []
    try:
        for i in range(SETUP_SPAWNS):
            daemons.append(Daemon(bins["krsp_serve"], run_dir, f"d{i}"))
            daemons[-1].start()
            if i + 1 < SETUP_SPAWNS:
                daemons[-1].stop()
        daemon = daemons[-1]
        if workload.prefill:
            daemon.prefill(topologies)
        phase = Phase(workload, topologies,
                      drive(bins, daemon, workload, workload.lines(topologies), run_dir,
                            "e2e", seconds))
        rss = daemon.peak_rss_mb()
    finally:
        for d in daemons:
            d.stop()

    served_ratio = {}
    for r in phase.timed:
        if r.error is None:
            qi = workload.pool[r.index][0]
            served_ratio.setdefault(qi, r.response["cost"] / workload.queries[qi].c_free)
    cpu = phase.header["cpu_ticks"] / phase.header["clk_tck"] * 1e3
    metrics = {
        "setup_s": statistics.median(d.setup_s for d in daemons),
        "throughput_rps": len(phase.completed) / phase.wall_s,
        "latency_p50_ms": percentile(phase.latency_ms, 0.50),
        "latency_p99_ms": percentile(phase.latency_ms, 0.99),
        "success_frac": 1.0 - len(phase.failures) / len(phase.records),
        # Averaged over distinct queries, so a popular query is not
        # weighted by its popularity.
        "cost_ratio": statistics.fmean(served_ratio.values()),
        "server_cpu_ms_per_req": cpu / len(phase.completed),
        "server_rss_mb": rss,
    }
    notes = {"latency_samples": len(phase.latency_ms),
             "late_ms_p99": percentile(phase.late_ms, 0.99),
             "loadgen_realtime": phase.header["realtime"]}
    return phase, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def traced(bins, workload, topologies, run_dir, seconds):
    """Untraced and traced replays of half a run each, then the layer probe."""
    lines = workload.lines(topologies)
    phases = {}
    for tag, stream in (("plain", lines), ("traced", workload.lines(topologies, timing=True))):
        daemon = Daemon(bins["krsp_serve"], run_dir, tag)
        try:
            daemon.start()
            if workload.prefill:
                daemon.prefill(topologies)
            out = drive(bins, daemon, workload, stream, run_dir, tag, seconds / 2)
        finally:
            daemon.stop()
        phases[tag] = Phase(workload, topologies, out)
    plain, trace = phases["plain"], phases["traced"]

    # In-process layer timings on the traced stream's lines and queries.
    sent = [r.index for r in trace.timed]
    distinct, seen = [], set()
    for index in sent:
        if workload.pool[index][0] not in seen:
            seen.add(workload.pool[index][0])
            distinct.append(index)
    seq_path = os.path.join(run_dir, "layers.seq")
    solve_path = os.path.join(run_dir, "layers.solve")
    pool_path = os.path.join(run_dir, "plain.pool")  # drive() wrote it for the plain replay
    with open(seq_path, "w") as f:
        f.write("".join(f"{i} 1\n" for i in sent[:LAYER_LINES]))
    with open(solve_path, "w") as f:
        f.write("".join(f"{i}\n" for i in distinct))
    layers = json.loads(subprocess.run(
        [bins["layers"], "--catalog=data/corpus", f"--pool={pool_path}",
         f"--sequence={seq_path}", f"--solve={solve_path}", f"--budget={LAYER_BUDGET_S}"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
        preexec_fn=die_with_parent).stdout)

    served = [r for r in trace.completed if r.error is None]
    timing = [r.response["timing"] for r in served]
    misses = [r.response["timing"] for r in served if not r.response["cache_hit"]]
    wire_p50 = percentile(layers["parse_us"], 0.5)
    # Time on the wire and in the socket layers: the exchange as the client
    # saw it (from the send, so pool waits are excluded) minus the daemon's
    # own accounting.
    transport_us = [(r.recv - r.send) / 1e3 - r.response["timing"]["total_ms"] * 1e3
                    for r in served]
    received = trace.stats_delta("received")
    hits, cache_misses = trace.stats_delta("cache_hits"), trace.stats_delta("cache_misses")
    scanned = sum(layers["anchors_scanned"])
    pruned = sum(layers["anchors_pruned"])

    def p(xs, q):
        return percentile(xs, q) if xs else 0.0

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    metrics = {
        "store.catalog_load_ms": (statistics.median(layers["catalog_load_ms"]), "ms"),
        "wire.parse_us_p50": (wire_p50, "us"),
        "wire.request_bytes_mean": (mean([len(lines[i]) + 1 for i in sent]), "bytes"),
        "fingerprint.us_p50": (p(layers["fingerprint_us"], 0.5), "us"),
        "cache.lookup_us_p50": (p([t["cache_lookup_ms"] * 1e3 for t in timing], 0.5), "us"),
        "cache.hit_frac": (hits / max(1, hits + cache_misses), "frac"),
        "cache.evictions_per_req": (trace.stats_delta("cache_evictions") / max(1, received),
                                    "1/req"),
        "admission.us_p50": (p([t["admission_ms"] * 1e3 for t in misses], 0.5), "us"),
        "admission.reject_frac": ((trace.stats_delta("rejected_queue_full") +
                                   trace.stats_delta("rejected_deadline")) / max(1, received),
                                  "frac"),
        "engine.queue_wait_ms_p50": (p([t["queue_wait_ms"] for t in misses], 0.5), "ms"),
        "engine.queue_wait_ms_p99": (p([t["queue_wait_ms"] for t in misses], 0.99), "ms"),
        "transport.us_p50": (p(transport_us, 0.5) - wire_p50, "us"),
        "materialize.us_p50": (p(layers["materialize_us"], 0.5), "us"),
        "solve.ms_p50": (p(layers["solve_ms"], 0.5), "ms"),
        "solve.ms_p99": (p(layers["solve_ms"], 0.99), "ms"),
        "solve.guess_attempts_mean": (mean(layers["guess_attempts"]), "count"),
        "phase1.ms_p50": (p(layers["phase1_ms"], 0.5), "ms"),
        "phase1.ms_p99": (p(layers["phase1_ms"], 0.99), "ms"),
        "phase1.mcmf_calls_mean": (mean(layers["mcmf_calls"]), "count"),
        "cancel.reach_frac": (mean(layers["reached"]), "frac"),
        "cancel.ms_p50": (p(layers["cancel_ms"], 0.5), "ms"),
        "cancel.ms_p99": (p(layers["cancel_ms"], 0.99), "ms"),
        "cancel.rounds_mean": (mean(layers["rounds"]), "count"),
        "bicameral.anchors_scanned_mean": (mean(layers["anchors_scanned"]), "count"),
        "bicameral.anchors_pruned_frac": (pruned / (scanned + pruned) if scanned + pruned
                                          else 0.0, "frac"),
        "bicameral.budgets_tried_mean": (mean(layers["budgets_tried"]), "count"),
        "bicameral.peak_dp_mb": (max(layers["peak_dp_bytes"], default=0) / 2**20, "MiB"),
        "loadgen.late_ms_p99": (percentile(plain.late_ms, 0.99), "ms"),
        "loadgen.samples": (len(plain.latency_ms), "count"),
        "trace.overhead_frac": (percentile(trace.latency_ms, 0.5) /
                                percentile(plain.latency_ms, 0.5) - 1.0, "frac"),
    }
    problems = []
    if layers["parse_failures"] or layers["solve_failures"]:
        problems.append(f"layer probe: {layers['parse_failures']} parse and "
                        f"{layers['solve_failures']} solve failures")
    notes = {"layer_solves": len(layers["solve_ms"]), "distinct_queries": len(distinct),
             "traced_samples": len(trace.latency_ms),
             "loadgen_realtime": plain.header["realtime"] and trace.header["realtime"]}
    return [plain, trace], metrics, notes, problems


# ---------------------------------------------------------------- stamp


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(args, workload, topologies):
    with open(os.path.join(BUILD_DIR, "build_stamp.json")) as f:
        build_facts = json.load(f)
    return {"nproc": os.cpu_count(), **build_facts, "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "krsp_serve_flags": ["--socket=<private>", *SERVE_FLAGS],
            "loop": workload.loop, "connections": workload.connections,
            "offered_rps": workload.rate or None, "warmup_s": workload.warmup_s,
            "late_bound_ms": LATE_BOUND_MS,
            "stream_sha256": workload.digest(topologies)}


# ---------------------------------------------------------------- main


def checker_self_test(bins, topologies, seed):
    topo = topologies[inputs.ISP]
    queries = inputs.draw_queries(inputs.SplitMix64(seed).fork("self-test"), bins["oracle"],
                                  topo, 16, "scaled", 0.0)
    flows = inputs.run_oracle(bins["oracle"], topo, [(q.s, q.t, q.k) for q in queries],
                              paths=True)
    return check.self_test(topo, queries, [f[3] for f in flows])


def self_test(bins, topologies):
    failures = checker_self_test(bins, topologies, 7)
    for name in inputs.WORKLOAD_NAMES:
        a = inputs.build(name, 11, bins["oracle"], topologies).digest(topologies)
        b = inputs.build(name, 11, bins["oracle"], topologies).digest(topologies)
        c = inputs.build(name, 12, bins["oracle"], topologies).digest(topologies)
        if a != b:
            failures.append(f"{name}: same seed gave streams {a[:12]} and {b[:12]}")
        if a == c:
            failures.append(f"{name}: different seeds gave the same stream")
    for failure in failures:
        log(f"self-test: {failure}")
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=inputs.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    for needed in ("CMakeLists.txt", "src", "tools", "data/corpus"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"not a krsp checkout: {needed} is missing under {ROOT}")
            return 2

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)

    bins = build()
    topologies = inputs.load_corpus(os.path.join(ROOT, "data", "corpus"), inputs.TOPOLOGIES)
    if args.self_test:
        return self_test(bins, topologies)

    workload = inputs.build(args.workload, args.seed, bins["oracle"], topologies)
    run_dir = os.path.join(BUILD_ROOT, "runs", f"{os.getpid()}-{secrets.token_hex(4)}")
    os.makedirs(run_dir)
    try:
        problems = [f"checker self-test: {f}"
                    for f in checker_self_test(bins, topologies, args.seed)]
        if args.trace:
            phases, metrics, notes, more = traced(bins, workload, topologies, run_dir,
                                                  args.seconds)
            problems += more
        else:
            phase, metrics, notes = end_to_end(bins, workload, topologies, run_dir,
                                               args.seconds)
            phases = [phase]
        for phase in phases:
            problems += validity_problems(phase, reports_p99=not args.trace)
        failures = [f for phase in phases for f in phase.failures]
        attempted = sum(len(phase.records) for phase in phases)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems + failures[:20]:
        log(problem)
    print(json.dumps({"stamp": stamp(args, workload, topologies), **notes}))
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt as e:  # SIGINT/SIGTERM: daemons already reaped
        log(f"interrupted ({e})")
        sys.exit(130)
