#!/usr/bin/env python3
"""lrrc benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload repair_f2 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from anywhere; lrrc is imported from the `src` directory next to
this one, with no install step.  Workloads are defined in workloads.py.

--trace 0 measures the end-to-end metrics: set-up time (median of
several cold set-ups), ops per second, per-op latency p50 and p90, and
peak RSS.  Its times are scaled to a reference machine speed by a probe
that runs alongside (see SpeedProbe).  --trace 1 runs a fixed number of
ops, deterministic in the seed, once untraced and twice with spans on
every layer boundary, and reports the per-layer metrics, with plain
wall-clock times; its counts must agree between the two traced passes.
Every run checks its outputs: pinned |H|, M and q, a digest of a
fixed-seed reference output, and every op's own checks.

Human-readable lines (environment, each metric with unit and sample
count, fail share) come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  `attempted`
counts every op plus every run-level check, and `failed` those that
failed, so fail_share is failed / attempted.  The exit status is 0 only
when nothing failed.
"""

from __future__ import annotations

import os

# One thread: keep numpy's linear-algebra backends from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import bisect
import json
import logging
import math
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy
    import lrrc
    import spans
    import workloads
except ImportError as exc:
    sys.exit(f"error: cannot import lrrc from {SRC}: {exc}")

# construct at GF(307) warns on every call that the field is below the
# sufficient bound; construct_lowq chooses that field on purpose.
logging.getLogger("lrrc").setLevel(logging.ERROR)

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Each of the three fixed passes of a traced run is sized to take about
# this share of --seconds at the nominal op rate.
TRACE_SHARE = 0.25
MIN_TRACE_OPS = 10
# This host's speed swings by up to 1.6x from one tenth of a second to
# the next, as other tenants load the machine.  While a run measures,
# a timer signal therefore times a fixed kernel of the benchmark's own
# every PROBE_EVERY_S, and every measured interval is scaled by the
# reference probe time over the probe times inside it (see SpeedProbe):
# all reported times are at one reference speed.  The kernel does not
# touch lrrc, so a change in lrrc's speed shows in full.
PROBE_REF_S = 0.0003
PROBE_EVERY_S = 0.02
PROBE_Q = 142151
# Spans whose self time is reported next to their inclusive time.
SELF_TIMED = ("mfhs.enumerate", "code_core.invariant", "code_core.repair",
              "code_core.witness", "connect.run", "exact6321.verify")


def _probe_rank(rows: list[list[int]], q: int) -> int:
    """Rank of a row list mod q, written like lrrc's elimination kernel
    so that it feels the machine the way lrrc does."""
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        pivot = -1
        for r in range(rank, m):
            if rows[r][col]:
                pivot = r
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], q - 2, q)
        for j in range(col, n):
            prow[j] = prow[j] * inv % q
        for r in range(rank + 1, m):
            f = rows[r][col]
            if f:
                rrow = rows[r]
                for j in range(col, n):
                    rrow[j] = (rrow[j] - f * prow[j]) % q
        rank += 1
        if rank == m:
            break
    return rank


_probe_rng = random.Random(0)
_PROBE_ROWS = [[[_probe_rng.randrange(PROBE_Q) for _ in range(21)] for _ in range(7)]
               for _ in range(4)]


class SpeedProbe:
    """While entered, times the probe kernel every PROBE_EVERY_S.

    The probe runs from SIGALRM in the main thread, between bytecodes of
    whatever is being measured; its own time is taken back out of every
    interval that contains it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        for matrix in _PROBE_ROWS:
            _probe_rank([row[:] for row in matrix], PROBE_Q)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_s(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed, less
        the probes run inside it.  An interval with no probe inside takes
        the speed of the probe nearest to its middle."""
        lo = bisect.bisect_left(self.starts, start)
        inside = range(lo, bisect.bisect_right(self.ends, end, lo=lo))
        paused = sum(self.ends[i] - self.starts[i] for i in inside)
        if not inside:
            mid = (start + end) / 2
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
            inside = [min(near, key=lambda i: abs(self.starts[i] + self.ends[i] - 2 * mid))]
        speed = statistics.mean(PROBE_REF_S / (self.ends[i] - self.starts[i]) for i in inside)
        return (end - start - paused) * speed


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "load": "one process, one thread: a closed loop with one client",
        "threads_at_end": threading.active_count(),
    }


def base_seed(workload: workloads.Workload, seed: int) -> int:
    """First op seed of a run; later ops use consecutive seeds."""
    return random.Random(f"{workload.name}/{seed}").getrandbits(32)


def check_context(workload: workloads.Workload, ctx: workloads.Context,
                  checker: workloads.Checker) -> None:
    checker.record(workload.pin_problems(ctx))
    checker.record(workload.reference_problems(ctx))


def run_untraced(workload: workloads.Workload, seed: int, seconds: float,
                 checker: workloads.Checker) -> dict:
    setup_s = []
    latencies: list[float] = []
    busy_s = 0.0
    with SpeedProbe() as probe:
        for _ in range(workload.setup_reps):
            workloads.clear_caches()
            t0 = time.perf_counter()
            ctx = workload.setup()
            setup_s.append(probe.scaled_s(t0, time.perf_counter()))
        check_context(workload, ctx, checker)

        first = base_seed(workload, seed)
        batches = 0
        phase_start = time.perf_counter()
        while time.perf_counter() - phase_start < seconds or len(latencies) < MIN_OPS:
            b0 = time.perf_counter()
            op_ms = workload.batch(ctx, first + batches, checker)
            end = time.perf_counter()
            busy_s += probe.scaled_s(b0, end)
            # a batch's ops run back to back and end when it returns
            for ms in reversed(op_ms):
                start = end - ms / 1e3
                latencies.append(probe.scaled_s(start, end) * 1e3)
                end = start
            batches += 1

    ops = len(latencies)
    ordered = sorted(latencies)
    probes = sorted(e - s for s, e in zip(probe.starts, probe.ends))
    print(f"{workload.name} probe: {len(probes)} samples, median {probes[len(probes) // 2]} s, "
          f"reference {PROBE_REF_S} s")
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (ops / busy_s, "1/s", ops),
        "op_ms_p50": (statistics.median(ordered), "ms", ops),
        "op_ms_p90": (ordered[math.ceil(0.9 * ops) - 1], "ms", ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def layer_metrics(t: spans.Tracer, ops: int, prelude_invariants: int,
                  overhead_share: float) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    invariants = t.calls["code_core.invariant"]
    construct_attempts = t.edges[("code_core.construct", "code_core.invariant")]
    repair_attempts = t.edges[("code_core.repair", "code_core.invariant")]
    out = {
        "galois.rank_calls": (t.calls["galois.rank"], "count"),
        "galois.rank_s": (t.total_s["galois.rank"], "s"),
        "galois.rank_us": (ratio(t.total_s["galois.rank"], t.calls["galois.rank"]) * 1e6, "us"),
        "galois.solve_calls": (t.calls["galois.solve"], "count"),
        "galois.solve_s": (t.total_s["galois.solve"], "s"),
        "galois.mul_s": (t.total_s["galois.mul"], "s"),
        "mfhs.enumerate_s": (t.total_s["mfhs.enumerate"], "s"),
        "mfhs.candidates": (t.counts["mfhs.candidates"], "count"),
        "mfhs.members": (t.counts["mfhs.members"], "count"),
        "mfhs.member_ratio": (ratio(t.counts["mfhs.members"], t.counts["mfhs.candidates"]), "ratio"),
        "mfhs.membership_calls": (t.calls["mfhs.membership"], "count"),
        "mfhs.majorizes_calls": (t.counts["mfhs.majorizes_calls"], "count"),
        "mfhs.membership_s": (t.total_s["mfhs.membership"], "s"),
        "code_core.invariant_calls": (invariants, "count"),
        "code_core.invariant_s": (t.total_s["code_core.invariant"], "s"),
        "code_core.invariant_per_op": (ratio(invariants - prelude_invariants, ops), "count"),
        "code_core.selections_per_invariant": (
            ratio(t.edges[("code_core.invariant", "galois.rank")], invariants), "count"),
        "code_core.construct_attempts": (construct_attempts, "count"),
        "code_core.construct_accept_ratio": (ratio(
            t.calls["code_core.construct"] - t.errors["code_core.construct"],
            construct_attempts), "ratio"),
        "code_core.repair_attempts": (repair_attempts, "count"),
        "code_core.repair_accept_ratio": (ratio(
            t.calls["code_core.repair"] - t.errors["code_core.repair"], repair_attempts), "ratio"),
        "code_core.repair_s": (t.total_s["code_core.repair"], "s"),
        "code_core.reconstruct_s": (t.total_s["code_core.reconstruct"], "s"),
        "code_core.decode_s": (t.total_s["code_core.decode"], "s"),
        "code_core.witness_s": (t.total_s["code_core.witness"], "s"),
        "connect.runs": (t.calls["connect.run"], "count"),
        "connect.steps": (t.counts["connect.steps"], "count"),
        "connect.run_s": (t.total_s["connect.run"], "s"),
        "exact6321.verify_calls": (t.calls["exact6321.verify"], "count"),
        "exact6321.verify_s": (t.total_s["exact6321.verify"], "s"),
        "cli_sim.simulate_self_s": (t.self_s["cli_sim.simulate"], "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    for name in SELF_TIMED:
        out[f"{name}_self_s"] = (t.self_s[name], "s")
    return {name: (value, unit, ops) for name, (value, unit) in out.items()}


def run_traced(workload: workloads.Workload, seed: int, seconds: float,
               checker: workloads.Checker) -> dict:
    workloads.clear_caches()
    combined = spans.Tracer()
    with spans.installed(combined):
        ctx = workload.setup()
    check_context(workload, ctx, checker)

    first = base_seed(workload, seed)
    ops = max(MIN_TRACE_OPS, round(seconds * TRACE_SHARE * workload.nominal_ops_per_s))
    t0 = time.perf_counter()
    workload.fixed(ctx, first, ops, checker)
    untraced_s = time.perf_counter() - t0

    prelude = spans.Tracer()
    with spans.installed(prelude):
        workload.prelude(ctx, first)

    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            t0 = time.perf_counter()
            workload.fixed(ctx, first, ops, checker)
            passes.append((tracer, time.perf_counter() - t0))
    (a, a_s), (b, b_s) = passes
    checker.record([] if a.exact_counts() == b.exact_counts() else [
        f"{workload.name}: counts of two identical traced passes differ: "
        f"{a.exact_counts()} vs {b.exact_counts()}"])

    combined.merge(a)
    for row in combined.table():
        print("span " + json.dumps(row), file=sys.stderr)
    # plain wall-clock passes: the machine's swings between them show
    # here, and can push the share below zero
    overhead_share = (a_s + b_s) / 2 / untraced_s - 1
    return layer_metrics(combined, ops, prelude.calls["code_core.invariant"], overhead_share)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process; returns the result object."""
    workload = workloads.WORKLOADS[name]
    checker = workloads.Checker()
    run = run_traced if trace else run_untraced
    metrics = run(workload, seed, seconds, checker)

    print("env " + json.dumps(environment(), sort_keys=True))
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name} {metric} = {value} {unit} (n={samples})")
    print(f"{name} fail_share = {checker.failed / checker.attempted} ratio "
          f"(n={checker.attempted}, failed {checker.failed})")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process so its set-up is cold."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            part = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        result["correct"] &= part["correct"] and child.returncode == 0
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(
            {f"{name}.{metric}": value for metric, value in part["metrics"].items()})
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not Path(lrrc.__file__).resolve().is_relative_to(SRC):
        print(f"error: lrrc was imported from {lrrc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
