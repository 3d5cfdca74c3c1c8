#!/usr/bin/env python3
"""Write BENCH_<label>.json: perfbench end to end, plus a scale suite.

    python scripts/bench.py --label L [--repo PATH] [--reps N] [--seconds S]
                            [--scale n,k,d,r:rounds:checks ...] [--out FILE]

Measures the checkout at PATH (default: this one), so that a change can
commit a before file, measured on a copy of its parent, next to its
after file.  Nothing under perfbench/ is edited; its run.py is only run.

- perfbench: for each workload, N fresh `perfbench/run.py --workload W
  --seed 1 --seconds S --trace 0` processes.  Each metric gets its
  values, median and quartiles; each process its `correct` flag.
- scale: for each --scale point, one fresh `python -m lrrc simulate
  --no-timing` process: its wall time, its own peak RSS (from
  os.wait4's rusage, since RUSAGE_CHILDREN would take the maximum over
  every child) and the sha256 of its report.  The default points are
  the ones whose time and memory grow with the maximal layer of H.

The file also records the git sha of PATH (and whether its tree was
dirty), the Python and numpy versions and nproc.  The exit status is 0
only when every perfbench process was correct and every simulate
process exited 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("repair_f2", "enum_f4", "construct_lowq", "witness_f3")
DEFAULT_SCALE = (
    "10,6,3,2:10:invariant,reconstruction,witness",
    "10,6,3,2:10:invariant",
    "9,6,4,2:10:invariant,reconstruction,witness",
    "9,6,4,2:10:invariant",
    "9,6,5,1:3:invariant",
    "12,8,4,4:3:invariant",
)


def git(repo: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def perfbench(repo: Path, reps: int, seconds: float) -> dict:
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for rep in range(reps):
        # one rep of every workload before the next, so that a drift in
        # the machine's speed spreads over all of them
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, str(repo / "perfbench" / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            try:
                result = json.loads(child.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            result["correct"] = result["correct"] and child.returncode == 0
            runs[name].append(result)
            print(f"perfbench {name} rep {rep + 1}/{reps}: correct={result['correct']}",
                  file=sys.stderr)
    out = {}
    for name, results in runs.items():
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
            metrics[metric] = {"unit": results[0]["metrics"][metric]["unit"], **summary(values)}
        out[name] = {"correct": [r["correct"] for r in results], "metrics": metrics}
    return out


def parse_scale(text: str) -> tuple[tuple[int, ...], int, str]:
    point, rounds, checks = text.split(":")
    return tuple(int(v) for v in point.split(",")), int(rounds), checks


def scale_run(repo: Path, text: str) -> dict:
    (n, k, d, r), rounds, checks = parse_scale(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(repo / "src"), env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "lrrc", "simulate", "--n", str(n), "--k", str(k),
            "--d", str(d), "--r", str(r), "--rounds", str(rounds), "--checks", checks,
            "--no-timing"]
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, cwd=repo, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    report = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    print(f"scale {text}: {wall_s:.2f} s, {usage.ru_maxrss / 1024:.0f} MB", file=sys.stderr)
    return {
        "point": [n, k, d, r], "rounds": rounds, "checks": checks.split(","),
        "exit": child.returncode, "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "report_sha256": hashlib.sha256(report).hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--reps", type=int, default=5, help="perfbench processes per workload")
    ap.add_argument("--seconds", type=float, default=8.0, help="perfbench --seconds")
    ap.add_argument("--scale", action="append", default=None, metavar="n,k,d,r:rounds:checks",
                    help="a simulate run of the scale suite; repeatable")
    ap.add_argument("--out", type=Path, default=None,
                    help="output file (default: BENCH_<label>.json at this repo's root)")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be at least 1, got {args.reps}")
    if args.seconds <= 0:
        ap.error(f"--seconds must be positive, got {args.seconds}")
    scale = args.scale or list(DEFAULT_SCALE)
    for text in scale:
        try:
            point, rounds, _ = parse_scale(text)
        except ValueError:
            point, rounds = (), -1
        if len(point) != 4 or rounds < 0:
            ap.error(f"--scale wants n,k,d,r:rounds:checks, got {text!r}")
    repo = args.repo.resolve()
    if not (repo / "perfbench" / "run.py").is_file():
        ap.error(f"{repo} has no perfbench/run.py")

    bench = {
        "label": args.label,
        "git_sha": git(repo, "rev-parse", "HEAD"),
        "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "perfbench": {"reps": args.reps, "seconds": args.seconds,
                      "workloads": perfbench(repo, args.reps, args.seconds)},
        "scale": [scale_run(repo, text) for text in scale],
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    ok = all(all(w["correct"]) for w in bench["perfbench"]["workloads"].values())
    return 0 if ok and all(run["exit"] == 0 for run in bench["scale"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
