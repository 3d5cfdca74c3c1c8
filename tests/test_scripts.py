"""The runnable entry points, driven as separate processes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_the_cli():
    child = run("-m", "lrrc", "simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1",
                "--rounds", "12", "--checks", "invariant,reconstruction,witness", "--no-timing")
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["passed"] is True
    assert report["aggregate"]["events_passed"] == 12


@pytest.mark.parametrize("argv,message", [
    (("--rounds", "-3"), "rounds must be nonnegative"),
    (("--q", "8"), "field size 8 is not prime"),
    (("--q", "abc"), "simulation config's q must be an integer"),
])
def test_endurance_rejects_invalid_input(argv, message):
    # an endurance run is lrrc simulate under uniform-random failures
    child = run("-m", "lrrc", "simulate", "--n", "6", "--k", "4", "--d", "3", "--r", "1",
                "--failure-policy", "uniform-random", *argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert f"error: {message}" in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("q,message", [
    ("5", "GF(5) cannot host the construction, need q >= 7"),
    ("9", "field size 9 is not prime"),
])
def test_exact_code_report_refuses_fields_it_cannot_use(q, message):
    # a refused field is a usage error (exit 2), as in lrrc exact6321,
    # not a failed check (exit 1)
    child = run("scripts/exact_code_report.py", "--q", q)
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_field_size_table_rejects_trials_below_one(trials):
    child = run("scripts/field_size_table.py", "--trials", trials)
    assert child.returncode == 2
    assert child.stdout == ""
    assert f"error: --trials must be at least 1, got {trials}" in child.stderr
    assert "Traceback" not in child.stderr


def test_bench_writes_its_file(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    child = run("scripts/bench.py", "--label", "smoke", "--reps", "1", "--seconds", "0.2",
                "--scale", "6,3,2,1:1:invariant", "--out", str(out))
    assert child.returncode == 0, child.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"label", "git_sha", "dirty", "python", "numpy", "nproc",
                          "perfbench", "scale"}
    assert bench["label"] == "smoke"
    assert (bench["perfbench"]["reps"], bench["perfbench"]["seconds"]) == (1, 0.2)
    workloads = bench["perfbench"]["workloads"]
    assert set(workloads) == {"repair_f2", "enum_f4", "construct_lowq", "witness_f3"}
    for workload in workloads.values():
        assert workload["correct"] == [True]
        assert set(workload["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
                                            "peak_rss_mb"}
        for metric in workload["metrics"].values():
            assert set(metric) == {"unit", "median", "q1", "q3", "values"}
            assert metric["q1"] == metric["median"] == metric["q3"] == metric["values"][0]
    [scale] = bench["scale"]
    assert (scale["point"], scale["rounds"], scale["checks"], scale["exit"]) == (
        [6, 3, 2, 1], 1, ["invariant"], 0)
    assert scale["wall_s"] > 0 and scale["peak_rss_mb"] > 0
    direct = run("-m", "lrrc", "simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1",
                 "--rounds", "1", "--checks", "invariant", "--no-timing")
    assert scale["report_sha256"] == hashlib.sha256(direct.stdout.encode()).hexdigest()


@pytest.mark.parametrize("argv,message", [
    (("--reps", "0"), "--reps must be at least 1, got 0"),
    (("--scale", "6,3,2:1:invariant"), "--scale wants n,k,d,r:rounds:checks"),
])
def test_bench_rejects_invalid_input(argv, message, tmp_path):
    child = run("scripts/bench.py", "--label", "bad", "--out", str(tmp_path / "b.json"), *argv)
    assert child.returncode == 2
    assert message in child.stderr
    assert not (tmp_path / "b.json").exists()
