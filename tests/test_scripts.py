"""The runnable entry points, driven as separate processes."""

from __future__ import annotations

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
    child = run("scripts/endurance.py", *argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert f"error: {message}" in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_field_size_table_rejects_trials_below_one(trials):
    child = run("scripts/field_size_table.py", "--trials", trials)
    assert child.returncode == 2
    assert child.stdout == ""
    assert f"error: --trials must be at least 1, got {trials}" in child.stderr
    assert "Traceback" not in child.stderr
