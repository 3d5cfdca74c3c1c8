"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q

They check the benchmark's checks, not lrrc: a corrupted state must
count as a failed op, tracing must leave lrrc exactly as it found it,
traced counts must repeat across processes, and the result line must
name exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from lrrc import code_core, galois

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def targets_now() -> list[object]:
    return [getattr(module, attr) for module, attr, _, _ in spans.TARGETS]


def test_corrupted_q_entry_counts_as_failed_op(monkeypatch):
    workload = workloads.WORKLOADS["construct_lowq"]
    ctx = workload.setup()
    honest = code_core.state_from_dict

    def corrupting(doc):
        state = honest(doc)
        q1 = state.Q[0]
        entries = ((q1.entries[0] + 1) % q1.field.q,) + q1.entries[1:]
        return dataclasses.replace(state, Q=(dataclasses.replace(q1, entries=entries),) + state.Q[1:])

    checker = workloads.Checker()
    workload.batch(ctx, 11, checker)
    assert (checker.attempted, checker.failed) == (1, 0)
    monkeypatch.setattr(code_core, "state_from_dict", corrupting)
    workload.batch(ctx, 11, checker)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_tracing_rebinds_every_target_and_restores_it():
    before = targets_now()
    with spans.installed(spans.Tracer()) as rebound:
        assert len(rebound) == len(spans.TARGETS)
        assert all(now is not orig for now, orig in zip(targets_now(), before))
    assert all(now is orig for now, orig in zip(targets_now(), before))


def test_traced_run_restores_every_attribute():
    before = targets_now()
    result = run.run_workload("witness_f3", seed=2, seconds=0.5, trace=True)
    assert result["correct"]
    assert all(now is orig for now, orig in zip(targets_now(), before))
    assert galois.rank_of_rows is code_core.rank_of_rows


def test_untraced_run_rebinds_nothing(monkeypatch):
    def refuse(tracer):
        raise AssertionError("an untraced run installed spans")

    monkeypatch.setattr(spans, "installed", refuse)
    monkeypatch.setattr(run, "MIN_OPS", 10)
    before = targets_now()
    handler = signal.getsignal(signal.SIGALRM)
    result = run.run_workload("witness_f3", seed=2, seconds=0.2, trace=False)
    assert result["correct"]
    assert all(now is orig for now, orig in zip(targets_now(), before))
    # the speed probe's timer and handler are gone too
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", ["construct_lowq", "witness_f3"])
def test_traced_counts_repeat_across_processes(workload):
    results = []
    for _ in range(2):
        child = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert child.returncode == 0, child.stderr
        results.append(json.loads(child.stdout.splitlines()[-1]))
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["galois.rank_calls"] > 0


@pytest.mark.parametrize("trace,declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_the_declared_metrics(trace, declared):
    child = bench("--workload", "construct_lowq", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED[declared]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = bench("--workload", "repair_f2", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""
