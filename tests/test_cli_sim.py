"""CLI dispatch, exit codes, JSON contracts, simulation harness."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from functools import lru_cache

import pytest

from lrrc import cli_sim, code_core
from lrrc.cli_sim import SimConfig, run_cli, sim_config_from_dict, simulate
from lrrc.galois import FieldMatrix, field_new
from lrrc.mfhs import ModelError, h_enumerate, params_new, params_to_dict


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_subcommand(capsys):
    code, out, _ = invoke(capsys, "params", "6", "4", "3", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 7
    assert doc["families"] == [[1, 2], [3, 4], [5, 6]]
    # family helper selection protects a larger file than blind selection
    assert doc["blind_M"] == 6
    doc = json.loads(invoke(capsys, "params", "6", "3", "2", "1")[1])
    assert (doc["M"], doc["blind_M"]) == (4, 3)
    # params_to_dict, and with it the state JSON, carries no blind_M
    assert "blind_M" not in params_to_dict(params_new(6, 4, 3, 1))


def test_params_rejects_bad_shape(capsys):
    code, _, err = invoke(capsys, "params", "7", "4", "3", "1")
    assert code == 2
    assert "error" in err


def test_enumerate_h_streams_members(capsys):
    code, out, err = invoke(capsys, "enumerate-h", "6", "3", "2", "1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert len(lines) == 159
    assert {"h", "witness_perm"} <= set(lines[0])
    assert "159" in err


def test_enumerate_h_over_budget_is_usage_error(capsys):
    code, _, err = invoke(capsys, "enumerate-h", "12", "6", "8", "2")
    assert code == 2
    assert "exceed" in err


def test_enumerate_h_over_maximal_budget_is_usage_error(capsys):
    # few canonical candidates, but 167,281,683 maximal members
    code, _, err = invoke(capsys, "enumerate-h", "16", "7", "4", "4")
    assert code == 2
    assert "maximal members exceed" in err


def test_construct_writes_state(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, out, _ = invoke(
        capsys, "construct", "6", "3", "2", "1",
        "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["q"] == 7639
    assert summary["bound"] == 7633
    assert summary["attempts"] == 1
    doc = json.loads(out_path.read_text())
    assert doc["q"] == 7639
    assert len(doc["Q"]) == 6


def test_construct_refuses_a_field_too_large_to_draw(capsys):
    code, out, err = invoke(capsys, "construct", "4", "2", "1", "1",
                            "--q", "18446744073709551629")
    assert (code, out) == (2, "")
    assert err == ("error: cannot sample coefficients in GF(18446744073709551629): "
                   "draws are int64, so q must be below 2^63\n")


def test_verify_pass_and_fail(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3",
           "--out", str(out_path))
    code, out, _ = invoke(capsys, "verify", "--state", str(out_path))
    assert code == 0
    assert json.loads(out) == {"invariant": True, "reconstruction": True}

    doc = json.loads(out_path.read_text())
    doc["Q"][1] = doc["Q"][0]  # duplicated storage breaks the invariant
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "verify", "--state", str(broken))
    assert code == 1
    assert json.loads(out)["invariant"] is False

    doc["Q"] = [doc["Q"][0]] * len(doc["Q"])  # every k nodes span only d columns
    broken.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "verify", "--state", str(broken), "--checks", "reconstruction")
    assert (code, json.loads(out)) == (1, {"reconstruction": False})


def test_verify_reconstruction_does_not_enumerate_h(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(out_path))

    def refuse(params):
        raise AssertionError("reconstruction reads no H")

    monkeypatch.setattr(cli_sim, "h_enumerate", refuse)
    code, out, _ = invoke(capsys, "verify", "--state", str(out_path), "--checks", "reconstruction")
    assert (code, json.loads(out)) == (0, {"reconstruction": True})
    witness = ["--witness-failed", "1", "--witness-helpers", "4,5"]
    for flags in (["--checks", "invariant"], ["--checks", "reconstruction,witness", *witness]):
        with pytest.raises(AssertionError, match="reads no H"):
            run_cli(["verify", "--state", str(out_path), *flags])


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_without_checks_is_usage_error(tmp_path, capsys, checks):
    # a verify that checks nothing would print {} and pass
    out_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(out_path))
    code, out, err = invoke(capsys, "verify", "--state", str(out_path), "--checks", checks)
    assert (code, out) == (2, "")
    assert "error: verify needs at least one check of invariant, reconstruction, witness" in err


def test_verify_witness_check(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3",
           "--out", str(state_path))
    witness = ("--witness-failed", "1", "--witness-helpers", "4,5")
    code, out, _ = invoke(capsys, "verify", "--state", str(state_path),
                          "--checks", "witness", *witness)
    assert (code, json.loads(out)) == (0, {"witness": True})

    def verify_copy(dst, src):
        doc = json.loads(state_path.read_text())
        doc["Q"][dst - 1] = doc["Q"][src - 1]
        path = tmp_path / f"q{dst}_is_q{src}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify", "--state", str(path),
                              "--checks", "invariant,witness", *witness)
        return code, json.loads(out)

    assert verify_copy(5, 4) == (1, {"invariant": False, "witness": False})
    # every h' zeroes the failed node 1, so its twin Q_2 = Q_1 never meets
    # Q_1 in a witness selection: the witness misses this corruption
    assert verify_copy(2, 1) == (1, {"invariant": False, "witness": True})

    code, _, err = invoke(capsys, "verify", "--state", str(state_path),
                          "--checks", "witness", "--witness-helpers", "4,5")
    assert code == 2
    assert "--witness-failed" in err
    code, _, err = invoke(capsys, "verify", "--state", str(state_path),
                          "--checks", "witness", "--witness-failed", "1",
                          "--witness-helpers", "2,4")
    assert code == 2
    assert "not eligible" in err


@pytest.mark.parametrize("flags, message", [
    (("--checks", "witness", "--witness-helpers", "4,5"),
     "witness check needs --witness-failed and --witness-helpers"),
    (("--checks", "invariant,witness", "--witness-failed", "1"),
     "witness check needs --witness-failed and --witness-helpers"),
    (("--checks", "witness", "--witness-failed", "1", "--witness-helpers", "4,x"),
     "--witness-helpers entry must be an integer"),
    (("--checks", "invariant", "--witness-failed", "1"),
     "--witness-failed and --witness-helpers need the witness check"),
    (("--checks", "invariant,reconstruction", "--witness-helpers", "4,5"),
     "--witness-failed and --witness-helpers need the witness check"),
    (("--checks", "invariant,witnes"), "unknown checks"),
])
def test_verify_refuses_bad_flags_before_reading_the_state(tmp_path, capsys, flags, message):
    # the state file does not exist: a flag checked after reading it
    # would report that instead
    missing = tmp_path / "missing.json"
    code, out, err = invoke(capsys, "verify", "--state", str(missing), *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_verify_and_repair_refuse_entries_outside_the_field(tmp_path, capsys):
    # an entry of -1 in Q_2 was once read as q - 1: verify passed and
    # repair wrote q - 1 back
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(state_path))
    doc = json.loads(state_path.read_text())
    doc["Q"][1]["entries"][0] = -1
    state_path.write_text(json.dumps(doc))
    error = "error: entry -1 is not a canonical residue mod 7639\n"
    code, out, err = invoke(capsys, "verify", "--state", str(state_path))
    assert (code, out, err) == (2, "", error)
    code, out, err = invoke(capsys, "repair", "--state", str(state_path), "--failed", "1",
                            "--helpers", "4,5", "--out", str(tmp_path / "repaired.json"))
    assert (code, out, err) == (2, "", error)
    assert not (tmp_path / "repaired.json").exists()


def test_repair_subcommand(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3",
           "--out", str(state_path))
    repaired_path = tmp_path / "repaired.json"
    code, out, _ = invoke(
        capsys, "repair", "--state", str(state_path), "--failed", "2",
        "--helpers", "4,5", "--seed", "9", "--out", str(repaired_path),
    )
    assert code == 0
    assert json.loads(out)["helpers"] == [4, 5]
    code, _, _ = invoke(capsys, "verify", "--state", str(repaired_path))
    assert code == 0


def test_repair_rejects_family_helper(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3",
           "--out", str(state_path))
    code, _, err = invoke(
        capsys, "repair", "--state", str(state_path), "--failed", "2",
        "--helpers", "1,4", "--seed", "9",
    )
    assert code == 2
    assert "error" in err


def test_construct_and_repair_without_out_print_the_state(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(state_path))
    code, out, _ = invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3")
    assert (code, json.loads(out)) == (0, json.loads(state_path.read_text()))
    repaired_path = tmp_path / "repaired.json"
    repair = ("repair", "--state", str(state_path), "--failed", "2", "--helpers", "4,5",
              "--seed", "9")
    invoke(capsys, *repair, "--out", str(repaired_path))
    code, out, _ = invoke(capsys, *repair)
    assert (code, json.loads(out)) == (0, json.loads(repaired_path.read_text()))


def test_spent_attempt_budget_exits_1(capsys):
    code, out, err = invoke(capsys, "construct", "6", "4", "3", "1", "--q", "31",
                            "--max-attempts", "2")
    assert (code, out, err) == (1, "", "error: construction rejected 2 times\n")


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["Q"].pop(), "expected 6 coding matrices, got 5"),
    (lambda doc: doc["Q"][2].update(rows=2, cols=4), "Q_3 is 2x4, expected 4x2"),
    (lambda doc: doc["Q"][0].update(q=7, entries=[v % 7 for v in doc["Q"][0]["entries"]]),
     "Q_1 lives in GF(7), state says GF(7639)"),
    (lambda doc: doc.update(W=0), "packet width must be positive"),
], ids=["matrix-count", "matrix-shape", "matrix-field", "packet-width"])
def test_verify_refuses_a_state_that_does_not_fit_its_params(tmp_path, capsys, edit, message):
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(state_path))
    doc = json.loads(state_path.read_text())
    edit(doc)
    state_path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "verify", "--state", str(state_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("k", ("7", "8"))
def test_unrepairable_point_is_usage_error(tmp_path, capsys, k):
    message = (f"error: (8,{k},4,0) is out of scope: some helper set leaves every repair of "
               f"node 5 below full rank under h = (4, 4, 4, 2, 2, 0, 0, 0), since its packets "
               f"add at most 1 to the rank and h_5 = 2 > 1\n")
    simulate_argv = ("simulate", "--n", "8", "--k", k, "--d", "4", "--r", "0", "--rounds", "1",
                     "--no-timing")
    for argv in (("construct", "8", k, "4", "0"), simulate_argv):
        assert invoke(capsys, *argv) == (2, "", message)
    # construct makes no state of that point, but repair refuses any
    params = params_new(8, int(k), 4, 0)
    field = field_new(7639)
    zero = FieldMatrix(params.M, params.d, (0,) * (params.M * params.d), field)
    state = code_core.CodeState(params=params, field=field, packet_width=1,
                                Q=(zero,) * params.n)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(code_core.state_to_dict(state)))
    assert invoke(capsys, "repair", "--state", str(state_path), "--failed", "1",
                  "--helpers", "5,6,7,8") == (2, "", message)


@pytest.mark.parametrize("k", ("7", "8"))
def test_witness_check_at_an_unrepairable_point_is_usage_error(tmp_path, capsys, k):
    message = (f"error: (8,{k},4,0) is out of scope: some helper set leaves every repair of "
               f"node 5 below full rank under h = (4, 4, 4, 2, 2, 0, 0, 0), since its packets "
               f"add at most 1 to the rank and h_5 = 2 > 1\n")
    params = params_new(8, int(k), 4, 0)
    field = field_new(82918931)
    rng, entries = random.Random(k), params.M * params.d
    state = code_core.CodeState(params=params, field=field, packet_width=1, Q=tuple(
        FieldMatrix(params.M, params.d, tuple(rng.randrange(field.q) for _ in range(entries)), field)
        for _ in range(params.n)))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(code_core.state_to_dict(state)))
    for checks in ("witness", "invariant,witness"):
        assert invoke(capsys, "verify", "--state", str(state_path), "--checks", checks,
                      "--witness-failed", "5", "--witness-helpers", "1,2,3,4") == (2, "", message)


def test_connect_subcommand_pinned(capsys):
    code, out, _ = invoke(
        capsys, "connect", "6", "4", "3", "1",
        "--h", "3,2,2,0,0,0", "--failed", "1", "--helpers", "3,4,5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["h_prime"] == [0, 2, 3, 1, 1, 0]
    assert doc["incremented"] == [4, 5, 3]
    assert [s["perm"] for s in doc["trace"]] == [
        [1, 3, 2, 4, 5, 6],
        [3, 2, 1, 4, 5, 6],
        [3, 2, 4, 5, 1, 6],
        [3, 2, 4, 5, 6, 1],
    ]


def test_connect_rejects_inadmissible_h(capsys):
    code, _, err = invoke(
        capsys, "connect", "6", "4", "3", "1",
        "--h", "3,3,3,3,3,3", "--failed", "1", "--helpers", "3,4,5",
    )
    assert code == 2
    assert "error" in err


def test_exact6321_verify(capsys):
    code, out, _ = invoke(capsys, "exact6321", "--q", "7", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["exact_repairs"]) == 30


def test_exact6321_small_field_usage_error(capsys):
    code, _, err = invoke(capsys, "exact6321", "--q", "5", "--verify")
    assert code == 2
    assert "error" in err


def test_exact6321_emit(tmp_path, capsys):
    path = tmp_path / "exact.json"
    code, out, _ = invoke(capsys, "exact6321", "--q", "7", "--emit", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["repair_rules"]) == 30


def test_simulate_round_trip(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1",
        "--seed", "5", "--rounds", "4", "--no-timing",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["aggregate"]["events_total"] == 4
    assert "wall_time_s" not in doc["aggregate"]


def test_simulate_config_file(tmp_path, capsys):
    cfg = {
        "params": {"n": 6, "k": 3, "d": 2, "r": 1},
        "seed": 11,
        "rounds": 3,
        "failure_policy": "uniform-random",
        "helper_policy": "uniform-random",
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "report.json"
    code, out, _ = invoke(
        capsys, "simulate", "--config", str(cfg_path), "--out", str(report_path),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["events_total"] == 3


def test_simulate_config_ignores_lrrc_seed(tmp_path, capsys, monkeypatch):
    # a config sets the whole run, so its missing seed is 0 whatever
    # LRRC_SEED says; the same run by flags reads LRRC_SEED
    monkeypatch.setenv("LRRC_SEED", "9")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "rounds": 1}))
    code, out, _ = invoke(capsys, "simulate", "--config", str(cfg_path), "--no-timing")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 0
    code, out, _ = invoke(capsys, "simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1",
                          "--rounds", "1", "--no-timing")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 9


def test_simulate_unknown_policy_is_usage_error(tmp_path, capsys):
    cfg = {
        "params": {"n": 6, "k": 3, "d": 2, "r": 1},
        "failure_policy": "always-node-one",
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = invoke(capsys, "simulate", "--config", str(cfg_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [
    ("verify", "--state", "unused.json"),
    ("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1"),
])
def test_unknown_check_is_usage_error(capsys, command):
    code, _, err = invoke(capsys, *command, "--checks", "invariant,bogus")
    assert code == 2
    assert "unknown checks: ['bogus']" in err


def test_simulate_determinism_programmatic():
    cfg = SimConfig(params=params_new(6, 3, 2, 1), seed=19, rounds=6,
                    failure_policy="uniform-random")
    a, b = simulate(cfg), simulate(cfg)
    assert a.canonical_json() == b.canonical_json()
    shifted = SimConfig(params=params_new(6, 3, 2, 1), seed=20, rounds=6,
                        failure_policy="uniform-random")
    assert simulate(shifted).canonical_json() != a.canonical_json()


def test_simulate_adversarial_exhaustive():
    cfg = SimConfig(params=params_new(6, 3, 2, 1), seed=2, rounds=1,
                    failure_policy="adversarial-sweep",
                    helper_policy="exhaustive-per-failure")
    report = simulate(cfg)
    assert report.passed
    assert report.aggregate["events_total"] == 6
    # each failure tries all three helper pairs
    assert report.aggregate["total_attempts"] >= 18


def test_construction_failure_report():
    # GF(2) cannot host a code for 159 rank conditions within 16 attempts
    report = simulate(SimConfig(params=params_new(6, 3, 2, 1), q=2, rounds=3))
    doc = report.to_dict(include_timing=False)
    assert report.passed is False
    rejected_by = ([[0, 0, 0, 2, 0, 2]] * 2 + [[0, 0, 0, 1, 1, 2], [0, 0, 0, 1, 2, 1]]
                   + [[0, 0, 0, 0, 2, 2]] * 9 + [[0, 0, 0, 2, 1, 1], [0, 0, 0, 0, 2, 2],
                                                 [0, 0, 0, 1, 2, 1]])
    assert doc["construction"] == {"ok": False, "error": "ConstructionFailed",
                                   "attempts": 16, "rejected_by": rejected_by,
                                   "field_below_bound": True}
    assert doc["events"] == []
    assert doc["aggregate"] == {"events_total": 0, "events_passed": 0, "total_attempts": 0,
                                "retry_histogram": {}, "repair_failure_rate": 0.0}


def test_corrupted_construction_is_caught_by_the_next_repair(monkeypatch):
    # simulate records the invariant verdict construct reached instead of
    # sweeping H again; a state that never passed it still cannot advance,
    # because every repair re-checks the whole state
    real_construct = cli_sim.construct

    def construct_zeroing_q4(*args, **kwargs):
        state = real_construct(*args, **kwargs)
        p = state.params
        zero = FieldMatrix(p.M, p.d, (0,) * (p.M * p.d), state.field)
        return dataclasses.replace(state, Q=state.Q[:3] + (zero,) + state.Q[4:])

    monkeypatch.setattr(cli_sim, "construct", construct_zeroing_q4)
    report = simulate(SimConfig(params=params_new(6, 3, 2, 1), rounds=2))
    assert report.passed is False
    assert [(e["round"], e.get("error")) for e in report.events] == [(1, "RepairFailed")]
    # every attempt is rejected by a selection that reads the zeroed node 4
    rejected_by = [[0, 0, 0, 1, 1, 2]] * 16
    assert report.events[0]["rejected_by"] == rejected_by
    assert report.aggregate["failure"] == {"round": 1, "failed": 1, "error": "RepairFailed",
                                           "rejected_by": rejected_by}


def test_repair_failure_report_names_the_rejecting_h(monkeypatch):
    # GF(3) at (4,2,1,1): round 5's repair of node 1 from node 3 is
    # rejected twice, both times by h = (1, 0, 0, 0)
    raised = []
    real_repair = cli_sim.repair_array

    def recording_repair(*args, **kwargs):
        try:
            return real_repair(*args, **kwargs)
        except code_core.RepairFailed as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli_sim, "repair_array", recording_repair)
    report = simulate(SimConfig(params=params_new(4, 2, 1, 1), q=3, seed=1, rounds=8,
                                max_attempts=2))
    assert report.passed is False
    assert report.events[-1]["round"] == 5
    assert report.events[-1]["rejected_by"] == [list(h) for h in raised[0].rejected_by]
    assert report.events[-1]["rejected_by"] == [[1, 0, 0, 0]] * 2
    assert report.aggregate["failure"] == {"round": 5, "failed": 1, "error": "RepairFailed",
                                           "rejected_by": [[1, 0, 0, 0]] * 2}


def test_simulate_never_lists_h(monkeypatch):
    # the event path reads |H|, maximal and membership only; members and
    # witnesses are for enumerate-h and the tests
    fresh = lru_cache(maxsize=None)(h_enumerate.__wrapped__)
    monkeypatch.setattr(cli_sim, "h_enumerate", fresh)
    monkeypatch.setattr(code_core, "h_enumerate", fresh)
    params = params_new(6, 4, 3, 1)
    report = simulate(SimConfig(params=params, seed=5, rounds=12, check_witness=True))
    assert report.passed
    hset = fresh(params)
    assert fresh.cache_info().currsize == 1
    assert "members" not in vars(hset)
    assert "witnesses" not in vars(hset)


@pytest.mark.parametrize("q", [7639, 2147483659])
def test_witness_event_ranks_each_maximal_target_once(q, monkeypatch):
    # one rank_of_rows call per memoized target, on both sides of the
    # int64 batching limit; the invariant's batched kernel never calls
    # code_core's binding
    calls, events = [], []
    real_rank = code_core.rank_of_rows
    real_holds = cli_sim.witness_holds_array

    def counting_rank(rows, field_q):
        calls.append(len(rows))
        return real_rank(rows, field_q)

    def counting_holds(coef, field_q, hset, failed, ordered):
        calls.clear()
        verdict = real_holds(coef, field_q, hset, failed, ordered)
        events.append((verdict, len(calls), len(code_core.witness_targets(hset, failed, ordered))))
        return verdict

    monkeypatch.setattr(code_core, "rank_of_rows", counting_rank)
    monkeypatch.setattr(cli_sim, "witness_holds_array", counting_holds)
    params = params_new(6, 3, 2, 1)
    report = simulate(SimConfig(params=params, q=q, seed=6, rounds=4, check_witness=True))
    assert report.passed
    assert len(events) == report.aggregate["events_total"] == 4
    assert all(verdict and ranks == targets > 0 for verdict, ranks, targets in events)


@pytest.mark.parametrize("witness", [False, True], ids=["no-witness", "witness"])
def test_simulate_builds_objects_for_the_construction_alone(witness, monkeypatch):
    # the repair chain carries coefficient arrays, serially at (6,4,3,1)
    # and in windows of 10 repairs at (8,4,2,2): the construction makes
    # n matrices and one CodeState, and no event makes either
    built = Counter()
    for cls in (FieldMatrix, code_core.CodeState):
        def counting(obj, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for params in (params_new(6, 4, 3, 1), params_new(8, 4, 2, 2)):
        built.clear()
        report = simulate(SimConfig(params=params, seed=3, rounds=12, check_witness=witness))
        assert report.passed
        assert report.aggregate["events_total"] == 12
        assert built == {"FieldMatrix": params.n, "CodeState": 1}


def _replayed_events(config: SimConfig, q: int) -> list[tuple]:
    """simulate's events, replayed from its master stream through
    construct, chained repair_random calls on CodeState objects and
    witness_holds: (round, failed, attempts, error, rejected_by,
    witness verdict) per event."""
    params = config.params
    hset = h_enumerate(params)
    master = random.Random(config.seed)
    state = code_core.construct(params, field_new(q), hset, rng_seed=master.getrandbits(63),
                                max_attempts=config.max_attempts)
    events = []
    for round_no, failures in enumerate(cli_sim._planned_failures(config, master), start=1):
        for failed in failures:
            helper_sets = cli_sim._helper_sets(config, failed, master)
            repaired = []
            try:
                for hs in helper_sets:
                    repaired.append(code_core.repair_random(
                        state, failed, hs, rng_seed=master.getrandbits(63),
                        max_attempts=config.max_attempts))
            except code_core.RepairFailed as exc:
                events.append((round_no, failed, [r.attempts for r in repaired], "RepairFailed",
                               [list(h) for h in exc.rejected_by], None))
                return events
            state = repaired[0]
            witness = (code_core.witness_holds(state, failed, helper_sets[0], hset)
                       if config.check_witness else None)
            events.append((round_no, failed, [r.attempts for r in repaired], None, None, witness))
    return events


@pytest.mark.parametrize("config", [
    SimConfig(params=params_new(6, 4, 3, 1), q=307, seed=0, rounds=3, max_attempts=64,
              failure_policy="adversarial-sweep", helper_policy="exhaustive-per-failure",
              check_witness=True),
    SimConfig(params=params_new(8, 4, 2, 2), seed=5, rounds=40, check_witness=True),
    SimConfig(params=params_new(6, 3, 2, 1), q=29, seed=0, rounds=24, max_attempts=6,
              check_witness=True),
    SimConfig(params=params_new(8, 4, 2, 2), q=307, seed=0, rounds=80, max_attempts=64),
], ids=["6431-q307-sweep", "8422-auto", "6321-q29-gives-up", "8422-q307"])
def test_simulate_chain_matches_chained_repair_random(config):
    # simulate's array chain and repair_random's CodeState chain take the
    # same draws, so every event agrees on attempts, error, rejected_by
    # and the witness verdict
    report = simulate(config)
    assert report.construction["ok"]
    got = [(e["round"], e["failed"], e["attempts"], e.get("error"), e.get("rejected_by"),
            e.get("checks", {}).get("witness")) for e in report.events]
    assert got == _replayed_events(config, report.q)
    if config.q != "auto":
        # the low fields reject draws, so rejections are compared too
        assert any(a > 1 for event in got for a in event[2])
    assert (got[-1][3] == "RepairFailed") is (config.q == 29)


def _set_window(monkeypatch, hset, units):
    """Set code_core.WINDOW_ENTRIES to the least budget at which
    simulate's windows hold units repairs at hset."""
    low, high = 1, 2**24
    while low < high:
        budget = (low + high) // 2
        monkeypatch.setattr(code_core, "WINDOW_ENTRIES", budget)
        if code_core.window_size(hset) < units:
            low = budget + 1
        else:
            high = budget
    monkeypatch.setattr(code_core, "WINDOW_ENTRIES", low)
    assert code_core.window_size(hset) == units


WINDOW_RUNS = {
    # 24 of 80 repairs retry
    "8422-q307": SimConfig(params=params_new(8, 4, 2, 2), q=307, seed=0, rounds=80,
                           max_attempts=64),
    # gives up in round 12, inside a window
    "6321-q29-gives-up": SimConfig(params=params_new(6, 3, 2, 1), q=29, seed=0, rounds=24,
                                   max_attempts=6, check_witness=True),
    # several repairs per event, from one base
    "6431-q307-sweep": SimConfig(params=params_new(6, 4, 3, 1), q=307, seed=0, rounds=3,
                                 max_attempts=64, failure_policy="adversarial-sweep",
                                 helper_policy="exhaustive-per-failure"),
    # the benchmark's simulate points at the recommended field, where
    # one (6,4,3,1) repair retries
    "6431-auto": SimConfig(params=params_new(6, 4, 3, 1), seed=0, rounds=12),
    "8422-auto": SimConfig(params=params_new(8, 4, 2, 2), seed=0, rounds=80),
    "6321-auto-witness": SimConfig(params=params_new(6, 3, 2, 1), seed=0, rounds=36,
                                   check_invariant=False, check_reconstruction=False,
                                   check_witness=True),
}


@pytest.mark.parametrize("name", WINDOW_RUNS)
def test_reports_do_not_depend_on_the_window_size(name, monkeypatch):
    # a window ranks first draws made on the draws before it; accepted
    # units keep them and a failed unit retries serially, so windows of
    # 1, 2 and 3 repairs and the default all report the same run
    config = WINDOW_RUNS[name]
    hset = h_enumerate(config.params)
    default = simulate(config)
    windows = []
    real_window = cli_sim.window_failure

    def counting_window(candidates, nodes, q, hset):
        windows.append(len(candidates))
        return real_window(candidates, nodes, q, hset)

    monkeypatch.setattr(cli_sim, "window_failure", counting_window)
    for units in (1, 2, 3):
        windows.clear()
        _set_window(monkeypatch, hset, units)
        assert simulate(config).canonical_json() == default.canonical_json(), units
        assert max(windows, default=1) == units
    retried = sum(a > 1 for e in default.events for a in e["attempts"])
    assert retried == {"8422-q307": 24, "6321-q29-gives-up": 8, "6431-q307-sweep": 29,
                       "6431-auto": 1}.get(name, 0)
    assert (default.events[-1].get("error") == "RepairFailed") is (name == "6321-q29-gives-up")


@pytest.mark.parametrize("name", ["8422-q307", "6321-q29-gives-up", "6431-q307-sweep",
                                  "8422-auto"])
def test_event_times_add_up_to_at_most_the_run(name):
    # each event records its own work and a share of each window's draw
    # and rank pass, so no time is counted twice
    report = simulate(WINDOW_RUNS[name])
    times = [e["wall_time_s"] for e in report.events]
    assert times and all(t >= 0 for t in times)
    assert sum(times) <= report.aggregate["wall_time_s"]


def test_sim_config_validation():
    with pytest.raises(ModelError):
        sim_config_from_dict({
            "params": {"n": 6, "k": 3, "d": 2, "r": 1},
            "helper_policy": "first-two",
        })
    with pytest.raises(ModelError):
        sim_config_from_dict({
            "params": {"n": 6, "k": 3, "d": 2, "r": 1},
            "rounds": -1,
        })
    # a report's own config is read back unchanged
    cfg = SimConfig(params=params_new(6, 3, 2, 1), q=7639, seed=4, rounds=3,
                    failure_policy="uniform-random", check_witness=True, max_attempts=5)
    assert sim_config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("field,value,message", [
    ("failure_policy", "bogus", "unknown failure policy 'bogus'"),
    ("helper_policy", "nope", "unknown helper policy 'nope'"),
    ("rounds", -3, "rounds must be nonnegative"),
])
def test_sim_config_built_directly_checks_itself(field, value, message):
    # the constructor refuses what the JSON reader refuses, so simulate
    # never runs an unknown policy as another one
    with pytest.raises(ModelError, match=f"^{message}$"):
        SimConfig(params=params_new(6, 3, 2, 1), **{"rounds": 1, field: value})


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("LRRC_SEED", "21")
    invoke(capsys, "construct", "6", "3", "2", "1", "--out", str(a))
    monkeypatch.delenv("LRRC_SEED")
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "21", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_unparsable_integer_names_its_field(tmp_path, capsys, monkeypatch):
    state = tmp_path / "state.json"
    assert invoke(capsys, "construct", "6", "3", "2", "1", "--out", str(state))[0] == 0
    cases = [
        (("repair", "--state", str(state), "--failed", "1", "--helpers", "4,x"),
         '--helpers entry must be an integer, got "x"'),
        (("connect", "6", "3", "2", "1", "--h", "2,y", "--failed", "1", "--helpers", "4,5"),
         '--h entry must be an integer, got "y"'),
        (("verify", "--state", str(state), "--checks", "witness", "--witness-failed", "1",
          "--witness-helpers", "4,z"),
         '--witness-helpers entry must be an integer, got "z"'),
        (("construct", "6", "3", "2", "1", "--q", "abc"), '--q must be an integer, got "abc"'),
        (("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1", "--q", "abc"),
         "simulation config's q must be an integer, got \"abc\""),
    ]
    for argv, message in cases:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: {message}" in err
    monkeypatch.setenv("LRRC_SEED", "abc")
    for argv in (("construct", "6", "3", "2", "1"),
                 ("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1", "--rounds", "0")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert 'error: LRRC_SEED must be an integer, got "abc"' in err


@pytest.mark.parametrize("argv, flag, text", [
    (("connect", "6", "4", "3", "1", "--h", "3,2,,2,0,0,0", "--failed", "1", "--helpers", "3,4,5"),
     "--h", "3,2,,2,0,0,0"),
    (("connect", "6", "4", "3", "1", "--h", "3,2,2,0,0,0", "--failed", "1", "--helpers", "3,4,5,"),
     "--helpers", "3,4,5,"),
    (("connect", "6", "4", "3", "1", "--h", "", "--failed", "1", "--helpers", "3,4,5"),
     "--h", ""),
    (("repair", "--state", "{state}", "--failed", "1", "--helpers", ",4,5"), "--helpers", ",4,5"),
    (("verify", "--state", "{state}", "--checks", "witness", "--witness-failed", "1",
      "--witness-helpers", "4, ,5"), "--witness-helpers", "4, ,5"),
], ids=["h-inner", "helpers-trailing", "h-empty", "repair-leading", "witness-blank"])
def test_list_flags_refuse_empty_entries(tmp_path, capsys, argv, flag, text):
    # a list flag is read strictly: an empty entry is a usage error that
    # names the flag, not an entry silently dropped
    state = tmp_path / "state.json"
    assert invoke(capsys, "construct", "6", "3", "2", "1", "--out", str(state))[0] == 0
    code, out, err = invoke(capsys, *(arg.format(state=state) for arg in argv))
    assert (code, out) == (2, "")
    assert f"error: {flag} has an empty entry: {json.dumps(text)}" in err


def test_usage_error_exit_code(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "params", "6", "4")[0] == 2


def test_simulate_without_config_or_params_is_usage_error(capsys):
    for argv in (("simulate",), ("simulate", "--n", "6", "--k", "3", "--d", "2")):
        assert invoke(capsys, *argv) == (
            2, "", "error: simulate needs --config or all of --n --k --d --r\n")


@pytest.mark.parametrize("argv", [
    ("construct", "6", "3", "2", "1", "--max-attempts", "0"),
    ("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1", "--max-attempts", "0"),
])
def test_attempt_budget_below_one_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "max_attempts must be at least 1" in err


def test_version_flag(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert "lrrc" in out


def test_simulate_records_reconstruction_without_ranking(tmp_path, capsys, monkeypatch):
    # every accepted state passed invariant_check, which implies
    # reconstruction (Lemma C of lrrc.code_core); only lrrc verify ranks it
    def refuse(state):
        raise AssertionError("reconstruct_check called")

    monkeypatch.setattr(cli_sim, "reconstruct_check", refuse)
    report = simulate(SimConfig(params=params_new(6, 3, 2, 1), q=7639, seed=4, rounds=6,
                                check_witness=True))
    assert report.passed
    assert report.construction["checks"]["reconstruction"] is True
    assert [e["checks"] for e in report.events] == [
        {"invariant": True, "reconstruction": True, "witness": True}] * 6
    state_path = tmp_path / "state.json"
    invoke(capsys, "construct", "6", "3", "2", "1", "--seed", "3", "--out", str(state_path))
    with pytest.raises(AssertionError, match="reconstruct_check called"):
        run_cli(["verify", "--state", str(state_path), "--checks", "reconstruction"])


@pytest.mark.parametrize("command,flag,doc,message", [
    ("verify", "--state", {}, "code state lacks ['params', 'q', 'W', 'Q']"),
    ("repair", "--state", {}, "code state lacks ['params', 'q', 'W', 'Q']"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1},
     "code state lacks ['Q']"),
    ("repair", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1},
     "code state lacks ['Q']"),
    ("verify", "--state", {"params": {"n": 6}, "q": 7639, "W": 1, "Q": []},
     "params lacks ['k', 'd', 'r']"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": [{"rows": 4, "cols": 2}]},
     "matrix lacks ['q', 'entries']"),
    ("simulate", "--config", {"seed": 3}, "simulation config lacks ['params']"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": 5},
     "code state's Q must be a list of matrices, got int"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "checks": 5},
     "simulation config's checks must be an object, got int"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": [{"rows": 4, "cols": 2, "q": 7639, "entries": 5}]},
     "matrix entries must be a list, got int"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": [7639], "W": 1,
                           "Q": []},
     "code state's q must be an integer, got list"),
    ("verify", "--state", {"params": {"n": 6, "k": [3], "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": []},
     "params k must be an integer, got list"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "seed": [1]},
     "simulation config's seed must be an integer, got list"),
    ("verify", "--state", {"params": {"n": 6, "k": 3.9, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": []},
     "params k must be an integer, got 3.9"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1.7,
                           "Q": []},
     "code state's W must be an integer, got 1.7"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": True,
                           "Q": []},
     "code state's W must be an integer, got true"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "rounds": 2.5},
     "simulation config's rounds must be an integer, got 2.5"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1},
                              "checks": {"witness": "false", "invariant": "no"}},
     "simulation config's checks.witness must be true or false, got \"false\""),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1},
                              "checks": {"invariant": 1}},
     "simulation config's checks.invariant must be true or false, got 1"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1},
                              "checks": {"witnes": True}},
     "simulation config has unknown check 'witnes'"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "round": 3, "sede": 4},
     "simulation config has unknown key 'round'"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1, "alpah": 2}, "q": 7639,
                           "W": 1, "Q": []},
     "params has unknown key 'alpah'"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": [], "Qx": []},
     "code state has unknown key 'Qx'"),
    ("verify", "--state", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "q": 7639, "W": 1,
                           "Q": [{"rows": 4, "cols": 2, "q": 7639, "entries": [], "colz": 2}]},
     "matrix has unknown key 'colz'"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1, "M": 4, "alpah": 2}},
     "params has unknown key 'alpah'"),
    ("simulate", "--config", {"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "seed": "abc"},
     "simulation config's seed must be an integer, got \"abc\""),
], ids=["verify-empty", "repair-empty", "verify-no-Q", "repair-no-Q", "verify-short-params",
        "verify-short-matrix", "simulate-no-params", "verify-Q-not-list",
        "simulate-checks-not-object", "verify-entries-not-list", "verify-q-not-int",
        "verify-params-k-not-int", "simulate-seed-not-int", "verify-k-fractional",
        "verify-W-fractional", "verify-W-bool", "simulate-rounds-fractional",
        "simulate-check-string", "simulate-check-int", "simulate-check-unknown",
        "simulate-key-unknown", "verify-params-key-unknown", "verify-state-key-unknown",
        "verify-matrix-key-unknown", "simulate-params-key-unknown", "simulate-seed-string"])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, flag, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    extra = ("--failed", "1", "--helpers", "4,5") if command == "repair" else ()
    code, out, err = invoke(capsys, command, flag, str(path), *extra)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (("--n", "8"), "--n"), (("--k", "3"), "--k"), (("--d", "2"), "--d"), (("--r", "1"), "--r"),
    (("--q", "auto"), "--q"), (("--seed", "9"), "--seed"), (("--rounds", "7"), "--rounds"),
    (("--failure-policy", "round-robin"), "--failure-policy"),
    (("--helper-policy", "uniform-random"), "--helper-policy"),
    (("--checks", "witness"), "--checks"), (("--max-attempts", "3"), "--max-attempts"),
    (("--rounds", "7", "--seed", "9", "--n", "8", "--checks", "witness", "--no-timing"),
     "--n, --seed, --rounds, --checks"),
])
def test_simulate_config_refuses_run_flags(tmp_path, capsys, argv, named):
    """A --config file sets the whole run, so a run flag given with it is
    a usage error naming every such flag, not silently ignored; --out
    and --no-timing stay allowed."""
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "rounds": 2,
                                "seed": 4}))
    assert invoke(capsys, "simulate", "--config", str(path), *argv) == (
        2, "", f"error: {named} cannot be given with --config\n")
    code, out, _ = invoke(capsys, "simulate", "--config", str(path), "--no-timing")
    assert code == 0 and json.loads(out)["aggregate"]["events_total"] == 2


def test_missing_state_file_is_usage_error(tmp_path, capsys):
    code, _, err = invoke(capsys, "verify", "--state", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


# random.Random takes a negative seed's absolute value, so -5 would run
# seed 5 under a report that says -5; numpy refuses one without naming
# where it came from.  Each source is refused by name, before any work.
def test_negative_seed_flag_is_usage_error(capsys, tmp_path):
    state = tmp_path / "state.json"
    assert invoke(capsys, "construct", "6", "3", "2", "1", "--out", str(state))[0] == 0
    for argv in (("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1", "--seed", "-5"),
                 ("construct", "6", "3", "2", "1", "--seed", "-5"),
                 ("repair", "--state", str(state), "--failed", "1", "--helpers", "4,5",
                  "--seed", "-5")):
        assert invoke(capsys, *argv) == (2, "", "error: --seed must be nonnegative, got -5\n")


def test_negative_lrrc_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LRRC_SEED", "-3")
    for argv in (("simulate", "--n", "6", "--k", "3", "--d", "2", "--r", "1"),
                 ("construct", "6", "3", "2", "1")):
        assert invoke(capsys, *argv) == (2, "", "error: LRRC_SEED must be nonnegative, got -3\n")


def test_negative_config_seed_is_usage_error(capsys, tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"params": {"n": 6, "k": 3, "d": 2, "r": 1}, "seed": -5}))
    assert invoke(capsys, "simulate", "--config", str(path)) == (
        2, "", "error: seed must be nonnegative, got -5\n")
    with pytest.raises(ModelError, match="seed must be nonnegative"):
        SimConfig(params=params_new(6, 3, 2, 1), seed=-1)
