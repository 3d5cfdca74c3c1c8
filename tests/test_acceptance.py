"""Acceptance suite: ten checks, each printing one PASS/FAIL line.

Each check prints one PASS/FAIL verdict line through the terminal
reporter (see conftest.py) and re-derives its inputs; nothing is reused
from the module tests.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time

import pytest

from lrrc.cli_sim import SimConfig, simulate
from lrrc.code_core import (
    construct,
    invariant_check,
    reconstruct_check,
    repair_random,
    required_field_size,
    witness_repair_check,
)
from lrrc.connect import connect_run
from lrrc.galois import field_new, next_prime
from lrrc.mfhs import (
    Perm,
    h_enumerate,
    helper_universe,
    params_new,
    score_vectors,
)

from membership_oracle import sorting_perms
from tie_swap import swap_preserves

P641 = params_new(6, 4, 3, 1)
P321 = params_new(6, 3, 2, 1)


def test_01_file_size_values(verdict):
    t0 = time.perf_counter()
    got = {
        (6, 4, 3, 1): params_new(6, 4, 3, 1).M,
        (6, 3, 2, 1): params_new(6, 3, 2, 1).M,
        (4, 2, 1, 1): params_new(4, 2, 1, 1).M,
        (6, 6, 3, 1): params_new(6, 6, 3, 1).M,
    }
    want = {(6, 4, 3, 1): 7, (6, 3, 2, 1): 4, (4, 2, 1, 1): 1, (6, 6, 3, 1): 7}
    dt = time.perf_counter() - t0
    verdict(1, "file size at four parameter points", got == want and dt < 1.0,
            f"{got}, {dt:.3f}s")


def test_02_pinned_score_vectors(verdict):
    sv = score_vectors(P641, Perm((2, 3, 4, 1, 5, 6)))
    ok1 = sv.b == (3, 2, 2, 1, 0, 0) and sv.c == (3, 2, 2, 0, 0, 0)
    sv2 = score_vectors(P641, Perm((1, 2, 3, 4, 5, 6)))
    ok2 = sv2.b == (3, 3, 1, 1, 0, 0) and sv2.c == (3, 3, 1, 0, 0, 0)
    verdict(2, "pinned score vectors", ok1 and ok2,
            f"b={sv.b} c={sv.c}; identity b={sv2.b} c={sv2.c}")


def test_03_monotone_scores_for_pair_families(verdict):
    t0 = time.perf_counter()
    monotone = True
    for order in itertools.permutations(range(1, 7)):
        b = score_vectors(P641, Perm(order)).b
        if any(b[i] < b[i + 1] for i in range(5)):
            monotone = False
            break
    # negative control: three-node families admit non-monotone scores
    control = score_vectors(P321, Perm((4, 5, 1, 6, 2, 3))).b
    control_ok = control == (2, 2, 0, 1, 0, 0)
    dt = time.perf_counter() - t0
    verdict(3, "score monotonicity for pair families", monotone and control_ok and dt < 1.0,
            f"720 perms monotone={monotone}, control b={control}, {dt:.3f}s")


def test_04_tie_swap_preservation_sweep(verdict):
    t0 = time.perf_counter()
    hs = h_enumerate(P641)
    checks = 0
    ok = True
    for h in hs.members:
        for perm in sorting_perms(P641, h):
            vals = [h[node - 1] for node in perm.order]
            for i in range(1, 6):
                if vals[i - 1] == vals[i]:
                    checks += 1
                    if not swap_preserves(P641, h, perm, i):
                        ok = False
    dt = time.perf_counter() - t0
    verdict(4, "tie swaps keep certificates", ok and checks == 69264 and dt < 300,
            f"{checks} checks, {dt:.2f}s")


def test_05_connect_total_sweep(verdict):
    t0 = time.perf_counter()
    hs = h_enumerate(P641)
    runs = 0
    for h in hs.members:
        for failed in range(1, 7):
            universe = sorted(helper_universe(P641, failed))
            for helpers in itertools.combinations(universe, P641.d):
                result = connect_run(P641, h, helpers, failed)
                assert result.h_prime in hs
                runs += 1
    dt = time.perf_counter() - t0
    verdict(5, "helper-increment sweep has no contradictions",
            runs == 27072 and dt < 600, f"{runs} runs, {dt:.2f}s")


def test_06_seeded_constructions_at_recommended_field(verdict):
    t0 = time.perf_counter()
    hs = h_enumerate(P641)
    bound = required_field_size(P641, hs)
    q = next_prime(bound)
    assert (bound, q) == (142129, 142151)
    field = field_new(q)
    first_attempt = 0
    all_reconstruct = True
    for seed in range(20):
        state = construct(P641, field, hs, rng_seed=seed)
        if state.attempts == 1:
            first_attempt += 1
        if not reconstruct_check(state):
            all_reconstruct = False
    dt = time.perf_counter() - t0
    verdict(6, "constructions at the recommended field",
            first_attempt >= 19 and all_reconstruct,
            f"{first_attempt}/20 first-attempt, reconstruct all={all_reconstruct}, "
            f"q={q}, {dt:.2f}s")


def test_07_sequential_repairs_keep_checks(verdict):
    t0 = time.perf_counter()
    hs = h_enumerate(P321)
    state = construct(P321, field_new(7639), hs, rng_seed=1)
    master = random.Random(2024)
    retries = 0
    held = True
    for _ in range(100):
        failed = master.randrange(1, 7)
        universe = sorted(helper_universe(P321, failed))
        helpers = tuple(master.sample(universe, P321.d))
        state = repair_random(state, failed, helpers, rng_seed=master.getrandbits(63))
        retries += state.attempts - 1
        if not (invariant_check(state, hs) and reconstruct_check(state)):
            held = False
            break
    dt = time.perf_counter() - t0
    verdict(7, "hundred sequential repairs", held and retries <= 5,
            f"held={held}, retries={retries}, {dt:.2f}s")


def test_08_witness_repair_over_full_selection_set(verdict):
    t0 = time.perf_counter()
    hs = h_enumerate(P641)
    state = construct(P641, field_new(142151), hs, rng_seed=3)
    ok = all(
        witness_repair_check(state, 1, (3, 4, 5), h, hs) for h in hs.members
    )
    dt = time.perf_counter() - t0
    verdict(8, "witness repair across the selection set", ok and dt < 300,
            f"{len(hs)} vectors, failed=1 helpers=(3,4,5), {dt:.2f}s")


def test_09_exact_code_verification(verdict):
    from lrrc.exact6321 import build_exact_code, verify_exact_code

    t0 = time.perf_counter()
    report = verify_exact_code(build_exact_code(7))
    dt = time.perf_counter() - t0
    counts = (
        len(report.mds_subsets),
        len(report.family_pairs),
        len(report.reconstructions),
        len(report.exact_repairs),
    )
    verdict(9, "explicit six-node code verifies",
            report.passed and counts == (15, 6, 20, 30) and dt < 1.0,
            f"entries {counts}, 4 basis files per repair entry, {dt:.3f}s")


def test_10_simulation_determinism(verdict):
    cfg = SimConfig(params=params_new(6, 3, 2, 1), q="auto", seed=7, rounds=10,
                    failure_policy="uniform-random", helper_policy="uniform-random")
    a = simulate(cfg)
    b = simulate(cfg)
    same = a.canonical_json() == b.canonical_json()
    other = simulate(SimConfig(params=params_new(6, 3, 2, 1), q="auto", seed=8,
                               rounds=10, failure_policy="uniform-random",
                               helper_policy="uniform-random"))
    differs = other.canonical_json() != a.canonical_json()
    # timing fields exist but are excluded from the canonical form
    timed = json.loads(a.canonical_json(include_timing=True))
    stripped = json.loads(a.canonical_json())
    verdict(10, "simulation reports are seed-deterministic",
            same and differs and a.passed
            and "wall_time_s" in timed["aggregate"]
            and "wall_time_s" not in stripped["aggregate"],
            f"identical={same}, different seed differs={differs}, passed={a.passed}")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
