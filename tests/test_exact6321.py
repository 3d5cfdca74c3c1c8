"""Explicit six-node exact-repair code: structure, rules, verification."""

from __future__ import annotations

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrrc import exact6321, galois
from lrrc.exact6321 import (
    FAMILY_A,
    FAMILY_B,
    ExactCodeError,
    FieldTooSmall,
    InvalidPair,
    build_exact_code,
    code_to_dict,
    exact_repair,
    generator,
    parity_pairs,
    repair_rule,
    verify_exact_code,
)
from lrrc.galois import (
    FieldMatrix,
    GaloisError,
    full_column_rank,
    identity,
    mat_hstack,
    rank_of_rows,
    residue_array,
)
from lrrc.mfhs import h_enumerate, params_new
from lrrc.code_core import (
    CodeError,
    CodeState,
    decode,
    encode,
    invariant_check,
    invariant_failure,
    reconstruct_check,
)


def _rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _rank(m):
    return rank_of_rows(_rows(m), m.field.q)


def _columns(m, cols):
    """The matrix of m's columns cols, in that order."""
    return FieldMatrix.from_rows([[row[j] for j in cols] for row in _rows(m)], m.field)


@pytest.fixture(scope="module")
def code7():
    return build_exact_code(7)


def test_build_rejects_small_or_composite_fields():
    with pytest.raises(FieldTooSmall):
        build_exact_code(5)
    with pytest.raises(FieldTooSmall):
        build_exact_code(4)
    from lrrc.galois import NotPrime

    with pytest.raises(NotPrime):
        build_exact_code(9)


def test_generator_is_systematic_mds(code7):
    g = generator(code7)
    assert (g.rows, g.cols) == (4, 6)
    assert _columns(g, range(4)) == identity(4, code7.field)
    for cols in itertools.combinations(range(6), 4):
        assert _rank(_columns(g, cols)) == 4


def test_storage_assignments_have_full_rank(code7):
    for qm in code7.Q:
        assert (qm.rows, qm.cols) == (4, 2)
        assert _rank(qm) == 2


def test_within_family_pairs_reconstruct_with_any_third(code7):
    # every pair drawn from different families spans with one more node
    for nodes in itertools.combinations(range(1, 7), 3):
        from lrrc.galois import mat_hstack

        stacked = mat_hstack([code7.Q[i - 1] for i in nodes])
        assert _rank(stacked) == 4, nodes


def test_pinned_parity_vectors(code7):
    # q=7 Cauchy table against 1/(x-y) computed directly
    inv = lambda v: pow(v % 7, 5, 7)
    xs, ys = (0, 1, 2, 3), (4, 5)
    assert parity_pairs(code7)["a"] == (inv(0 - 4), inv(1 - 4))
    assert parity_pairs(code7)["b"] == (inv(2 - 4), inv(3 - 4))
    assert parity_pairs(code7)["abar"] == (inv(0 - 5), inv(1 - 5))
    assert parity_pairs(code7)["bbar"] == (inv(2 - 5), inv(3 - 5))


def test_rule_four_from_three_is_identity(code7):
    rule = repair_rule(code7, failed=4, unavailable=3)
    assert rule.helpers == (1, 2)
    assert _rows(rule.newcomer_combine) == [[1, 0], [0, 1]]


def test_rule_four_from_one_pinned(code7):
    rule = repair_rule(code7, failed=4, unavailable=1)
    assert rule.helpers == (2, 3)
    assert _rows(rule.newcomer_combine) == [[6, 1], [1, 0]]


def test_rule_three_down_sends_ones(code7):
    rule = repair_rule(code7, failed=3, unavailable=4)
    assert rule.helpers == (5, 6)
    for helper in rule.helpers:
        assert rule.helper_sends[helper] == (1, 1)


def test_rule_one_down_sends_first_coordinate(code7):
    rule = repair_rule(code7, failed=1, unavailable=5)
    assert rule.helpers == (4, 6)
    for helper in rule.helpers:
        assert rule.helper_sends[helper] == (1, 0)


def test_unavailable_in_own_family_uses_lowest_indexed(code7):
    rule = repair_rule(code7, failed=5, unavailable=4)
    assert rule.helpers == (1, 2)
    rule2 = repair_rule(code7, failed=2, unavailable=1)
    assert rule2.helpers == (4, 5)


def test_invalid_pairs_rejected(code7):
    with pytest.raises(InvalidPair):
        repair_rule(code7, failed=4, unavailable=4)
    with pytest.raises(InvalidPair):
        repair_rule(code7, failed=0, unavailable=1)
    with pytest.raises(InvalidPair):
        repair_rule(code7, failed=4, unavailable=7)


def test_exact_repair_regenerates_stored_packets(code7):
    state = code7
    f = code7.field
    file = FieldMatrix.from_rows([[i + 1] for i in range(4)], f)
    stored = encode(state, file)
    for failed in range(1, 7):
        for unavailable in range(1, 7):
            if unavailable == failed:
                continue
            rebuilt = exact_repair(code7, stored, failed, unavailable)
            assert rebuilt == stored[failed - 1], (failed, unavailable)


@pytest.mark.parametrize("q", [7, 13])
def test_block_regeneration_stacks_basis_regenerations(q):
    # Lemma E replays each rule once, on the identity file's W=4 block;
    # each row must be what the basis file e_j regenerates to
    code = build_exact_code(q)
    block = encode(dataclasses.replace(code, packet_width=4), identity(4, code.field))
    basis = [
        encode(code, FieldMatrix(4, 1, tuple(int(i == j) for i in range(4)), code.field))
        for j in range(4)
    ]
    for failed, unavailable in itertools.permutations(range(1, 7), 2):
        rows = [_rows(exact_repair(code, stored, failed, unavailable))[0] for stored in basis]
        assert _rows(exact_repair(code, block, failed, unavailable)) == rows, (failed, unavailable)


def test_repair_bandwidth_is_one_symbol_per_helper(code7):
    # each helper contributes a single combined symbol per file column
    rule = repair_rule(code7, failed=6, unavailable=1)
    assert len(rule.helpers) == 2
    for helper in rule.helpers:
        send = rule.helper_sends[helper]
        assert len(send) == 2  # one coefficient per stored packet


def test_verify_report_counts(code7):
    report = verify_exact_code(code7)
    assert report.passed
    assert len(report.mds_subsets) == 15
    assert len(report.family_pairs) == 6
    assert len(report.reconstructions) == 20
    assert len(report.exact_repairs) == 30
    d = report.to_dict()
    assert d["q"] == 7 and d["passed"] is True


@pytest.mark.parametrize("q", [11, 13, 101])
def test_other_fields_verify(q):
    report = verify_exact_code(build_exact_code(q))
    assert report.passed


def test_tampered_code_fails_verification(code7):
    import dataclasses

    zero = FieldMatrix.from_rows([[0, 0]] * 4, code7.field)
    broken = dataclasses.replace(code7, Q=code7.Q[:5] + (zero,))
    report = verify_exact_code(broken)
    assert not report.passed
    assert all(e["ok"] for e in report.mds_subsets)
    assert [e["pair"] for e in report.family_pairs if not e["ok"]] == [[4, 6], [5, 6]]


def test_generic_view_reconstructs_but_skips_random_invariant(code7):
    # the explicit code meets the repair guarantee through its own
    # structure; it does not satisfy the stronger condition the random
    # construction certifies against
    state = code7
    assert reconstruct_check(state)
    hs = h_enumerate(state.params)
    assert not invariant_check(state, hs)


@pytest.mark.parametrize("q", [7, 11, 13, 101, 7639, 2147483659])
def test_generic_checks_take_the_code_as_it_is(q):
    # any three nodes recover the file, and the random construction's
    # invariant first fails at h = (0,0,0,1,1,2), which selects top(p),
    # top(pbar), top(p + pbar) and bottom(p + pbar): the third is the
    # sum of the first two.  Exact repair does not need the invariant.
    code = build_exact_code(q)
    assert reconstruct_check(code)
    assert invariant_failure(code, h_enumerate(code.params)) == (0, 0, 0, 1, 1, 2)


def test_malformed_codes_are_refused_when_built(code7):
    # CodeState checks the matrix count, each shape and each field, so
    # verify_exact_code never meets such a code
    code11 = build_exact_code(11)
    short = FieldMatrix.from_rows([[1, 0], [0, 1], [1, 1]], code7.field)
    for base, Q, message in (
        (code7, code7.Q[:5], "expected 6 coding matrices, got 5"),
        (code7, code7.Q[:5] + (short,), "Q_6 is 3x2, expected 4x2"),
        (code11, code7.Q[:1] + code11.Q[1:], r"Q_1 lives in GF\(7\), state says GF\(11\)"),
    ):
        with pytest.raises(CodeError, match=message):
            dataclasses.replace(base, Q=Q)


def test_states_of_other_parameters_are_refused(code7):
    params = params_new(6, 4, 3, 1)
    zero = FieldMatrix(params.M, params.d, (0,) * (params.M * params.d), code7.field)
    state = CodeState(params=params, field=code7.field, packet_width=1, Q=(zero,) * 6)
    calls = (lambda: verify_exact_code(state), lambda: repair_rule(state, 4, 1),
             lambda: exact_repair(state, (), 4, 1), lambda: code_to_dict(state))
    for call in calls:
        with pytest.raises(ExactCodeError, match=r"is \(6,3,2,1\), got \(6,4,3,1\)"):
            call()


def test_code_to_dict_rule_table(code7):
    doc = code_to_dict(code7)
    assert doc["q"] == 7
    assert len(doc["repair_rules"]) == 30
    keys = {(r["failed"], r["unavailable"]) for r in doc["repair_rules"]}
    assert len(keys) == 30
    assert set(doc["coefficients"]) == {"a", "abar", "b", "bbar"}
    assert len(doc["Q"]) == 6


def test_family_constants():
    assert FAMILY_A == (1, 2, 3)
    assert FAMILY_B == (4, 5, 6)


def replayed_verdicts(code) -> dict[str, list[bool]]:
    """verify_exact_code's verdicts, decided by the reference operations:
    rank_of_rows for structure, decode for reconstruction and exact_repair
    on the identity file's W=4 block for the repair rules."""
    field = code.field
    gen = generator(code)
    mds = [_rank(_columns(gen, cols)) == 4 for cols in itertools.combinations(range(6), 4)]
    pairs = [_rank(mat_hstack([code.Q[i - 1], code.Q[j - 1]])) == 4
             for fam in (FAMILY_A, FAMILY_B) for i, j in itertools.combinations(fam, 2)]
    state = code
    file = FieldMatrix(4, 1, tuple(v % field.q for v in (1, 2, 3, 4)), field)
    stored = encode(state, file)
    recon = []
    for triple in itertools.combinations(range(1, 7), 3):
        try:
            recon.append(decode(state, triple, [stored[i - 1] for i in triple]) == file)
        except CodeError:
            recon.append(False)
    basis = encode(dataclasses.replace(code, packet_width=4), identity(4, field))
    repairs = []
    for failed, unavailable in itertools.permutations(range(1, 7), 2):
        try:
            repairs.append(exact_repair(code, basis, failed, unavailable) == basis[failed - 1])
        except (GaloisError, ExactCodeError):
            repairs.append(False)
    return {"mds_subsets": mds, "family_pairs": pairs,
            "reconstructions": recon, "exact_repairs": repairs}


TAMPER_KINDS = ("perturb", "zero_column", "copy", "binary", "random")


def tampered(code, index: int, rng: random.Random):
    """Code number index of a cycle over five kinds of damage, each to
    one of Q_1..Q_6; damage to Q_1..Q_3 reaches the generator too."""
    q = code.field.q
    kind = TAMPER_KINDS[index % len(TAMPER_KINDS)]
    target = index // len(TAMPER_KINDS) % 6
    mats = list(code.Q)
    if kind in ("perturb", "zero_column"):
        mat = mats[target]
        rows = _rows(mat)
        if kind == "perturb":
            i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
            rows[i][j] += rng.randrange(1, q)
        else:
            j = rng.randrange(mat.cols)
            for row in rows:
                row[j] = 0
        mats[target] = FieldMatrix.from_rows(rows, code.field)
    elif kind == "copy":
        mats[target] = mats[(target + 1) % 6]
    else:
        top = 2 if kind == "binary" else q
        mats[target] = FieldMatrix.from_rows(
            [[rng.randrange(top) for _ in range(2)] for _ in range(4)], code.field)
    return dataclasses.replace(code, Q=tuple(mats))


@pytest.mark.parametrize("q, count", [(7, 100), (11, 100), (13, 100), (101, 100),
                                      (32749, 30), (32771, 30), (2147483659, 10)])
def test_certificates_match_replay(q, count):
    # every verdict of the batched certificates equals the replay's, on
    # the valid code and on tampered ones; the stacks hold int32 up to
    # 32749, whose products come closest to 2^31, int64 from 32771 and
    # Python ints above BATCH_Q_LIMIT
    code = build_exact_code(q)
    rng = random.Random(q)
    seen = {group: set() for group in replayed_verdicts(code)}
    for index in range(-1, count):
        candidate = code if index < 0 else tampered(code, index, rng)
        report = verify_exact_code(candidate).to_dict()
        replay = replayed_verdicts(candidate)
        for group, want in replay.items():
            assert [e["ok"] for e in report[group]] == want, (q, index, group)
            seen[group].update(want)
        assert report["passed"] == all(all(v) for v in replay.values())
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


@settings(max_examples=200, deadline=None)
@given(
    # the int32 tier's last prime (32749), the int64 tier's first
    # (32771) and last (2^31 - 1), and the Python-int tier above
    st.sampled_from([7, 32749, 32771, 2**31 - 1, 2147483659]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_padding_keeps_full_column_rank(q, s, rows, count, seed):
    """Lemma P on drawn m x s matrices, m <= min(6, s + 2): the 6 x 4
    padding that _padded gathers has full column rank exactly when the
    matrix has.  Some matrices get a last column that is a combination
    of the others mod q, some a zero column."""
    m = min(rows, s + 2)
    rng = np.random.Generator(np.random.Philox(seed))
    columns = [[2 + j * m + i for i in range(m)] for j in range(s)]
    index = np.array(exact6321._padded(columns))
    assert index.shape == (6, 4)
    stack, want = [], []
    for plant in rng.integers(0, 3, size=count).tolist():
        cols = [[int(v) for v in rng.integers(0, q, size=m)] for _ in range(s)]
        if plant == 1 and s > 1:
            weights = [int(v) for v in rng.integers(0, q, size=s - 1)]
            cols[-1] = [sum(w * c[i] for w, c in zip(weights, cols[:-1])) % q for i in range(m)]
        elif plant == 2:
            cols[int(rng.integers(0, s))] = [0] * m
        stack.append(residue_array([0, 1] + [v for c in cols for v in c], q)[index])
        want.append(rank_of_rows([[c[i] for c in cols] for i in range(m)], q) == s)
    assert full_column_rank(np.stack(stack), q).tolist() == want


@pytest.mark.parametrize("q", [7, 32771, 2147483659])
def test_one_kernel_call_per_report(q, monkeypatch):
    # the 71 verdicts of a report come from one full_column_rank call on
    # the 161 padded certificates, and that call is the only elimination;
    # the build ranks nothing, so build and verify make that one call
    stacks, eliminations = [], []
    full, eliminate = galois.full_column_rank, galois._eliminate

    def counting_full(stack, q_):
        stacks.append(stack.shape)
        return full(stack, q_)

    def counting_eliminate(a, q_):
        eliminations.append(a.shape)
        return eliminate(a, q_)

    monkeypatch.setattr(exact6321, "full_column_rank", counting_full)
    monkeypatch.setattr(galois, "_eliminate", counting_eliminate)
    code = build_exact_code(q)
    assert stacks == [] and eliminations == []
    tampered = dataclasses.replace(code, Q=code.Q[:5] + (code.Q[0],))
    for candidate in (code, tampered):
        verify_exact_code(candidate)
        assert stacks == [(161, 6, 4)] and eliminations == [(6, 4, 161)]
        del stacks[:], eliminations[:]


# every prime field the construction accepts below 1000, and the kernel
# tiers' edges: int32's last prime, int64's first and last, and a
# Python-int prime above 2^31
STRUCTURAL_PRIMES = [q for q in range(7, 1000) if galois.is_prime(q)] + [
    32749, 32771, 2**31 - 1, 2147483659]


def test_structural_certificates_hold_in_every_field():
    # build_exact_code's docstring proves that its codes meet all 21
    # structural certificates at every prime q >= 7 and so ranks none;
    # verify_exact_code decides them, and here finds every one passing
    for q in STRUCTURAL_PRIMES:
        report = verify_exact_code(build_exact_code(q))
        structural = report.mds_subsets + report.family_pairs
        assert len(structural) == 21 and all(e["ok"] for e in structural), q
