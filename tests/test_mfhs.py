"""Parameter model, score vectors, and the admissible selection set.

Derived quantities are checked two ways: against frozen values computed
once by brute force, and against slow in-test oracles that enumerate
permutations directly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrrc import mfhs
from lrrc.cli_sim import run_cli
from lrrc.mfhs import (
    HNotMember,
    LengthMismatch,
    OutOfScope,
    Perm,
    PreconditionViolated,
    TooLarge,
    h_enumerate,
    h_membership,
    helper_universe,
    is_witness,
    majorizes,
    params_from_dict,
    params_new,
    params_to_dict,
    score_vectors,
)

from membership_oracle import (
    candidate_h,
    covers_along,
    exhaustive_witness,
    in_scope_points,
    maximal_by_orbits,
    min_prefix_total,
    sorting_perms,
)
from tie_swap import swap_preserves


def brute_force_file_size_full(n: int, k: int, d: int, r: int) -> int:
    """Minimum over every permutation of the prefix score sum."""
    f = n - d - r
    fam = [i // f for i in range(n)]
    best = None
    for perm in itertools.permutations(range(n)):
        total = 0
        for pos in range(k):
            z = sum(1 for prior in perm[:pos] if fam[prior] != fam[perm[pos]])
            total += max(d - z, 0)
        if best is None or total < best:
            best = total
    return best


PINNED_SIZES = {
    (6, 4, 3, 1): 7,
    (6, 3, 2, 1): 4,
    (4, 2, 1, 1): 1,
    (6, 6, 3, 1): 7,
    (6, 5, 3, 1): 7,
    (8, 4, 5, 1): 14,
}


@pytest.mark.parametrize("nkdr,expect", sorted(PINNED_SIZES.items()))
def test_file_size_frozen(nkdr, expect):
    assert params_new(*nkdr).M == expect


# every in-scope (n, k, d, r) small enough for the n! oracle
SMALL_POINTS = in_scope_points(6)


@pytest.mark.parametrize("nkdr", SMALL_POINTS)
def test_file_size_matches_permutation_oracle(nkdr):
    assert params_new(*nkdr).M == brute_force_file_size_full(*nkdr)


def test_file_size_matches_search_reference():
    # the closed form against the family-sequence search at every
    # in-scope point with n <= 16
    points = in_scope_points(16)
    assert len(points) == 1850
    for n, k, d, r in points:
        assert params_new(n, k, d, r).M == min_prefix_total(n, k, d, n - d - r), (n, k, d, r)


def test_file_size_large_n_pinned():
    # n=12 has 479M permutations, out of the n! oracle's reach; the
    # round-robin order gives 9 + 8 + 7 + 6.
    p = params_new(12, 4, 9, 1)
    assert p.family_size == 2 and p.num_families == 6
    assert p.M == min_prefix_total(12, 4, 9, 2)
    assert p.M == 30


def test_params_validation():
    p = params_new(6, 4, 3, 1)
    assert (p.M, p.alpha, p.beta) == (7, 3, 1)
    assert p.family_size == 2 and p.num_families == 3
    with pytest.raises(OutOfScope):
        params_new(6, 4, 4, 1)  # family size 1
    with pytest.raises(OutOfScope):
        params_new(7, 4, 3, 1)  # 7 % 3 != 0
    with pytest.raises(OutOfScope):
        params_new(6, 0, 3, 1)
    with pytest.raises(OutOfScope):
        params_new(6, 7, 3, 1)
    with pytest.raises(OutOfScope):
        params_new(6, 4, 0, 1)
    with pytest.raises(OutOfScope):
        params_new(6, 4, 3, -1)


def test_family_layout_and_helper_universe(capsys):
    """Node i lies in family (i - 1) // f: the families lrrc params lists
    and every helper universe follow that one rule."""
    p = params_new(6, 4, 3, 1)
    assert helper_universe(p, 1) == frozenset({3, 4, 5, 6})
    assert helper_universe(p, 4) == frozenset({1, 2, 5, 6})
    p2 = params_new(6, 3, 2, 1)
    assert helper_universe(p2, 5) == frozenset({1, 2, 3})
    for point, families in (((6, 4, 3, 1), [[1, 2], [3, 4], [5, 6]]),
                            ((6, 3, 2, 1), [[1, 2, 3], [4, 5, 6]]),
                            ((8, 4, 2, 2), [[1, 2, 3, 4], [5, 6, 7, 8]])):
        assert run_cli(["params", *map(str, point)]) == 0
        assert json.loads(capsys.readouterr().out)["families"] == families
        p = params_new(*point)
        for family in families:
            for node in family:
                assert helper_universe(p, node) == frozenset(range(1, p.n + 1)) - set(family)


def test_score_vectors_pinned():
    p = params_new(6, 4, 3, 1)
    sv = score_vectors(p, Perm((2, 3, 4, 1, 5, 6)))
    assert sv.b == (3, 2, 2, 1, 0, 0)
    assert sv.c == (3, 2, 2, 0, 0, 0)
    sv_id = score_vectors(p, Perm((1, 2, 3, 4, 5, 6)))
    assert sv_id.b == (3, 3, 1, 1, 0, 0)
    assert sv_id.c == (3, 3, 1, 0, 0, 0)


def test_score_vector_non_monotone_example():
    # with three-node families the raw scores need not be sorted
    p = params_new(6, 3, 2, 1)
    sv = score_vectors(p, Perm((4, 5, 1, 6, 2, 3)))
    assert sv.b == (2, 2, 0, 1, 0, 0)
    assert list(sv.b) != sorted(sv.b, reverse=True)


def test_truncation_always_sums_to_file_size():
    p = params_new(6, 4, 3, 1)
    for order in itertools.permutations(range(1, 7)):
        sv = score_vectors(p, Perm(order))
        assert sum(sv.c) == p.M
        assert all(0 <= ci <= bi for ci, bi in zip(sv.c, sv.b))
        # truncation: full prefix, one partial entry, zeros after
        m = max(i for i, ci in enumerate(sv.c) if ci) if any(sv.c) else -1
        assert all(ci == bi for ci, bi in zip(sv.c[:m], sv.b[:m]))
        assert all(ci == 0 for ci in sv.c[m + 1:])


def test_majorizes_basics():
    assert majorizes((3, 2, 2, 0, 0, 0), (2, 2, 2, 0, 0, 0))
    assert majorizes((3, 2, 2), (3, 2, 2))
    assert not majorizes((2, 2, 2), (3, 3, 0))
    # weak form: order of arguments does not matter, sorting does
    assert majorizes((0, 3, 2), (2, 2, 1))
    with pytest.raises(LengthMismatch):
        majorizes((1, 2), (1, 2, 3))


@pytest.mark.parametrize("nkdr", SMALL_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_membership_matches_exhaustive_oracle_small(nkdr):
    # every candidate the sum test does not settle, with its witness:
    # the search returns the oracle's first covering order, which with
    # family size 2 is the canonical sorting order
    p = params_new(*nkdr)
    for h in itertools.product(range(p.d + 1), repeat=p.n):
        if sum(h) > p.M:
            continue
        got = h_membership(p, h)
        want = exhaustive_witness(p, h)
        assert got.member == (want is not None), h
        if got.member:
            assert got.witness.order == want, h
            assert covers_along(p, h, got.witness.order), h
            if p.family_size == 2:
                assert want == next(sorting_perms(p, h)).order, h


@settings(deadline=None)
@given(st.sampled_from(in_scope_points(8)), st.data())
def test_capped_and_raw_scores_cover_alike(nkdr, data):
    """For sum(h) <= M, c covers h's position prefixes along an order
    exactly when b does, because each c-prefix is min(b-prefix, M)."""
    p = params_new(*nkdr)
    order = data.draw(st.permutations(range(1, p.n + 1)))
    h = [0] * p.n
    budget = p.M
    for node in data.draw(st.permutations(range(1, p.n + 1))):
        h[node - 1] = data.draw(st.integers(0, min(p.d, budget)))
        budget -= h[node - 1]
    b = score_vectors(p, Perm(tuple(order))).b
    along = [h[i - 1] for i in order]
    by_b = all(sum(b[:m]) >= sum(along[:m]) for m in range(1, p.n + 1))
    assert covers_along(p, h, order) == by_b
    # is_witness is this coverage along a sorting order; the order drawn
    # rarely sorts h, so also try it stably re-sorted by h
    sorts = all(along[j] >= along[j + 1] for j in range(p.n - 1))
    assert is_witness(p, h, order) == (covers_along(p, h, order) and sorts)
    resorted = sorted(order, key=lambda i: -h[i - 1])
    assert is_witness(p, h, resorted) == covers_along(p, h, resorted)


def test_membership_covers_position_by_position():
    # family size 4: once node 1 is repaired from helpers {5, 6, 7} its
    # columns lie in their span, and nodes 6 and 7 already give 6, so
    # node 1 adds at most 1 of the 2 columns h asks of it.  The capped
    # score majorizes h once sorted, but not position by position.
    p = params_new(8, 5, 3, 1)
    assert h_membership(p, (2, 0, 0, 0, 0, 3, 3, 0)).member is False


def _canonical_order(params, h):
    return sorted(range(1, params.n + 1), key=lambda node: (-h[node - 1], node))


@pytest.mark.parametrize("nkdr,h,witness", [
    ((10, 9, 5, 0), (5, 2, 0, 0, 0, 4, 4, 4, 4, 2), (1, 6, 7, 8, 9, 10, 2, 3, 4, 5)),
    ((12, 9, 5, 1), (5, 2, 0, 0, 0, 0, 4, 4, 4, 4, 2, 0),
     (1, 7, 8, 9, 10, 11, 2, 3, 4, 5, 6, 12)),
], ids=["10-9-5-0", "12-9-5-1"])
def test_membership_search_finds_members_the_canonical_order_misses(nkdr, h, witness):
    # family size 5 and 6: the canonical order (ties by ascending index)
    # takes node 2 before the other node of value 2 and falls short, so
    # only the search past h_membership's first pass proves these members
    p = params_new(*nkdr)
    assert not is_witness(p, h, _canonical_order(p, h))
    assert exhaustive_witness(p, h) == witness
    got = h_membership(p, h)
    assert got.member and got.witness.order == witness
    assert is_witness(p, h, witness) and covers_along(p, h, witness)


def _closed_form_candidates(point):
    n, _, d, r = point
    f = n - d - r
    return math.comb(math.comb(d + f, f) + n // f - 1, n // f)


# every in-scope point with n <= 10 that has at most 20,000 canonical candidates
CERTIFICATE_POINTS = [p for p in in_scope_points(10) if _closed_form_candidates(p) <= 20_000]


def test_certificate_sweep_counts():
    # the batched canonical-order pass certifies every member of the
    # sweep: members and rejects add up to the candidates, so the search
    # h_enumerate runs on the rejects proves each of them a non-member
    candidates = rejects = members = 0
    for point in CERTIFICATE_POINTS:
        params = params_new(*point)
        rows = np.array([h for h, _ in mfhs._canonical_candidates(params)], np.int8)
        candidates += len(rows)
        rejects += int((~mfhs._canonical_covers(params, rows)[0]).sum())
        members += len(h_enumerate(params).representatives)
    assert (len(CERTIFICATE_POINTS), candidates, members, rejects) == (238, 55_701, 51_437, 4_264)


def test_membership_search_runs_on_the_rejects_alone(monkeypatch):
    params = params_new(10, 9, 5, 0)
    rows = np.array([h for h, _ in mfhs._canonical_candidates(params)], np.int8)
    rejects = {tuple(h) for h in rows[~mfhs._canonical_covers(params, rows)[0]].tolist()}
    searched = []
    search = mfhs._membership_search

    def recording_search(params_, h, canonical):
        # the batched pass hands over each reject's canonical order
        assert list(canonical) == _canonical_order(params_, h)
        searched.append(h)
        return search(params_, h, canonical)

    def refuse(*args):
        raise AssertionError("h_enumerate reran h_membership's first pass")

    monkeypatch.setattr(mfhs, "_membership_search", recording_search)
    monkeypatch.setattr(mfhs, "h_membership", refuse)
    assert (5, 2, 0, 0, 0, 4, 4, 4, 4, 2) in h_enumerate.__wrapped__(params)
    assert sorted(searched) == sorted(rejects) and len(rejects) == 3_430


@pytest.mark.parametrize("point", CERTIFICATE_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_batched_certificate_and_enumeration_match_the_references(point):
    # the batched pass is is_witness on the canonical order, row for
    # row, and h_enumerate equals h_membership run on every candidate
    params = params_new(*point)
    vectors = [h for h, _ in mfhs._canonical_candidates(params)]
    certified = mfhs._canonical_covers(params, np.array(vectors, np.int8))[0]
    assert certified.tolist() == [is_witness(params, h, _canonical_order(params, h)) for h in vectors]
    size, representatives, top = candidate_h(params)
    hset = h_enumerate(params)
    assert (hset.size, hset.representatives) == (size, representatives)
    assert np.array_equal(hset.rows, mfhs._orbits(params, top))


PLANTED = {
    (10, 9, 5, 0): [(5, 2, 0, 0, 0, 4, 4, 4, 4, 2), (2, 5, 0, 4, 0, 4, 0, 4, 2, 4)],
    (12, 9, 5, 1): [(5, 2, 0, 0, 0, 0, 4, 4, 4, 4, 2, 0)],
    (8, 5, 3, 1): [(2, 0, 0, 0, 0, 3, 3, 0), (3, 0, 0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)],
    (6, 4, 3, 1): [(0, 2, 3, 0, 1, 1), (3, 3, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1)],
}


@pytest.mark.parametrize("point", sorted(PLANTED), ids=lambda p: "-".join(map(str, p)))
def test_batched_certificate_on_planted_rejects(point):
    # members only the search proves, non-members, and rows that are no
    # canonical candidate, in one batch
    params = params_new(*point)
    certified = mfhs._canonical_covers(params, np.array(PLANTED[point], np.int8))[0]
    assert certified.tolist() == [is_witness(params, h, _canonical_order(params, h))
                                  for h in PLANTED[point]]
    if point[:2] in ((10, 9), (12, 9)):
        assert not certified[0] and h_membership(params, PLANTED[point][0]).member


@settings(deadline=None)
@given(st.sampled_from(in_scope_points(10)), st.data())
def test_batched_certificate_on_drawn_vectors(nkdr, data):
    params = params_new(*nkdr)
    vectors = []
    for _ in range(data.draw(st.integers(1, 8))):
        h, budget = [0] * params.n, params.M
        for node in data.draw(st.permutations(range(params.n))):
            h[node] = data.draw(st.integers(0, min(params.d, budget)))
            budget -= h[node]
        vectors.append(tuple(h))
    certified = mfhs._canonical_covers(params, np.array(vectors, np.int8))[0]
    assert certified.tolist() == [is_witness(params, h, _canonical_order(params, h)) for h in vectors]


@pytest.mark.parametrize("point", [(6, 4, 3, 1), (8, 4, 2, 2), (10, 9, 5, 0)],
                         ids=lambda p: "-".join(map(str, p)))
def test_candidate_chunks_leave_the_hset_unchanged(point, monkeypatch):
    # chunks of 1 and of 7 candidates; (10,9,5,0) holds a member that
    # only the search proves
    params = params_new(*point)
    whole = h_enumerate.__wrapped__(params)
    for rows_per_chunk in (1, 7):
        monkeypatch.setattr(mfhs, "RANK_CHUNK", rows_per_chunk * params.n ** 2)
        chunked = h_enumerate.__wrapped__(params)
        assert (chunked.size, chunked.representatives) == (whole.size, whole.representatives)
        assert np.array_equal(chunked.rows, whole.rows)


def test_enumeration_budget_refuses_up_front():
    # C(C(10, 2) + 5, 6) = 15,890,700 canonical candidates: the budget
    # check must fire before any is visited
    with pytest.raises(TooLarge, match="15890700 canonical candidates"):
        h_enumerate(params_new(12, 6, 8, 2))


def test_enumeration_budget_refuses_maximal_layer_before_listing(monkeypatch):
    # 122,760 canonical candidates pass the budget, but the total-16
    # orbits hold 167,281,683 maximal members: counted, never listed
    def listed(*_):
        raise AssertionError("an orbit was listed")

    monkeypatch.setattr(mfhs, "_orbits", listed)
    with pytest.raises(TooLarge, match="167281683 maximal members"):
        h_enumerate(params_new(16, 7, 4, 4))


def test_members_listing_is_budgeted(monkeypatch):
    # the maximal layer fits the budget, |H| does not: set-up succeeds,
    # listing the members is refused before it starts
    monkeypatch.setattr(mfhs, "H_ENUMERATION_LIMIT", 1000)
    hs = h_enumerate.__wrapped__(params_new(6, 4, 3, 1))
    assert (len(hs), len(hs.maximal)) == (1128, 384)
    assert hs.maximal[0] in hs and (0,) * 6 in hs
    with pytest.raises(TooLarge, match="1128 members exceed 1000"):
        hs.members
    with pytest.raises(TooLarge):
        hs.witnesses


def test_h_enumerate_counts_frozen():
    assert len(h_enumerate(params_new(6, 4, 3, 1))) == 1128
    assert len(h_enumerate(params_new(6, 3, 2, 1))) == 159
    # (|H|, len(maximal)); filtering all (d+1)^n candidates gave the same
    for point, counts in (((8, 5, 3, 1), (12_538, 4_096)), ((10, 6, 3, 2), (57_618, 25_050))):
        hs = h_enumerate(params_new(*point))
        assert (len(hs), len(hs.maximal)) == counts, point


@pytest.mark.parametrize("point", in_scope_points(8) + [(9, 6, 4, 2), (10, 6, 3, 2), (40, 2, 2, 36)],
                         ids=lambda p: "-".join(map(str, p)))
def test_maximal_rows_equal_the_sorted_orbit_listing(point):
    # the numpy expansion against the tuple listing, orbit by orbit;
    # rows are compared by value, so the HSet's own tuples stay unbuilt
    rows = h_enumerate(params_new(*point)).rows
    assert (rows.dtype, rows.flags.c_contiguous, rows.flags.writeable) == (np.int8, True, False)
    assert list(map(tuple, rows.tolist())) == maximal_by_orbits(h_enumerate(params_new(*point)))


def test_file_size_beats_blind_selection():
    # the paper's gap: family helper selection against the MBR file size
    # sum_{i<k} (d - i)+ of blind helper selection
    points = in_scope_points(16)
    gaps = [params_new(*p).M - sum(max(p[2] - i, 0) for i in range(p[1])) for p in points]
    assert len(points) == 1850
    assert min(gaps) == 0
    assert sum(gap > 0 for gap in gaps) == 856


MAXIMAL_COUNTS = {(6, 4, 3, 1): (384, 1128), (6, 3, 2, 1): (81, 159), (8, 4, 2, 2): (250, 407)}


@pytest.mark.parametrize("point", sorted(MAXIMAL_COUNTS), ids=lambda p: "-".join(map(str, p)))
def test_maximal_antichain_pinned(point):
    p = params_new(*point)
    hs = h_enumerate(p)
    assert (len(hs.maximal), len(hs)) == MAXIMAL_COUNTS[point]
    assert all(sum(h) == p.M for h in hs.maximal)
    # member order is kept, and no maximal member lies below another
    assert list(hs.maximal) == [h for h in hs.members if h in set(hs.maximal)]
    for h in hs.members:
        above = [m for m in hs.maximal if all(a <= b for a, b in zip(h, m))]
        assert above, h
        if h in hs.maximal:
            assert above == [h]


def test_h_enumerate_members_all_pass_membership():
    p = params_new(6, 3, 2, 1)
    hs = h_enumerate(p)
    for h in hs.members:
        assert h_membership(p, h).member
        assert sum(h) <= p.M
        assert all(0 <= hi <= p.d for hi in h)
    # witnesses really do certify membership
    for h, w in zip(hs.members, hs.witnesses):
        assert covers_along(p, h, w)


def test_h_set_contains_and_lookup():
    p = params_new(6, 4, 3, 1)
    hs = h_enumerate(p)
    assert (0, 0, 0, 0, 0, 0) in hs
    assert (3, 2, 2, 0, 0, 0) in hs
    assert (3, 3, 3, 3, 3, 3) not in hs
    assert (1, 1, 1, 1, 1, 1) in hs
    witness = hs.witnesses[hs.members.index((3, 2, 2, 0, 0, 0))]
    assert covers_along(p, (3, 2, 2, 0, 0, 0), witness)


def test_h_set_compares_by_identity():
    # witness_targets keys its memo on the HSet, so hashing must not
    # walk its vectors
    p = params_new(6, 3, 2, 1)
    hs = h_enumerate(p)
    twin = h_enumerate.__wrapped__(p)
    assert hs == hs and hs != twin
    assert hash(hs) == object.__hash__(hs)


def test_zero_vector_and_unit_vectors_admissible():
    for nkdr in ((6, 4, 3, 1), (6, 3, 2, 1)):
        p = params_new(*nkdr)
        hs = h_enumerate(p)
        assert tuple([0] * p.n) in hs
        for i in range(p.n):
            h = [0] * p.n
            h[i] = 1
            assert tuple(h) in hs


def test_canonical_sorting_perm():
    p = params_new(6, 4, 3, 1)
    assert h_membership(p, (0, 2, 3, 0, 1, 1)).witness.order == (3, 2, 5, 6, 1, 4)


def test_swap_preserves_pinned_pair():
    p = params_new(6, 4, 3, 1)
    # equal adjacent values may be swapped without leaving the set
    h = (3, 2, 2, 0, 0, 0)
    assert swap_preserves(p, h, h_membership(p, h).witness, 2)


def test_swap_preserves_preconditions():
    p = params_new(6, 4, 3, 1)
    h = (3, 2, 2, 0, 0, 0)
    perm = h_membership(p, h).witness
    with pytest.raises(PreconditionViolated):
        swap_preserves(p, h, perm, 1)  # values 3 and 2 differ
    with pytest.raises(PreconditionViolated):
        swap_preserves(p, h, Perm((2, 1, 3, 4, 5, 6)), 2)  # not a sorting perm
    p3 = params_new(6, 3, 2, 1)
    h3 = (2, 2, 0, 0, 0, 0)
    with pytest.raises(PreconditionViolated):
        swap_preserves(p3, h3, h_membership(p3, h3).witness, 1)  # three-node families


def test_membership_rejects_over_cap_entries():
    p = params_new(6, 3, 2, 1)
    assert not h_membership(p, (3, 0, 0, 0, 0, 0)).member
    assert not h_membership(p, (2, 2, 1, 0, 0, 0)).member  # sums to 5 > M=4
    with pytest.raises(LengthMismatch):
        h_membership(p, (1, 1))


def test_params_serialization_round_trip():
    p = params_new(6, 4, 3, 1)
    d = params_to_dict(p)
    assert d["M"] == 7
    assert params_from_dict(d) == p
    d["M"] = 99
    with pytest.raises(OutOfScope):
        params_from_dict(d)


@pytest.mark.parametrize("nkdr", [(6, 4, 3, 1), (8, 4, 2, 2), (10, 6, 3, 2)])
def test_params_to_dict_is_the_dataclass_dict(nkdr):
    p = params_new(*nkdr)
    assert params_to_dict(p) == dataclasses.asdict(p)
    assert list(params_to_dict(p)) == list(dataclasses.asdict(p))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(6, 4, 3, 1), (6, 3, 2, 1)]), st.data())
def test_membership_invariant_under_entry_decrease(nkdr, data):
    """Lowering one coordinate of an admissible vector keeps it admissible."""
    p = params_new(*nkdr)
    hs = h_enumerate(p)
    h = data.draw(st.sampled_from(hs.members))
    i = data.draw(st.integers(0, p.n - 1))
    if h[i] == 0:
        return
    lowered = list(h)
    lowered[i] -= 1
    assert tuple(lowered) in hs


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_connectable_vectors_expected_shape(data):
    p = params_new(6, 4, 3, 1)
    hs = h_enumerate(p)
    h = data.draw(st.sampled_from(hs.members))
    assert sum(h) <= p.M
    assert max(h) <= p.d


def test_hnotmember_is_exported_exception():
    assert issubclass(HNotMember, Exception)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Perm((1, 1, 2)), PreconditionViolated, "(1, 1, 2) is not a permutation of 1..3"),
    (lambda: params_new(6.0, 4, 3, 1), OutOfScope, "n must be an integer, got 6.0"),
    (lambda: helper_universe(params_new(6, 4, 3, 1), 0), OutOfScope, "node 0 outside 1..6"),
    (lambda: score_vectors(params_new(6, 4, 3, 1), Perm((1, 2, 3, 4, 5))), LengthMismatch,
     "order over 5 nodes, params say 6"),
    (lambda: is_witness(params_new(6, 4, 3, 1), (1, 1, 1), (1, 2, 3, 4, 5, 6)), LengthMismatch,
     "h over 3 nodes, params say 6"),
], ids=["perm-repeats", "params-float", "universe-node", "score-length", "witness-length"])
def test_malformed_arguments_are_rejected(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
