"""Parameter model, score vectors, and the admissible selection set.

Derived quantities are checked two ways: against frozen values computed
once by brute force, and against slow in-test oracles that enumerate
permutations directly.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrrc import mfhs
from lrrc.mfhs import (
    HNotMember,
    LengthMismatch,
    OutOfScope,
    Perm,
    PreconditionViolated,
    TooLarge,
    family_layout,
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
    covers_along,
    exhaustive_witness,
    in_scope_points,
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


def test_family_layout_and_helper_universe():
    p = params_new(6, 4, 3, 1)
    layout = family_layout(p)
    assert layout.members == ((1, 2), (3, 4), (5, 6))
    assert [layout.family_of[i - 1] for i in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    assert helper_universe(p, 1) == frozenset({3, 4, 5, 6})
    assert helper_universe(p, 4) == frozenset({1, 2, 5, 6})
    p2 = params_new(6, 3, 2, 1)
    assert family_layout(p2).members == ((1, 2, 3), (4, 5, 6))
    assert helper_universe(p2, 5) == frozenset({1, 2, 3})


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

    monkeypatch.setattr(mfhs, "_orbit", listed)
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


MAXIMAL_COUNTS = {(6, 4, 3, 1): (384, 1128), (6, 3, 2, 1): (81, 159), (8, 4, 2, 2): (250, 407)}


@pytest.mark.parametrize("point", sorted(MAXIMAL_COUNTS), ids=lambda p: "-".join(map(str, p)))
def test_maximal_antichain_pinned(point):
    p = params_new(*point)
    hs = h_enumerate(p)
    assert (len(hs.maximal), len(hs)) == MAXIMAL_COUNTS[point]
    assert all(sum(h) == p.M for h in hs.maximal)
    # member order is kept, and no maximal member lies below another
    assert list(hs.maximal) == [h for h in hs if h in set(hs.maximal)]
    for h in hs:
        above = [m for m in hs.maximal if all(a <= b for a, b in zip(h, m))]
        assert above, h
        if h in hs.maximal:
            assert above == [h]
    # the batched gather selects the first h_i columns of each node
    assert hs.maximal_columns.shape == (len(hs.maximal), p.M)
    for h, row in zip(hs.maximal, hs.maximal_columns.tolist()):
        assert row == [i * p.d + c for i, v in enumerate(h) for c in range(v)]


def test_h_enumerate_members_all_pass_membership():
    p = params_new(6, 3, 2, 1)
    hs = h_enumerate(p)
    for h in hs:
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
    assert hs.maximal_columns.shape == (len(hs.maximal), p.M)
    row = hs.maximal_columns[hs.maximal.index((3, 2, 2, 0, 0, 0))]
    assert row.tolist() == [0, 1, 2, 3, 4, 6, 7]


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
