"""Helper-increment procedure: pinned trace, invariants, failure modes."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrrc import code_core, connect, mfhs
from lrrc.connect import (
    ConnectState,
    InternalContradiction,
    _check_state,
    connect_run,
    connect_state_to_dict,
    initial_perm,
)
from lrrc.mfhs import HNotMember, Perm, h_enumerate, majorizes, params_new, score_vectors
from membership_oracle import covers_along

P641 = params_new(6, 4, 3, 1)
P321 = params_new(6, 3, 2, 1)
P8531 = params_new(8, 5, 3, 1)


def test_initial_perm_orders_by_value_then_helpers_then_index():
    h = (0, 2, 3, 0, 1, 1)
    perm = initial_perm(P641, h, helpers=(1, 2, 3), failed=5)
    assert perm.order == (3, 2, 5, 6, 1, 4)
    # helpers win ties against equal-valued outsiders
    h2 = (1, 1, 0, 0, 1, 1)
    perm2 = initial_perm(P641, h2, helpers=(5, 6, 4), failed=1)
    assert perm2.order == (5, 6, 1, 2, 4, 3)


def test_initial_perm_rejects_inadmissible_h():
    with pytest.raises(HNotMember):
        initial_perm(P641, (3, 3, 3, 3, 3, 3), helpers=(3, 4, 5), failed=1)


def test_worked_trace():
    h = (3, 2, 2, 0, 0, 0)
    result = connect_run(P641, h, helpers=(3, 4, 5), failed=1)
    perms = [s.perm.order for s in result.trace]
    assert perms[0] == (1, 3, 2, 4, 5, 6)
    assert perms[1:] == [
        (3, 2, 1, 4, 5, 6),
        (3, 2, 4, 5, 1, 6),
        (3, 2, 4, 5, 6, 1),
    ]
    assert result.h_prime == (0, 2, 3, 1, 1, 0)
    assert result.incremented == (4, 5, 3)
    # the failed node ends drained and every intermediate state certifies
    for state in result.trace:
        assert covers_along(P641, state.h, state.perm.order)
    assert result.trace[-1].h[0] == 0


def test_zero_demand_is_a_no_op():
    h = (0, 2, 3, 0, 1, 1)
    result = connect_run(P641, h, helpers=(1, 2, 5), failed=4)
    assert result.h_prime == h
    assert result.incremented == ()
    assert len(result.trace) == 1


def test_helper_validation():
    h = (1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        connect_run(P641, h, helpers=(1, 3, 4), failed=1)  # helper in own family
    with pytest.raises(ValueError):
        connect_run(P641, h, helpers=(3, 4), failed=1)  # wrong count
    with pytest.raises(ValueError):
        connect_run(P641, h, helpers=(3, 3, 4), failed=1)  # duplicate


def test_one_helper_validator_for_repair_and_connect():
    assert code_core.InvalidHelpers is mfhs.InvalidHelpers
    assert issubclass(mfhs.InvalidHelpers, (mfhs.ModelError, ValueError))
    assert mfhs.checked_helpers(P641, 1, (5, 3, 4)) == (3, 4, 5)
    with pytest.raises(mfhs.InvalidHelpers):
        connect_run(P641, (1, 1, 1, 1, 1, 1), helpers=(3, 4, 5), failed=7)


def test_sum_preserved_and_failed_drained():
    hs = h_enumerate(P641)
    for h in list(hs)[:200]:
        for failed in (1, 4):
            helpers = (3, 5, 6) if failed == 1 else (1, 2, 5)
            result = connect_run(P641, h, helpers, failed)
            assert sum(result.h_prime) == sum(h)
            assert result.h_prime[failed - 1] == 0
            assert len(result.incremented) == h[failed - 1]
            assert result.h_prime in hs
            # increments land on chosen helpers only
            for node in result.incremented:
                assert node in helpers


def test_increments_respect_degree_cap():
    hs = h_enumerate(P321)
    for h in hs:
        result = connect_run(P321, h, helpers=(4, 5), failed=1)
        assert all(0 <= v <= P321.d for v in result.h_prime)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_runs_keep_certificates(data):
    params = data.draw(st.sampled_from([P641, P321, P8531]))
    hs = h_enumerate(params)
    h = data.draw(st.sampled_from(hs.members))
    failed = data.draw(st.integers(1, params.n))
    from lrrc.mfhs import helper_universe

    universe = sorted(helper_universe(params, failed))
    helpers = tuple(sorted(data.draw(
        st.permutations(universe).map(lambda p: p[: params.d])
    )))
    result = connect_run(params, h, helpers, failed)
    for state in result.trace:
        assert covers_along(params, state.h, state.perm.order)
        vals = [state.h[node - 1] for node in state.perm.order]
        assert all(vals[j] >= vals[j + 1] for j in range(params.n - 1))
    assert result.h_prime in hs


def test_state_serialization_shape():
    h = (3, 2, 2, 0, 0, 0)
    result = connect_run(P641, h, helpers=(3, 4, 5), failed=1)
    doc = connect_state_to_dict(result.trace[0])
    assert doc["t"] == 0
    assert doc["perm"] == [1, 3, 2, 4, 5, 6]
    assert doc["h"] == [3, 2, 2, 0, 0, 0]
    assert sorted(doc["pool"]) == [3, 4, 5]
    assert doc["failed"] == 1


def test_full_sweep_small_params_no_contradiction():
    """Every (h, failed, helper set) at the smaller point must succeed."""
    hs = h_enumerate(P321)
    from lrrc.mfhs import helper_universe

    runs = 0
    for h in hs:
        for failed in range(1, 7):
            universe = sorted(helper_universe(P321, failed))
            for helpers in itertools.combinations(universe, P321.d):
                connect_run(P321, h, helpers, failed)
                runs += 1
    assert runs == len(hs) * 6 * 3  # 159 * 18 = 2862


def test_certificate_covers_position_by_position():
    # family size 4: the capped score (3, 3, 1, 2, 0, 0, 0, 0) of this
    # order majorizes h once sorted, but along the order h asks 3, 3, 2
    # of the first three positions and they score 3, 3, 1
    order = (8, 5, 3, 6, 4, 2, 7, 1)
    h = (0, 0, 2, 0, 3, 1, 0, 3)
    capped = score_vectors(P8531, Perm(order)).c
    assert capped == (3, 3, 1, 2, 0, 0, 0, 0) and majorizes(capped, h)
    state = ConnectState(t=0, h=h, pool=frozenset(), perm=Perm(order), failed=1)
    with pytest.raises(InternalContradiction, match="does not sort and cover"):
        _check_state(P8531, state)


@pytest.mark.parametrize("params", [P641, P8531], ids=["6-4-3-1", "8-5-3-1"])
def test_one_membership_search_per_run(monkeypatch, params):
    # the last state's certificate proves h' in H, so the only search is
    # initial_perm's on h
    calls = []

    def counting(*args):
        calls.append(args)
        return mfhs.h_membership(*args)

    monkeypatch.setattr(connect, "h_membership", counting)
    hs = h_enumerate(params)
    runs = 0
    for h in hs.maximal[:50]:
        for failed in (1, params.n):
            helpers = sorted(mfhs.helper_universe(params, failed))[: params.d]
            connect_run(params, h, helpers, failed)
            runs += 1
            assert len(calls) == runs
    assert [args[1] for args in calls[-2:]] == [hs.maximal[49]] * 2


def test_internal_contradiction_is_exported():
    assert issubclass(InternalContradiction, Exception)
