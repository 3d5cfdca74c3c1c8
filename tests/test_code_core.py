"""Random construction, verified repair, witness checks, serialization."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from lrrc import code_core, connect, galois, mfhs
from lrrc.code_core import (
    AttemptsExhausted,
    CodeError,
    CodeState,
    ConstructionFailed,
    InvalidHelpers,
    RankDeficient,
    RepairFailed,
    construct,
    decode,
    encode,
    invariant_check,
    invariant_failure,
    reconstruct_check,
    repair_random,
    required_field_size,
    state_from_dict,
    state_to_dict,
    witness_holds,
    witness_repair_check,
    witness_targets,
)
from lrrc.galois import (
    BATCH_Q_LIMIT,
    RANK_CHUNK,
    FieldMatrix,
    field_new,
    first_rank_deficient,
    identity,
    mat_hstack,
    mat_mul,
    mat_transpose,
    next_prime,
    rank_of_rows,
)
from lrrc.connect import InternalContradiction, connect_run
from lrrc.mfhs import HNotMember, HSet, Perm, h_enumerate, helper_universe, params_new, score_vectors

from membership_oracle import (
    filtered_h,
    in_scope_points,
    maximal_by_domination,
    maximal_by_down_closure,
)

P321 = params_new(6, 3, 2, 1)
P641 = params_new(6, 4, 3, 1)
H321 = h_enumerate(P321)
H641 = h_enumerate(P641)
# family size 4; its H takes several seconds to enumerate, so fetch it
# through the cached h_enumerate only inside tests
P8422 = params_new(8, 4, 2, 2)
CROSS_CHECK_POINTS = (P641, P321, P8422)


def _point_id(params) -> str:
    return f"{params.n}-{params.k}-{params.d}-{params.r}"


@pytest.fixture(scope="module")
def small_state():
    return construct(P321, field_new(7639), H321, rng_seed=7)


def test_required_field_size_frozen():
    assert required_field_size(P641, H641) == 6 * 3 * 7 * 1128 + 1 == 142129
    assert required_field_size(P321, H321) == 6 * 2 * 4 * 159 + 1 == 7633


def test_construct_first_attempt_and_checks(small_state):
    assert small_state.attempts == 1
    assert invariant_check(small_state, H321)
    assert reconstruct_check(small_state)
    assert len(small_state.Q) == 6
    for q_i in small_state.Q:
        assert (q_i.rows, q_i.cols) == (P321.M, P321.d)
        assert rank_of_rows(_rows(q_i), q_i.field.q) == P321.d


def test_construct_determinism():
    a = construct(P321, field_new(7639), H321, rng_seed=123)
    b = construct(P321, field_new(7639), H321, rng_seed=123)
    assert state_to_dict(a) == state_to_dict(b)
    c = construct(P321, field_new(7639), H321, rng_seed=124)
    assert state_to_dict(a) != state_to_dict(c)


def test_construct_below_bound_sets_flag(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="lrrc.code_core"):
        state = construct(P321, field_new(101), H321, rng_seed=5)
    assert any("below" in rec.message for rec in caplog.records)
    # small fields can still succeed; the invariant must genuinely hold
    assert invariant_check(state, H321)


def test_construct_gives_up_over_tiny_field():
    with pytest.raises(ConstructionFailed) as err:
        construct(P321, field_new(2), H321, rng_seed=0, max_attempts=3)
    assert err.value.attempts == 3


def test_invariant_check_catches_planted_defect(small_state):
    # duplicate one storage matrix; selections mixing the twins collapse
    broken = CodeState(
        params=small_state.params,
        field=small_state.field,
        packet_width=small_state.packet_width,
        Q=(small_state.Q[0],) * 2 + small_state.Q[2:],
        attempts=small_state.attempts,
    )
    assert not invariant_check(broken, H321)


def test_reconstruct_check_catches_rank_loss(small_state):
    f = small_state.field
    zero = FieldMatrix.from_rows(
        [[0] * P321.d for _ in range(P321.M)], f
    )
    broken = CodeState(
        params=small_state.params, field=f, packet_width=1,
        Q=(zero,) * 3 + small_state.Q[3:],
    )
    assert not reconstruct_check(broken)


def test_encode_decode_round_trip():
    f = field_new(7639)
    state = construct(P321, f, H321, rng_seed=7, packet_width=2)
    file = FieldMatrix.from_rows(
        [[(3 * i + j) % f.q for j in range(2)] for i in range(P321.M)], f
    )
    stored = encode(state, file)
    assert len(stored) == 6
    for chunk in stored:
        assert (chunk.rows, chunk.cols) == (2, P321.d)
    for nodes in itertools.combinations(range(1, 7), P321.k):
        packets = [stored[i - 1] for i in nodes]
        assert decode(state, nodes, packets) == file
    with pytest.raises(RankDeficient):
        decode(state, (1, 2), [stored[0], stored[1]])


def test_decode_rejects_node_ids_outside_range(small_state):
    file = FieldMatrix.from_rows([[v] for v in range(P321.M)], small_state.field)
    stored = encode(small_state, file)
    for nodes in ((0, 1, 2), (1, 2, 7)):
        packets = [stored[(i - 1) % 6] for i in nodes]
        with pytest.raises(CodeError, match="outside"):
            decode(small_state, nodes, packets)


@pytest.mark.parametrize("budget", (0, -1))
def test_attempt_budget_below_one_is_refused(small_state, budget):
    with pytest.raises(CodeError, match="max_attempts") as err:
        construct(P321, field_new(7639), H321, rng_seed=0, max_attempts=budget)
    assert not isinstance(err.value, ConstructionFailed)
    with pytest.raises(CodeError, match="max_attempts") as err:
        repair_random(small_state, 1, (4, 5), rng_seed=0, max_attempts=budget)
    assert not isinstance(err.value, RepairFailed)


def test_repair_random_restores_invariant(small_state):
    repaired = repair_random(small_state, 2, (4, 6), rng_seed=31)
    assert invariant_check(repaired, H321)
    assert reconstruct_check(repaired)
    # untouched nodes keep their storage assignments
    for i in range(6):
        if i != 1:
            assert repaired.Q[i] == small_state.Q[i]
    assert repaired.Q[1] != small_state.Q[1]


def test_repair_new_content_lies_in_helper_span(small_state):
    failed, helpers = 1, (4, 5)
    repaired = repair_random(small_state, failed, helpers, rng_seed=8)
    span_cols = [small_state.Q[j - 1] for j in helpers]
    f = small_state.field
    from lrrc.galois import mat_hstack

    span = mat_hstack(span_cols)
    joint = mat_hstack([span, repaired.Q[failed - 1]])
    assert rank_of_rows(_rows(joint), f.q) == rank_of_rows(_rows(span), f.q)


def test_repair_helper_validation(small_state):
    with pytest.raises(InvalidHelpers):
        repair_random(small_state, 1, (2, 4), rng_seed=0)  # own family
    with pytest.raises(InvalidHelpers):
        repair_random(small_state, 1, (4,), rng_seed=0)  # too few
    with pytest.raises(InvalidHelpers):
        repair_random(small_state, 1, (4, 4), rng_seed=0)  # duplicates
    with pytest.raises(InvalidHelpers):
        repair_random(small_state, 7, (4, 5), rng_seed=0)  # no such node


def test_repair_rejects_node_ids_that_do_not_fit(small_state):
    # repair_random is the one way to apply a repair now; it refuses a
    # repair whose node ids do not fit the state before drawing: helper 0
    # would index Q_6's columns, failed 0 would not broadcast, failed 7
    # would overrun the coefficient array
    for failed, helpers in ((1, (0, 5)), (1, (5, 0)), (0, (4, 5)), (7, (4, 5)), (1, (2, 5)),
                            (1, (4, 4)), (1, (4, 5, 6))):
        with pytest.raises(InvalidHelpers):
            repair_random(small_state, failed, helpers, rng_seed=0)


def test_repair_determinism(small_state):
    a = repair_random(small_state, 3, (4, 5), rng_seed=77)
    b = repair_random(small_state, 3, (4, 5), rng_seed=77)
    assert state_to_dict(a) == state_to_dict(b)


def test_witness_repair_full_selection_set(small_state):
    for h in H321.members:
        assert witness_repair_check(small_state, 1, (4, 5), h, H321), h


def _mat_mul_repair(state, failed, helpers, combine, mix):
    """The state after a repair of node failed, by the repair's
    definition in pure-Python products: helper helpers[j] sends
    Q_{helpers[j]} @ combine[j] and the newcomer stores
    [Q_{x_1} b_1 | ... | Q_{x_d} b_d] @ mix."""
    columns = [mat_mul(state.Q[x - 1], b) for x, b in zip(helpers, combine)]
    new_q = list(state.Q)
    new_q[failed - 1] = mat_mul(mat_hstack(columns), mix)
    return replace(state, Q=tuple(new_q))


def plan_replay_witness(state, failed, helpers, h):
    """The witness by building the repair it prescribes: the j-th
    incremented helper s_j sends column h'_{s_j}, the other helpers pad
    the unused slots with their first column, the mix is the identity,
    and the repaired state's selection under h is ranked."""
    params = state.params
    ordered = tuple(sorted(helpers))
    result = connect_run(params, h, ordered, failed)

    def unit(col):
        return FieldMatrix(params.d, 1, tuple(int(c == col) for c in range(1, params.d + 1)),
                           state.field)

    leftovers = [x for x in ordered if x not in result.incremented]
    candidate = _mat_mul_repair(
        state, failed, result.incremented + tuple(leftovers),
        [unit(result.h_prime[x - 1]) for x in result.incremented] + [unit(1) for _ in leftovers],
        identity(params.d, state.field),
    )
    return sum(h) == 0 or rank_of_rows(_selection_rows(candidate, h), state.field.q) == sum(h)


@pytest.mark.parametrize("params", (P321, P641), ids=_point_id)
def test_witness_at_h_prime_matches_plan_replay(params):
    # the witness ranks the current state's selection under h'; the
    # replayed repair's selection under h has the same columns, so the
    # verdicts agree on any state, rank-deficient ones included
    hset = h_enumerate(params)
    rng = random.Random(f"witness/{params}")
    states = [construct(params, field_new(7639), hset, rng_seed=5, max_attempts=64)]
    states += [_random_state(params, q, rng) for q in (2, 3, 5)]
    verdicts = []
    for state in states:
        for failed in range(1, params.n + 1):
            helpers = tuple(sorted(rng.sample(sorted(helper_universe(params, failed)), params.d)))
            for h in rng.sample(hset.members, min(len(hset), 160)):
                verdict = witness_repair_check(state, failed, helpers, h, hset)
                assert verdict == plan_replay_witness(state, failed, helpers, h), (failed, helpers, h)
                verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_witness_repair_rejects_foreign_h(small_state):
    with pytest.raises(HNotMember):
        witness_repair_check(small_state, 1, (4, 5), (2, 2, 2, 2, 2, 2), H321)


def _witness_keys(params):
    """Every (failed, helpers) pair, helpers ascending as checked_helpers
    returns them."""
    return [
        (failed, helpers)
        for failed in range(1, params.n + 1)
        for helpers in itertools.combinations(sorted(helper_universe(params, failed)), params.d)
    ]


def _sweep_states(params, hset, rng):
    """The constructed state, random states at q = 2, 3, 5 and one
    random state above the int64 batching limit."""
    states = [construct(params, field_new(7639), hset, rng_seed=5, max_attempts=64)]
    states += [_random_state(params, q, rng) for q in (2, 3, 5, next_prime(2**31))]
    return states


@pytest.mark.parametrize("point", ((4, 2, 1, 1), (6, 3, 2, 1), (6, 2, 1, 3), (6, 4, 3, 1)),
                         ids=lambda p: "-".join(map(str, p)))
def test_witness_targets_decide_the_full_sweep(point):
    # witness_holds ranks the maximal targets only; the reference ranks
    # every h in H through the single-h check
    params = params_new(*point)
    hset = h_enumerate(params)
    rng = random.Random(f"sources/{point}")
    keys = _witness_keys(params)
    if point == (6, 4, 3, 1):
        keys = rng.sample(keys, 3)
    states = _sweep_states(params, hset, rng)
    verdicts = []
    for failed, helpers in keys:
        # a defect in one target's selection must fail the reduced check too
        target = hset.maximal[rng.choice(witness_targets(hset, failed, helpers))]
        for state in states + [_break_selection(states[0], target, rng)]:
            full = all(witness_repair_check(state, failed, helpers, h, hset) for h in hset.members)
            assert witness_holds(state, failed, helpers, hset) == full, (
                state.field.q, failed, helpers)
            verdicts.append(full)
    assert any(verdicts) and not all(verdicts)


def test_witness_gather_on_defects_and_above_the_int64_limit():
    # witness_holds ranks every target's block out of one gathered
    # array, int32 at 7639 and Python ints above BATCH_Q_LIMIT; the
    # single-h check gathers each selection on its own
    rng = random.Random("gather")
    keys = rng.sample(_witness_keys(P321), 4)
    verdicts = []
    for q in (7639, next_prime(2**31)):
        state = construct(P321, field_new(q), H321, rng_seed=7, max_attempts=64)
        for failed, helpers in keys:
            target = H321.maximal[rng.choice(witness_targets(H321, failed, helpers))]
            for checked in (state, _plant_defect(state, H321, rng),
                            _break_selection(state, target, rng)):
                full = all(witness_repair_check(checked, failed, helpers, h, H321)
                           for h in H321.members)
                assert witness_holds(checked, failed, helpers, H321) == full, (q, failed, helpers)
                verdicts.append(full)
    assert any(verdicts) and not all(verdicts)


def _refuse(*args):
    raise AssertionError("a witness check ran connect_run or a membership test")


@pytest.mark.parametrize("point", ((6, 3, 2, 1), (6, 2, 1, 3)),
                         ids=lambda p: "-".join(map(str, p)))
def test_warm_witness_check_runs_no_connect_or_membership(point, monkeypatch):
    params = params_new(*point)
    hset = h_enumerate(params)
    rng = random.Random(f"warm/{point}")
    keys = _witness_keys(params)
    states = _sweep_states(params, hset, rng)
    states.append(_break_selection(states[0], hset.maximal[witness_targets(hset, *keys[0])[0]], rng))
    cold = [witness_holds(state, failed, helpers, hset)
            for failed, helpers in keys for state in states]
    assert any(cold) and not all(cold)
    monkeypatch.setattr(code_core, "connect_run", _refuse)
    monkeypatch.setattr(mfhs, "h_membership", _refuse)
    monkeypatch.setattr(connect, "h_membership", _refuse)
    # helpers in any order hit the same key once checked_helpers sorts them
    warm = [witness_holds(state, failed, helpers[::-1], hset)
            for failed, helpers in keys for state in states]
    assert warm == cold
    # bad helpers raise before the memo is consulted and never add a key
    failed, helpers = keys[0]
    entries = witness_targets.cache_info().currsize
    for bad in (helpers[:-1], helpers + helpers[:1], helpers[:-1] + (failed,),
                helpers[:-1] + (params.n + 1,)):
        with pytest.raises(InvalidHelpers):
            witness_holds(states[0], failed, bad, hset)
    assert witness_targets.cache_info().currsize == entries


def _runs(params, hset, failed, helpers):
    """connect_run on every member of hset for one key, by member."""
    return {h: connect_run(params, h, helpers, failed) for h in hset.members}


def _connect_run_targets(hset, failed, helpers):
    """The reference for witness_targets: connect_run on every maximal
    member, each distinct target once, in the order of its first source."""
    return tuple(dict.fromkeys(
        connect_run(hset.params, h, helpers, failed).h_prime for h in hset.maximal
    ))


@pytest.mark.parametrize("point", in_scope_points(6), ids=lambda p: "-".join(map(str, p)))
def test_closed_form_targets_match_connect_run(point):
    # every key where the maximal layer has at most 100 members, one
    # sampled key at the larger points (up to 1362 members at n = 6)
    params = params_new(*point)
    hset = h_enumerate(params)
    keys = _witness_keys(params)
    if len(hset.maximal) > 100:
        keys = random.Random(f"closed/{point}").sample(keys, 1)
    for failed, helpers in keys:
        rows = witness_targets(hset, failed, helpers)
        assert tuple(hset.maximal[row] for row in rows) == _connect_run_targets(
            hset, failed, helpers), (failed, helpers)


def test_cold_witness_key_runs_no_connect_or_membership(monkeypatch):
    rng = random.Random("cold")
    keys = rng.sample(_witness_keys(P641), 3)
    expected = {key: _connect_run_targets(H641, *key) for key in keys}
    state = construct(P641, field_new(142151), H641, rng_seed=1)
    states = (state, _break_selection(state, expected[keys[0]][0], rng))
    verdicts = [witness_holds(s, failed, helpers, H641) for failed, helpers in keys for s in states]
    assert verdicts[:2] == [True, False]
    monkeypatch.setattr(code_core, "connect_run", _refuse)
    monkeypatch.setattr(mfhs, "h_membership", _refuse)
    monkeypatch.setattr(connect, "h_membership", _refuse)
    cold = []
    for failed, helpers in keys:
        witness_targets.cache_clear()
        rows = witness_targets(H641, failed, helpers)
        assert tuple(H641.maximal[row] for row in rows) == expected[failed, helpers]
        for s in states:
            witness_targets.cache_clear()
            cold.append(witness_holds(s, failed, helpers, H641))
    assert cold == verdicts


def test_target_outside_the_maximal_layer_is_a_contradiction():
    # a hand-built HSet whose maximal layer lacks the target of one of
    # its members fails the key's certificate
    failed, helpers = 1, (4, 5)
    source = next(h for h in H321.maximal if h[failed - 1] > 0)
    target = connect_run(P321, source, helpers, failed).h_prime
    stripped = HSet(params=P321, size=H321.size, representatives=H321.representatives,
                    maximal=tuple(h for h in H321.maximal if h != target))
    with pytest.raises(InternalContradiction, match="not a maximal member"):
        witness_targets(stripped, failed, helpers)
    with pytest.raises(InternalContradiction, match="not a maximal member"):
        witness_holds(construct(P321, field_new(7639), H321, rng_seed=1), failed, helpers, stripped)


@pytest.mark.parametrize("point,maximal_targets,targets", [
    ((6, 3, 2, 1), 39, 90),
    ((6, 4, 3, 1), 119, 468),
    ((8, 4, 2, 2), 149, 262),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_witness_targets_are_first_sources_of_maximal_targets(point, maximal_targets, targets,
                                                              monkeypatch):
    params = params_new(*point)
    hset = h_enumerate(params)
    runs = []
    real_run = code_core.connect_run

    def recording_run(*args):
        runs.append(args[1])
        return real_run(*args)

    monkeypatch.setattr(code_core, "connect_run", recording_run)
    witness_targets.cache_clear()
    keys = _witness_keys(params)
    for failed, helpers in keys[:1] if point == (8, 4, 2, 2) else keys:
        # every target, each once, in the order of its first source in H
        first = list(dict.fromkeys(r.h_prime for r in _runs(params, hset, failed, helpers).values()))
        runs.clear()
        got = tuple(hset.maximal[row] for row in witness_targets(hset, failed, helpers))
        # a cold key computes its targets in closed form, with no connect_run
        assert runs == []
        assert got == tuple(maximal_by_down_closure(first))
        assert (len(got), len(first)) == (maximal_targets, targets)


@pytest.mark.parametrize("point", ((4, 2, 1, 1), (6, 3, 2, 1), (6, 2, 1, 3), (6, 4, 3, 1)),
                         ids=lambda p: "-".join(map(str, p)))
def test_targets_never_fall_along_unit_raises(point):
    # connect_run increments the h_failed helpers smallest by (h value,
    # node index), so h + e_x in H implies (h + e_x)' >= h'
    params = params_new(*point)
    hset = h_enumerate(params)
    keys = _witness_keys(params)
    if point == (6, 4, 3, 1):
        keys = random.Random(f"monotone/{point}").sample(keys, 3)
    raises = [
        (h, up) for h in hset.members for i, v in enumerate(h)
        if (up := h[:i] + (v + 1,) + h[i + 1:]) in hset
    ]
    assert raises
    for failed, helpers in keys:
        runs = _runs(params, hset, failed, helpers)
        for h, result in runs.items():
            smallest = sorted(helpers, key=lambda x: (h[x - 1], x))[:h[failed - 1]]
            assert sorted(result.incremented) == sorted(smallest), (failed, helpers, h)
        for h, up in raises:
            low, high = runs[h].h_prime, runs[up].h_prime
            assert all(a <= b for a, b in zip(low, high)), (failed, helpers, h, up)


class _RecordingRng:
    """Stands in for repair_random's Philox generator: hands out its
    draws, or all q - 1 when top, and keeps each one."""

    def __init__(self, rng, top):
        self.rng, self.top, self.draws = rng, top, []

    def integers(self, low, high, size, dtype):
        drawn = (np.full(size, high - 1, dtype=dtype) if self.top
                 else self.rng.integers(low, high, size=size, dtype=dtype))
        self.draws.append(drawn.tolist())
        return drawn


@pytest.mark.parametrize("q", [307, 32749, 142151, 2147483647, next_prime(2**31)])
def test_repair_random_matches_pure_products(q, monkeypatch):
    # 32749 and 2^31 - 1 are the largest int32 and int64 fields, where
    # products of residues come closest to 2^30 and 2^62;
    # next_prime(2^31) takes the object path.  The
    # all-(q - 1) state fails the invariant, so each call keeps its
    # first candidate unverified, and the first call draws all q - 1.
    rngs = []

    def first_sample(sample, hset, rng_seed, max_attempts, error):
        rngs.append(_RecordingRng(np.random.Generator(np.random.Philox(rng_seed)), not rngs))
        return sample(rngs[-1], 1)

    monkeypatch.setattr(code_core, "_sample_until_accepted", first_sample)
    rng = random.Random(q)
    f = field_new(q)
    d = P641.d
    top = FieldMatrix(P641.M, d, (q - 1,) * (P641.M * d), f)
    state = CodeState(params=P641, field=f, packet_width=1, Q=(top,) * P641.n)
    for trial in range(8):
        failed = rng.randrange(1, P641.n + 1)
        helpers = tuple(rng.sample(sorted(helper_universe(P641, failed)), d))
        seed = rng.randrange(2**32)
        repaired = repair_random(state, failed, helpers, rng_seed=seed)
        combine, mix = rngs[-1].draws
        if trial > 0:
            # B then Z, the call's first two draws from Philox(seed)
            philox = np.random.Generator(np.random.Philox(seed))
            assert [philox.integers(0, q, size=(d, d), dtype=np.int64).tolist()
                    for _ in range(2)] == [combine, mix]
        else:
            assert combine == mix == [[q - 1] * d] * d
        # helper x_j, in ascending order, sends Q_{x_j} b_j, b_j column j of B
        want = _mat_mul_repair(state, failed, sorted(helpers),
                               [FieldMatrix(d, 1, tuple(row[j] for row in combine), f)
                                for j in range(d)],
                               FieldMatrix.from_rows(mix, f))
        assert repaired.Q == want.Q
        # the array the candidate carries is the one its matrices give
        fresh = state_from_dict(state_to_dict(repaired))
        assert np.array_equal(code_core._coefficients(repaired), code_core._coefficients(fresh))
        # repair the repaired state next, from the array it carries
        state = repaired


def test_coefficient_array_is_cached_read_only(small_state):
    repaired = repair_random(small_state, 2, (4, 6), rng_seed=31)
    for state in (small_state, repaired):
        coef = code_core._coefficients(state)
        assert code_core._coefficients(state) is coef
        assert not coef.flags.writeable
        with pytest.raises(ValueError):
            coef[0, 0] = 1
        fresh = state_from_dict(state_to_dict(state))
        assert fresh._coef is None
        assert np.array_equal(coef, code_core._coefficients(fresh))
    # a replaced state may hold other matrices, so it builds its own
    assert replace(repaired, Q=small_state.Q)._coef is None
    assert "_coef" not in repr(repaired)


def _reference_columns(d, h):
    """The columns of [Q_1 | ... | Q_n] selected under h, in pure
    Python: the first h_j of node j's d columns (0-based j)."""
    return [j * d + c for j, v in enumerate(h) for c in range(v)]


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_sweep_plan_matches_the_pure_python_reference(params):
    hset = h_enumerate(params)
    plan = code_core._sweep_plan(hset)
    assert code_core._sweep_plan(hset) is plan
    columns, node_rows = plan
    # row i selects the first h_j columns of each node, h = maximal[i]
    assert columns.shape == (len(hset.maximal), params.M)
    assert columns.dtype == np.int32
    assert all(rows.dtype == np.int32 for rows in node_rows)
    assert columns.tolist() == [_reference_columns(params.d, h) for h in hset.maximal]
    # node x's rows are the maximal h that read its columns
    assert len(node_rows) == params.n
    for x in range(1, params.n + 1):
        assert node_rows[x - 1].tolist() == [
            i for i, h in enumerate(hset.maximal) if h[x - 1] > 0]
    # the helper takes any batch of equal-total vectors, the zero one too
    by_total = {}
    for h in hset.members:
        by_total.setdefault(sum(h), []).append(h)
    for total, hs in by_total.items():
        columns = code_core._selection_columns(params.d, np.array(hs))
        assert columns.shape == (len(hs), total)
        assert columns.tolist() == [_reference_columns(params.d, h) for h in hs]


def test_sweep_plan_pinned_row():
    columns, _ = code_core._sweep_plan(H641)
    row = columns[H641.maximal.index((3, 2, 2, 0, 0, 0))]
    assert row.tolist() == [0, 1, 2, 3, 4, 6, 7]


@pytest.mark.parametrize("q", [7639, next_prime(2**31)])
def test_subset_gather_matches_the_column_gather(q, monkeypatch):
    # reconstruct_verdicts gathers each k-node block by node; the
    # reference gathers it by the block's list of columns, in the
    # residue dtype of its field (int32, int64 or Python ints)
    stacks = []

    def recording(stack, q):
        stacks.append(stack)
        return galois.full_column_rank(stack, q)

    monkeypatch.setattr(code_core, "full_column_rank", recording)
    rng = random.Random(f"subsets/{q}")
    n, k, d = P321.n, P321.k, P321.d
    columns = [_reference_columns(d, [d * (j in subset) for j in range(n)])
               for subset in itertools.combinations(range(n), k)]
    state = _random_state(P321, q, rng)
    # with nodes 1..3 zeroed, the subset (1, 2, 3) spans nothing
    zero = FieldMatrix(P321.M, d, (0,) * (P321.M * d), state.field)
    broken = replace(state, Q=(zero,) * 3 + state.Q[3:])
    verdicts = []
    for state in (state, broken, _random_state(P321, 3, rng)):
        got = code_core.reconstruct_verdicts(state)
        coef = code_core._coefficients(state)
        want = coef[:, columns].transpose(1, 2, 0)
        assert stacks[-1].dtype == want.dtype == galois._residue_dtype(state.field.q)
        assert stacks[-1].tolist() == want.tolist()
        assert got.tolist() == galois.full_column_rank(want, state.field.q).tolist()
        verdicts += got.tolist()
    assert any(verdicts) and not all(verdicts)


def test_sweep_ranks_chunks_up_to_the_first_failure(monkeypatch):
    """At (10,6,3,2) the 25,050 maximal 9 x 9 selections make sixteen
    chunks, fifteen of RANK_CHUNK // 81 = 1618 and one of 780.
    A passing state ranks all of them; a state whose first failing h
    lies in chunk c ranks chunks 0..c only and names that h."""
    params = params_new(10, 6, 3, 2)
    hset = h_enumerate(params)
    assert len(hset.maximal) == 25050
    state = _recommended_state(params, hset, seed=1)
    eliminate = galois._eliminate
    chunks = []

    def recording(a, q):
        chunks.append(a.shape[-1])
        return eliminate(a, q)

    monkeypatch.setattr(galois, "_eliminate", recording)
    assert invariant_failure(state, hset) is None
    chunk = RANK_CHUNK // 81
    assert chunks == [chunk] * 15 + [25050 - 15 * chunk] == [1618] * 15 + [780]
    zero = FieldMatrix(params.M, params.d, (0,) * (params.M * params.d), state.field)
    # a zero Q_x fails exactly the maximal h with h_x > 0; node 10 is
    # selected by the first of them, node 1 first in chunk 6
    for x, first in ((10, 0), (1, 10781)):
        chunks.clear()
        broken = replace(state, Q=tuple(zero if i == x else qm for i, qm in enumerate(state.Q, 1)))
        assert invariant_failure(broken, hset) == hset.maximal[first]
        assert [h[x - 1] > 0 for h in hset.maximal[:first + 1]] == [False] * first + [True]
        assert chunks == [chunk] * (first // chunk + 1)


def test_serialization_round_trip(small_state):
    doc = state_to_dict(small_state)
    assert doc["q"] == 7639
    assert doc["params"]["n"] == 6
    back = state_from_dict(doc)
    assert state_to_dict(back) == doc
    assert invariant_check(back, H321)


def test_serialization_rejects_bad_field(small_state):
    from lrrc.galois import NotPrime

    doc = state_to_dict(small_state)
    doc["q"] = 7640
    with pytest.raises(NotPrime):
        state_from_dict(doc)


def test_construct_larger_point_at_recommended_field():
    state = construct(P641, field_new(142151), H641, rng_seed=1)
    assert state.attempts == 1
    assert reconstruct_check(state)


def test_stored_view_matches_generator_math():
    # node i keeps the file projected through its storage assignment
    f = field_new(7639)
    state = construct(P321, f, H321, rng_seed=9, packet_width=3)
    file = FieldMatrix.from_rows(
        [[(i * 5 + j) % f.q for j in range(3)] for i in range(P321.M)], f
    )
    stored = encode(state, file)
    for i in range(6):
        expect = mat_mul(mat_transpose(file), state.Q[i])
        assert stored[i] == expect


def _rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _selection_rows(state, h):
    """The M x sum(h) selection under h, read row by row off the Q
    matrices' entries: the reference for the kernels' gathers."""
    d = state.params.d
    rows = []
    for r in range(state.params.M):
        row = []
        for qm, take in zip(state.Q, h):
            row.extend(qm.entries[r * d:r * d + take])
        rows.append(row)
    return rows


def _short_rank(state, h) -> bool:
    return rank_of_rows(_selection_rows(state, h), state.field.q) < sum(h)


def pure_sweep(state, hset) -> bool:
    """The reference verdict: one pure-Python rank per member of H."""
    return not any(_short_rank(state, h) for h in hset.members)


def _random_state(params, q, rng):
    f = field_new(q)
    size = params.M * params.d
    return CodeState(
        params=params, field=f, packet_width=1,
        Q=tuple(
            FieldMatrix(params.M, params.d, tuple(rng.randrange(q) for _ in range(size)), f)
            for _ in range(params.n)
        ),
    )


def _plant_defect(state, hset, rng):
    """Overwrite one column of one maximal selection with a random
    combination of that selection's other columns."""
    return _break_selection(state, rng.choice([m for m in hset.maximal if sum(m) > 1]), rng)


def _break_selection(state, h, rng):
    """Overwrite one column of the selection under h with a random
    combination of that selection's other columns (zero if it has none)."""
    params, q = state.params, state.field.q
    cols = [(i, c) for i, v in enumerate(h) for c in range(v)]
    node, col = rng.choice(cols)
    weights = {ic: rng.randrange(1, q) for ic in cols if ic != (node, col)}
    rows = [_rows(qm) for qm in state.Q]
    for r in range(params.M):
        rows[node][r][col] = sum(w * rows[i][r][c] for (i, c), w in weights.items()) % q
    return CodeState(
        params=params, field=state.field, packet_width=1,
        Q=tuple(FieldMatrix.from_rows(m, state.field) for m in rows),
    )


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_invariant_check_agrees_with_pure_sweep_on_random_states(params):
    hset = h_enumerate(params)
    rng = random.Random(f"random-states/{params}")
    verdicts = []
    for q in (7, 11, 13, 31, 307, 7639):
        for _ in range(4):
            state = _random_state(params, q, rng)
            verdict = invariant_check(state, hset)
            assert verdict == pure_sweep(state, hset), (q, state_to_dict(state))
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_invariant_catches_planted_defects(params):
    hset = h_enumerate(params)
    rng = random.Random(f"planted/{params}")
    for q in (307, 7639):
        state = construct(params, field_new(q), hset, rng_seed=q, max_attempts=64)
        assert invariant_check(state, hset) and pure_sweep(state, hset)
        assert invariant_failure(state, hset) is None
        for _ in range(4):
            broken = _plant_defect(state, hset, rng)
            assert not pure_sweep(broken, hset)
            assert not invariant_check(broken, hset)


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_invariant_failure_names_a_rank_deficient_h(params):
    hset = h_enumerate(params)
    rng = random.Random(f"failure/{params}")
    state = construct(params, field_new(7639), hset, rng_seed=3)
    for _ in range(6):
        broken = _plant_defect(state, hset, rng)
        h = invariant_failure(broken, hset)
        assert h in hset.maximal
        assert _short_rank(broken, h)
        # no maximal member earlier in the sweep order fails
        earlier = hset.maximal[:hset.maximal.index(h)]
        assert not any(_short_rank(broken, m) for m in earlier)


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_invariant_implies_reconstruction(params):
    # Lemma C of lrrc.code_core.  Uniform states at these q fail the
    # invariant (and mostly reconstruction too), so the constructed
    # state supplies the passing verdict.
    hset = h_enumerate(params)
    rng = random.Random(f"lemma-c/{params}")
    states = [construct(params, field_new(7639), hset, rng_seed=5, max_attempts=64)]
    states += [_random_state(params, q, rng) for q in (2, 3, 5, 7) for _ in range(8)]
    verdicts = [(invariant_check(state, hset), reconstruct_check(state)) for state in states]
    assert all(recon for inv, recon in verdicts if inv)
    assert {inv for inv, _ in verdicts} == {True, False}
    assert not all(recon for _, recon in verdicts)


def test_construction_failure_names_rejecting_h():
    with pytest.raises(ConstructionFailed) as err:
        construct(P321, field_new(2), H321, rng_seed=0, max_attempts=3)
    assert str(err.value) == "construction rejected 3 times"
    assert len(err.value.rejected_by) == 3
    assert all(h in H321.maximal for h in err.value.rejected_by)


def test_repair_failure_names_rejecting_h(small_state):
    # nodes 4 and 5 share one matrix, so no repair of node 1 can pass
    twins = small_state.Q[:4] + (small_state.Q[3],) + small_state.Q[5:]
    broken = CodeState(params=P321, field=small_state.field, packet_width=1, Q=twins)
    with pytest.raises(RepairFailed) as err:
        repair_random(broken, 1, (4, 5), rng_seed=0, max_attempts=2)
    assert str(err.value) == "repair rejected 2 times"
    assert len(err.value.rejected_by) == 2
    for h in err.value.rejected_by:
        assert h in H321.maximal
        # a rejected candidate differs from broken only in node 1, so an
        # h that skips node 1 must fail on broken itself
        assert _short_rank(broken, h) or h[0] > 0


def test_budget_errors_share_one_base(small_state):
    with pytest.raises(AttemptsExhausted) as built:
        construct(P321, field_new(2), H321, rng_seed=0, max_attempts=3)
    twins = small_state.Q[:4] + (small_state.Q[3],) + small_state.Q[5:]
    broken = CodeState(params=P321, field=small_state.field, packet_width=1, Q=twins)
    with pytest.raises(AttemptsExhausted) as repaired:
        repair_random(broken, 1, (4, 5), rng_seed=0, max_attempts=2)
    assert type(built.value) is ConstructionFailed
    assert type(repaired.value) is RepairFailed
    assert isinstance(built.value, CodeError)
    assert (str(built.value), built.value.attempts) == ("construction rejected 3 times", 3)
    assert (str(repaired.value), repaired.value.attempts) == ("repair rejected 2 times", 2)
    assert built.value.rejected_by == ((0, 0, 0, 0, 2, 2), (0, 0, 0, 1, 1, 2), (0, 0, 0, 0, 2, 2))
    assert repaired.value.rejected_by == ((0, 0, 0, 1, 1, 2),) * 2


def test_fields_too_large_to_draw_are_refused():
    # coefficients are drawn as int64, so a field at 2^63 or above is
    # refused before any draw, by construct and by repair_random alike;
    # the largest prime below 2^63 still constructs
    q = next_prime(2**63)
    big = _random_state(P321, q, random.Random(0))
    for call in (lambda: construct(P321, big.field, H321, rng_seed=0),
                 lambda: repair_random(big, 1, (4, 5), rng_seed=0)):
        with pytest.raises(CodeError) as refused:
            call()
        assert type(refused.value) is CodeError
        assert str(refused.value) == (f"cannot sample coefficients in GF({q}): draws are int64, "
                                      f"so q must be below 2^63")
    assert invariant_check(construct(P321, field_new(2**63 - 25), H321, rng_seed=0), H321)


def test_attempts_are_provenance_not_content():
    # seed 1 at GF(307) is rejected twice before a sample passes
    state = construct(P641, field_new(307), H641, rng_seed=1, max_attempts=64)
    assert state.attempts == 3
    loaded = state_from_dict(state_to_dict(state))
    assert loaded.attempts == 1
    assert loaded == state
    assert replace(state, attempts=7) == state


def _recommended_state(params, hset, seed):
    q = next_prime(required_field_size(params, hset))
    return construct(params, field_new(q), hset, rng_seed=seed)


def _low_entropy_plan(state, rng, q_plan):
    """The failed node and the state after a repair of a random node
    whose coefficients lie in 0..q_plan-1, so that at q_plan = 2, 3, 5
    many of them lose rank."""
    params, f = state.params, state.field
    failed = rng.randrange(1, params.n + 1)
    helpers = tuple(sorted(rng.sample(sorted(helper_universe(params, failed)), params.d)))

    def draw(rows, cols):
        return FieldMatrix(rows, cols, tuple(rng.randrange(q_plan) for _ in range(rows * cols)), f)

    combine = [draw(params.d, 1) for _ in helpers]
    return failed, _mat_mul_repair(state, failed, helpers, combine, draw(params.d, params.d))


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_marked_candidate_reports_what_a_full_sweep_reports(params):
    # A candidate that differs from a passing state only at the failed
    # node is ranked on that node's rows alone; the first failing h must
    # be the one the full sweep of an unmarked copy names.
    hset = h_enumerate(params)
    base = _recommended_state(params, hset, seed=21)
    assert invariant_failure(base, hset) is None
    rng = random.Random(f"marked/{params}")
    verdicts = set()
    for q_plan in (2, 3, 5):
        for _ in range(10):
            failed, candidate = _low_entropy_plan(base, rng, q_plan)
            object.__setattr__(candidate, "_checked", (hset, failed))
            unmarked = state_from_dict(state_to_dict(candidate))
            h = invariant_failure(candidate, hset)
            assert h == invariant_failure(unmarked, hset), (q_plan, failed, candidate.Q)
            verdicts.add(h is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("params", CROSS_CHECK_POINTS, ids=_point_id)
def test_repair_ranks_only_the_failed_nodes_rows(params, monkeypatch):
    hset = h_enumerate(params)
    _, node_rows = code_core._sweep_plan(hset)
    stacks = []

    def recording(coef, columns, q):
        stacks.append(coef[:, columns].transpose(1, 0, 2))
        return first_rank_deficient(coef, columns, q)

    def batches():
        sizes = [len(stack) for stack in stacks]
        stacks.clear()
        return sizes

    monkeypatch.setattr(code_core, "first_rank_deficient", recording)
    state = _recommended_state(params, hset, seed=4)
    assert batches() == [len(hset.maximal)] * state.attempts
    for failed in (1, params.n):
        helpers = sorted(helper_universe(params, failed))[-params.d:]
        state = repair_random(state, failed, helpers, rng_seed=failed)
        rows = node_rows[failed - 1]
        # the accepted attempt ranked the selections of exactly those rows
        assert stacks[-1].tolist() == [_selection_rows(state, hset.maximal[i]) for i in rows]
        assert batches() == [len(rows)] * state.attempts
        assert len(rows) < len(hset.maximal)
    # the memo is neither content nor part of the JSON form
    assert state_from_dict(state_to_dict(state)) == state
    assert "_checked" not in repr(state)
    assert set(state_to_dict(state)) == {"params", "q", "W", "Q"}
    helpers = sorted(helper_universe(params, 2))[:params.d]
    for fresh in (lambda: state_from_dict(state_to_dict(state)),
                  lambda: replace(state, attempts=1)):
        repaired = repair_random(fresh(), 2, helpers, rng_seed=9)
        assert batches() == [len(hset.maximal)] * repaired.attempts
        checked = fresh()
        assert invariant_check(checked, hset)
        assert batches() == [len(hset.maximal)]
        # once it passed in full, a repair of it ranks node 2's rows only
        repaired = repair_random(checked, 2, helpers, rng_seed=9)
        assert batches() == [len(node_rows[1])] * repaired.attempts


def test_repair_of_unmarked_corrupt_state_keeps_its_rejections():
    # node 3 is corrupted so that a selection without node 1 loses rank;
    # the state carries no memo, so every attempt is swept in full and
    # names that selection, as the full sweep did before the memo existed
    state = _recommended_state(P641, H641, seed=2)
    q = state.field.q
    h = next(m for m in H641.maximal if m[0] == 0 and m[2] > 0)
    rows = [_rows(qm) for qm in state.Q]
    others = [(i, c) for i, v in enumerate(h) for c in range(v) if (i, c) != (2, 0)]
    for r in range(P641.M):
        rows[2][r][0] = sum((i + c + 1) * rows[i][r][c] for i, c in others) % q
    corrupt = CodeState(params=P641, field=state.field, packet_width=1,
                        Q=tuple(FieldMatrix.from_rows(m, state.field) for m in rows))
    assert _short_rank(corrupt, h)
    loaded = state_from_dict(state_to_dict(corrupt))
    with pytest.raises(RepairFailed) as err:
        repair_random(loaded, 1, (3, 4, 5), rng_seed=6, max_attempts=3)
    assert err.value.rejected_by == ((0, 0, 1, 0, 3, 3),) * 3


def test_large_field_falls_back_to_pure_kernel():
    q = next_prime(2**31)
    assert q >= BATCH_Q_LIMIT
    state = construct(P321, field_new(q), H321, rng_seed=11)
    assert pure_sweep(state, H321)
    assert reconstruct_check(state)
    repaired = repair_random(state, 2, (4, 6), rng_seed=12)
    assert invariant_check(repaired, H321) and pure_sweep(repaired, H321)
    assert reconstruct_check(repaired)
    broken = _plant_defect(repaired, H321, random.Random(13))
    assert not invariant_check(broken, H321)
    assert _short_rank(broken, invariant_failure(broken, H321))


# every in-scope point with n <= 8 whose (d+1)^n candidates fit 100,000
SCOPE_POINTS = [p for p in in_scope_points(8) if (p[2] + 1) ** p[0] <= 100_000]


def test_scope_sweep_covers_98_points():
    assert len(SCOPE_POINTS) == 98


@pytest.mark.parametrize("nkdr", SCOPE_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_orbit_hset_matches_filtering_reference(nkdr):
    # h_enumerate tests one canonical candidate per orbit; the reference
    # tests all (d+1)^n of them
    params = params_new(*nkdr)
    hset = h_enumerate(params)
    members, witnesses = filtered_h(params)
    assert len(hset) == len(members)
    assert hset.members == members
    assert hset.witnesses == witnesses
    assert hset.maximal == tuple(h for h in members if sum(h) == params.M)
    admitted = set(members)
    for h in itertools.product(range(params.d + 1), repeat=params.n):
        assert (h in hset) == (h in admitted), h
    zeros = (0,) * params.n
    assert zeros in hset
    assert zeros[1:] not in hset and zeros + (0,) not in hset
    for i in range(params.n):
        for bad in (-1, params.d + 1):
            assert zeros[:i] + (bad,) + zeros[i + 1:] not in hset


@pytest.mark.parametrize("nkdr", SCOPE_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_scope_sweep_constructs_and_repairs_every_node(nkdr):
    params = params_new(*nkdr)
    hset = h_enumerate(params)
    assert hset.maximal == maximal_by_domination(hset)
    q = next_prime(required_field_size(params, hset))
    state = construct(params, field_new(q), hset, rng_seed=0)
    for node in range(1, params.n + 1):
        helpers = sorted(helper_universe(params, node))[: params.d]
        state = repair_random(state, node, helpers, rng_seed=node)
    assert invariant_check(state, hset)
    assert reconstruct_check(state)


@pytest.mark.parametrize("nkdr", SCOPE_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_every_k_subset_holds_a_maximal_support(nkdr):
    # Lemma C of lrrc.code_core.  Families are runs of consecutive nodes,
    # so listing a subset in ascending order lists it family by family.
    params = params_new(*nkdr)
    maximal = set(h_enumerate(params).maximal)
    nodes = range(1, params.n + 1)
    for subset in itertools.combinations(nodes, params.k):
        order = subset + tuple(node for node in nodes if node not in subset)
        c = score_vectors(params, Perm(order)).c
        h = tuple(c[order.index(node)] for node in nodes)
        assert h in maximal, (subset, h)
        assert all(h[node - 1] == 0 for node in nodes if node not in subset), (subset, h)


# the first pair HSet.unrepairable finds at (8,7,4,0) and (8,8,4,0)
UNREPAIRABLE = ((4, 4, 4, 2, 2, 0, 0, 0), 5, 1)


def unrepairable_message(k: int) -> str:
    return (f"(8,{k},4,0) is out of scope: some helper set leaves every repair of node 5 "
            f"below full rank under h = (4, 4, 4, 2, 2, 0, 0, 0), since its packets add at "
            f"most 1 to the rank and h_5 = 2 > 1")


def _draws(*args):
    raise AssertionError("a refused point drew coefficients")


@pytest.mark.parametrize("k", (7, 8))
def test_unrepairable_point_is_refused_before_drawing(k, monkeypatch):
    params = params_new(8, k, 4, 0)
    hset = h_enumerate(params)
    assert hset.unrepairable == UNREPAIRABLE
    state = _random_state(params, 142151, random.Random(k))
    q = next_prime(required_field_size(params, hset))
    monkeypatch.setattr(code_core, "_sample_until_accepted", _draws)
    with pytest.raises(mfhs.OutOfScope) as refused:
        construct(params, field_new(q), hset, rng_seed=0)
    assert str(refused.value) == unrepairable_message(k)
    with pytest.raises(mfhs.OutOfScope) as refused:
        repair_random(state, 1, (5, 6, 7, 8), rng_seed=0)
    assert str(refused.value) == unrepairable_message(k)


@pytest.mark.parametrize("k", (7, 8))
def test_witness_checks_refuse_an_unrepairable_point(k):
    # without the refusal, witness_targets meets a target outside H's
    # maximal layer and raises InternalContradiction, a procedure fault
    params = params_new(8, k, 4, 0)
    hset = h_enumerate(params)
    state = _random_state(params, 82918931, random.Random(k))
    with pytest.raises(mfhs.OutOfScope) as refused:
        witness_holds(state, 5, (1, 2, 3, 4), hset)
    assert str(refused.value) == unrepairable_message(k)
    with pytest.raises(mfhs.OutOfScope) as refused:
        witness_repair_check(state, 5, (1, 2, 3, 4), (0, 0, 0, 2, 2, 4, 4, 4), hset)
    assert str(refused.value) == unrepairable_message(k)


def test_only_two_points_up_to_n8_are_unrepairable(monkeypatch):
    # unrepairable reads only the representatives, so each H is built
    # uncached and with its orbits left unlisted: listing the maximal
    # layers, up to 290,160 members at n = 8, would take seconds
    monkeypatch.setattr(mfhs, "_orbit", lambda rep, f: ())
    refused = [point for point in in_scope_points(8)
               if h_enumerate.__wrapped__(params_new(*point)).unrepairable is not None]
    assert refused == [(8, 7, 4, 0), (8, 8, 4, 0)]


def test_unrepairable_selection_loses_rank_whatever_the_coefficients():
    # at (8,7,4,0) node 5's only helpers are nodes 1-4, and h takes all
    # four columns of nodes 1-3: their packets add nothing to h's
    # selection, so node 5's two selected columns add at most one rank
    params = params_new(8, 7, 4, 0)
    h, failed, bound = UNREPAIRABLE
    q, rng = 142151, random.Random(8740)
    for _ in range(3):
        state = _random_state(params, q, rng)
        assert rank_of_rows(_selection_rows(state, h), q) == params.M == 16

        def draw(rows, cols):
            return FieldMatrix(rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)),
                               state.field)

        repaired = _mat_mul_repair(state, failed, (1, 2, 3, 4),
                                   [draw(params.d, 1) for _ in range(params.d)],
                                   draw(params.d, params.d))
        assert rank_of_rows(_selection_rows(repaired, h), q) <= params.M - h[failed - 1] + bound


def test_invariant_check_refuses_an_hset_of_other_parameters():
    state = construct(P641, field_new(142151), H641, rng_seed=1)
    message = r"H was enumerated for \(6,3,2,1\), the code is \(6,4,3,1\)"
    with pytest.raises(CodeError, match=message):
        invariant_failure(state, H321)
    with pytest.raises(CodeError, match=message):
        invariant_check(state, H321)


def test_witness_holds_refuses_an_hset_of_other_parameters():
    state = construct(P641, field_new(142151), H641, rng_seed=1)
    with pytest.raises(CodeError, match=r"enumerated for \(6,3,2,1\), the code is \(6,4,3,1\)"):
        witness_holds(state, 1, (3, 4, 5), H321)


def test_witness_repair_check_refuses_an_hset_of_other_parameters(small_state):
    with pytest.raises(CodeError, match=r"enumerated for \(6,4,3,1\), the code is \(6,3,2,1\)"):
        witness_repair_check(small_state, 1, (4, 5), (2, 2, 0, 0, 0, 0), H641)


def test_construct_refuses_an_hset_of_other_parameters(monkeypatch):
    monkeypatch.setattr(code_core, "_sample_until_accepted", _draws)
    with pytest.raises(CodeError, match=r"enumerated for \(6,4,3,1\), the code is \(6,3,2,1\)"):
        construct(P321, field_new(7), H641, rng_seed=0)


def test_encode_and_decode_refuse_arguments_that_do_not_fit(small_state):
    field = small_state.field
    file = FieldMatrix.from_rows([[v] for v in range(P321.M)], field)
    with pytest.raises(CodeError, match=r"file lives in GF\(7\), code in GF\(7639\)"):
        encode(small_state, FieldMatrix.from_rows(_rows(file), field_new(7)))
    with pytest.raises(CodeError, match=r"file is 4x2, code expects 4x1"):
        encode(small_state, FieldMatrix.from_rows([[v, v] for v in range(P321.M)], field))
    stored = encode(small_state, file)
    with pytest.raises(CodeError, match=r"3 nodes but 2 packet blocks"):
        decode(small_state, (1, 2, 3), stored[:2])
    with pytest.raises(CodeError, match=r"duplicate nodes in \(1, 2, 1\)"):
        decode(small_state, (1, 2, 1), [stored[0], stored[1], stored[0]])
