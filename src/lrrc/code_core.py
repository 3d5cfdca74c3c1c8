"""Code state, randomized construction and repair, rank verification.

A code is n coding matrices Q_1..Q_n, each M x d over a prime field.
Node i stores the d packets X^T Q_i of a file X (M x W).  The central
check, invariant_check, demands that for every admissible selection
vector h the stacked selection [Q_1 E_{h_1} | ... | Q_n E_{h_n}] keeps
full column rank, where E_x takes the first x columns.  Reconstruction
from any k nodes follows from that check, and repairs are accepted only
when the repaired state passes it again, so the property survives any
failure sequence and any helper choices.

The check visits only H's maximal members (HSet.maximal, the members of
total M).  Every member of H lies below a maximal one, and lowering h_i
drops trailing columns of node i from the selection; a subset of
independent columns stays independent, so the maximal members decide
the whole of H.  Their selections are gathered from one M x (n*d) array
of the Q matrices and decided by one galois.full_column_rank call:
batched int64 numpy elimination for q < 2^31, rank_of_rows on each
selection above that.  reconstruct_check batches its C(n, k) subsets
the same way.

Construction and repair draw coefficients uniformly at random (Philox
counter-based generator, fully seeded) and retry on rejection.  At the
mandated field size a single attempt fails only with polynomially small
probability, so retries are rare and bounded.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .galois import (
    BATCH_Q_LIMIT,
    FieldConfig,
    FieldMatrix,
    field_new,
    full_column_rank,
    mat_hstack,
    mat_mul,
    mat_solve,
    mat_transpose,
    matrix_from_dict,
    matrix_to_dict,
    rank_of_rows,
)
from .mfhs import (
    HNotMember,
    HSet,
    InvalidHelpers,
    Params,
    checked_helpers,
    h_enumerate,
    params_from_dict,
    params_to_dict,
)
from .connect import connect_run

logger = logging.getLogger(__name__)

DEFAULT_MAX_ATTEMPTS = 16


class CodeError(Exception):
    pass


class ConstructionFailed(CodeError):
    """No sampled code passed verification within the attempt budget.

    rejected_by holds, per attempt, the selection vector h that
    invariant_failure reported.
    """

    def __init__(self, attempts: int, rejected_by: tuple[tuple[int, ...], ...] = ()) -> None:
        super().__init__(f"construction rejected {attempts} times")
        self.attempts = attempts
        self.rejected_by = rejected_by


class RepairFailed(CodeError):
    """No sampled repair passed verification within the attempt budget.

    rejected_by holds, per attempt, the selection vector h that
    invariant_failure reported.
    """

    def __init__(self, attempts: int, rejected_by: tuple[tuple[int, ...], ...] = ()) -> None:
        super().__init__(f"repair rejected {attempts} times")
        self.attempts = attempts
        self.rejected_by = rejected_by


class RankDeficient(CodeError):
    """Decoding had no unique exact solution."""


@dataclass(frozen=True)
class CodeState:
    """One code: parameters, field, packet width W, and the Q matrices.

    attempts records how many samples the producing call consumed;
    field_below_bound flags a field smaller than the sufficient bound.
    Both are provenance, not code content, and stay out of the JSON
    form.
    """

    params: Params
    field: FieldConfig
    packet_width: int
    Q: tuple[FieldMatrix, ...]
    attempts: int = 1
    field_below_bound: bool = dc_field(default=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.Q) != self.params.n:
            raise CodeError(f"expected {self.params.n} coding matrices, got {len(self.Q)}")
        for i, qm in enumerate(self.Q, start=1):
            if (qm.rows, qm.cols) != (self.params.M, self.params.d):
                raise CodeError(
                    f"Q_{i} is {qm.rows}x{qm.cols}, expected {self.params.M}x{self.params.d}"
                )
            if qm.field != self.field:
                raise CodeError(f"Q_{i} lives in GF({qm.field.q}), state says GF({self.field.q})")
        if self.packet_width < 1:
            raise CodeError("packet width must be positive")


@dataclass(frozen=True)
class RepairPlan:
    """How a newcomer rebuilds a failed node.

    combine[j] is the d x 1 coefficient vector applied to helper
    helpers[j]'s matrix; mix is the d x d matrix applied on the right.
    The replacement is [Q_{x_1} b_1 | ... | Q_{x_d} b_d] @ mix.
    """

    failed: int
    helpers: tuple[int, ...]
    combine: tuple[FieldMatrix, ...]
    mix: FieldMatrix


def required_field_size(params: Params, hset: HSet) -> int:
    """Sufficient field size: n * d * M * |H| + 1.

    Any prime at or above this makes random construction succeed with
    positive probability margin.  Smaller primes are accepted with a
    recorded warning; the bound is sufficient, never necessary.
    """
    return params.n * params.d * params.M * len(hset) + 1


def _selection_rows(state: CodeState, h: Sequence[int]) -> list[list[int]]:
    m = state.params.M
    d = state.params.d
    rows: list[list[int]] = [[] for _ in range(m)]
    for node_index, take in enumerate(h):
        if take:
            entries = state.Q[node_index].entries
            for r in range(m):
                base = r * d
                rows[r].extend(entries[base:base + take])
    return rows


def _coefficients(state: CodeState) -> np.ndarray:
    """[Q_1 | ... | Q_n] as one M x (n*d) array.

    int64 where galois.full_column_rank eliminates in numpy; Python ints
    (dtype=object) above that, so any residue fits.
    """
    params = state.params
    dtype = np.int64 if state.field.q < BATCH_Q_LIMIT else object
    flat = np.array([qm.entries for qm in state.Q], dtype=dtype)
    return flat.reshape(params.n, params.M, params.d).transpose(1, 0, 2).reshape(params.M, -1)


def invariant_failure(state: CodeState, hset: HSet) -> tuple[int, ...] | None:
    """First maximal h, in member order, whose selection loses full
    column rank; None when every admissible selection keeps it.

    Checking the maximal members suffices: see the module docstring.
    They all total M, so one batch of M x M selections decides them.
    """
    selections = _coefficients(state)[:, hset.maximal_columns].transpose(1, 0, 2)
    ok = full_column_rank(selections, state.field.q)
    return None if ok.all() else hset.maximal[int(np.argmin(ok))]


def invariant_check(state: CodeState, hset: HSet) -> bool:
    """True iff every admissible selection keeps full column rank.

    Decided on H's maximal members only, which imply every other rank
    condition; invariant_failure names the failing h.
    """
    return invariant_failure(state, hset) is None


@lru_cache(maxsize=None)
def _subset_columns(n: int, k: int, d: int) -> np.ndarray:
    """(C(n, k), k*d) column indices of every k-node block of [Q_1 | ... | Q_n]."""
    return np.array(
        [
            [j * d + c for j in subset for c in range(d)]
            for subset in itertools.combinations(range(n), k)
        ],
        dtype=np.intp,
    )


def reconstruct_check(state: CodeState) -> bool:
    """True iff every k-subset of nodes spans the whole file.

    Each subset's M x k*d block has rank M exactly when its transpose
    has full column rank, which one batched kernel call decides.
    """
    params = state.params
    columns = _subset_columns(params.n, params.k, params.d)
    blocks = _coefficients(state)[:, columns].transpose(1, 2, 0)
    return bool(full_column_rank(blocks, state.field.q).all())


def _rejections(states: Sequence[CodeState], hset: HSet) -> tuple[tuple[int, ...], ...]:
    """The h that rejected each state.

    Recomputed only once an attempt budget is spent, so accepted calls
    run exactly one invariant_check per attempt.
    """
    return tuple(invariant_failure(state, hset) for state in states)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _check_attempts(max_attempts: int) -> None:
    if max_attempts < 1:
        raise CodeError(f"max_attempts must be at least 1, got {max_attempts}")


def construct(
    params: Params,
    field: FieldConfig,
    hset: HSet,
    rng_seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    packet_width: int = 1,
) -> CodeState:
    """Sample uniform coding matrices until verification accepts.

    The sampling order is fixed (node 1 first, each matrix row-major),
    so one seed always yields one code.  Raises ConstructionFailed when
    max_attempts samples were all rejected, and CodeError when
    max_attempts is below 1.
    """
    _check_attempts(max_attempts)
    bound = required_field_size(params, hset)
    below = field.q < bound
    if below:
        logger.warning(
            "field size %d is below the sufficient bound %d; construction may retry more",
            field.q,
            bound,
        )
    rng = _generator(rng_seed)
    q = field.q
    rejected = []
    for attempt in range(1, max_attempts + 1):
        draws = rng.integers(0, q, size=(params.n, params.M, params.d), dtype=np.int64)
        matrices = tuple(
            FieldMatrix(
                params.M,
                params.d,
                tuple(int(v) for v in node_draw.reshape(-1)),
                field,
            )
            for node_draw in draws
        )
        state = CodeState(
            params=params,
            field=field,
            packet_width=packet_width,
            Q=matrices,
            attempts=attempt,
            field_below_bound=below,
        )
        if invariant_check(state, hset):
            return state
        rejected.append(state)
    raise ConstructionFailed(max_attempts, _rejections(rejected, hset))


def apply_repair_plan(state: CodeState, plan: RepairPlan) -> CodeState:
    """Replace the failed node's matrix as the plan dictates.

    Performs no verification; callers decide whether to keep the
    result.
    """
    columns = [
        mat_mul(state.Q[x - 1], b) for x, b in zip(plan.helpers, plan.combine)
    ]
    replacement = mat_mul(mat_hstack(columns), plan.mix)
    new_q = list(state.Q)
    new_q[plan.failed - 1] = replacement
    return replace(state, Q=tuple(new_q))


def repair_random(
    state: CodeState,
    failed: int,
    helpers: Sequence[int],
    rng_seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> CodeState:
    """Regenerate one node from d helpers, one packet each.

    Coefficients are sampled uniformly; a candidate replacement is kept
    only if the whole state passes invariant_check again.  The returned
    state's attempts field counts the samples used.  States whose
    candidate was rejected are never returned or mutated.  Raises
    InvalidHelpers when helpers fail mfhs.checked_helpers, and
    CodeError when max_attempts is below 1.
    """
    _check_attempts(max_attempts)
    params = state.params
    ordered = checked_helpers(params, failed, helpers)
    hset = h_enumerate(params)
    rng = _generator(rng_seed)
    q = state.field.q
    d = params.d
    rejected = []
    for attempt in range(1, max_attempts + 1):
        bs = rng.integers(0, q, size=(d, d), dtype=np.int64)
        zs = rng.integers(0, q, size=(d, d), dtype=np.int64)
        plan = RepairPlan(
            failed=failed,
            helpers=ordered,
            combine=tuple(
                FieldMatrix(d, 1, tuple(int(v) for v in bs[:, j]), state.field)
                for j in range(d)
            ),
            mix=FieldMatrix(d, d, tuple(int(v) for v in zs.reshape(-1)), state.field),
        )
        candidate = replace(apply_repair_plan(state, plan), attempts=attempt)
        if invariant_check(candidate, hset):
            return candidate
        rejected.append(candidate)
    raise RepairFailed(max_attempts, _rejections(rejected, hset))


def _witness_at(state: CodeState, target: Sequence[int]) -> bool:
    """True iff the current state's selection under the target h' keeps
    full column rank, the witness for every h whose target it is."""
    want = sum(target)
    return want == 0 or rank_of_rows(_selection_rows(state, target), state.field.q) == want


def witness_repair_check(
    state: CodeState,
    failed: int,
    helpers: Sequence[int],
    h: Sequence[int],
    hset: HSet,
) -> bool:
    """Deterministic single-h repair witness.

    Runs the helper-increment procedure on h.  The repair it prescribes
    rebuilds the failed node from one column per incremented helper:
    the j-th incremented helper s_j sends its column number h'_{s_j},
    the one fresh column beyond the h_{s_j} already counted.  Under h
    the repaired state then selects exactly the columns that the
    current state selects under h' (h'_failed = 0, every other node's
    first h'_i columns), so the witness holds iff that selection of the
    current state keeps full column rank.
    """
    params = state.params
    h = tuple(h)
    if h not in hset:
        raise HNotMember(f"{h} is not admissible")
    ordered = checked_helpers(params, failed, helpers)
    return _witness_at(state, connect_run(params, h, ordered, failed).h_prime)


@lru_cache(maxsize=None)
def witness_targets(hset: HSet, failed: int, helpers: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The maximal repair targets h', whose witnesses imply all the others.

    helpers must already be ordered by checked_helpers.  Call
    h' = connect_run(h).h_prime the target of h.  It depends only on
    (H, failed, helpers), never on the code state, and connect_run
    moves h_failed units onto as many distinct helpers, so
    sum(h') = sum(h): the witness for h holds iff the current state's
    selection under h' has full column rank.  If h' <= u componentwise,
    that selection is a column subset of the selection under u, so full
    column rank under u implies it under h'.  Hence the witness holds
    for every h in hset exactly when it holds at every maximal target.

    Lemma B: connect_run increments the h_failed helpers that are
    smallest by (h value, node index), so h + e_x in H implies
    (h + e_x)' >= h'.
      - A helper's value does not change while it is in the pool,
        initial_perm orders equal values by index, and step_resort
        asserts that bystanders keep their relative order; so the pool
        is always ordered by (h value, index), and step_select takes
        its least member.
      - Raising h at a node that is neither a helper nor the failed
        node leaves the picked set S unchanged, raising h_failed adds
        one pick, and raising a helper x only moves x later in the
        ranking, so the new picks include S minus {x}.  In each case no
        coordinate of h' falls.
    By Lemma A of lrrc.mfhs, every member rises by unit steps inside H
    to a member of total M, so every target lies below the target of a
    member of hset.maximal.  Those targets all total M, so they are
    pairwise incomparable: they are exactly the maximal targets.  So
    connect_run runs on hset.maximal only, and each distinct target is
    kept once, in the order of its first source in hset.  A cold key
    costs one connect_run per maximal member; later calls with that key
    are lookups.
    """
    return tuple(dict.fromkeys(
        connect_run(hset.params, h, helpers, failed).h_prime for h in hset.maximal
    ))


def witness_holds(state: CodeState, failed: int, helpers: Sequence[int], hset: HSet) -> bool:
    """True iff the repair witness holds for every h in hset.

    Equal to all(witness_repair_check(state, failed, helpers, h, hset)
    for h in hset), decided by one rank at each maximal target that
    witness_targets memoizes per key.  Helpers are validated first, so
    bad ones raise InvalidHelpers before the memo is consulted; a warm
    key then runs no connect_run and no membership test.
    """
    ordered = checked_helpers(state.params, failed, helpers)
    return all(_witness_at(state, t) for t in witness_targets(hset, failed, ordered))


def encode(state: CodeState, file: FieldMatrix) -> tuple[FieldMatrix, ...]:
    """Per-node stored packets: node i holds X^T Q_i, a W x d matrix
    read as d packets of W symbols."""
    if file.field != state.field:
        raise CodeError(f"file lives in GF({file.field.q}), code in GF({state.field.q})")
    if (file.rows, file.cols) != (state.params.M, state.packet_width):
        raise CodeError(
            f"file is {file.rows}x{file.cols}, code expects "
            f"{state.params.M}x{state.packet_width}"
        )
    xt = mat_transpose(file)
    return tuple(mat_mul(xt, qm) for qm in state.Q)


def decode(state: CodeState, nodes: Sequence[int], packets: Sequence[FieldMatrix]) -> FieldMatrix:
    """Recover the file X from the stored packets of >= k nodes.

    Solves X^T [Q_i ...] = [P_i ...] exactly; raises RankDeficient when
    the chosen nodes do not pin X down uniquely.
    """
    if len(nodes) != len(packets):
        raise CodeError(f"{len(nodes)} nodes but {len(packets)} packet blocks")
    if len(set(nodes)) != len(nodes):
        raise CodeError(f"duplicate nodes in {nodes}")
    stray = [i for i in nodes if not 1 <= i <= state.params.n]
    if stray:
        raise CodeError(f"nodes {stray} outside 1..{state.params.n}")
    if len(nodes) < state.params.k:
        raise RankDeficient(f"{len(nodes)} nodes cannot determine the file, need k = {state.params.k}")
    stacked_q = mat_hstack([state.Q[i - 1] for i in nodes])
    stacked_p = mat_hstack(list(packets))
    solution = mat_solve(mat_transpose(stacked_q), mat_transpose(stacked_p))
    if solution is None:
        raise RankDeficient(f"nodes {tuple(nodes)} do not span the file")
    return solution


def state_to_dict(state: CodeState) -> dict:
    """JSON form: {"params": {...}, "q": q, "W": w, "Q": [matrix, ...]}."""
    return {
        "params": params_to_dict(state.params),
        "q": state.field.q,
        "W": state.packet_width,
        "Q": [matrix_to_dict(qm) for qm in state.Q],
    }


def state_from_dict(d: dict) -> CodeState:
    missing = [key for key in ("params", "q", "W", "Q")
               if not isinstance(d, dict) or key not in d]
    if missing:
        raise CodeError(f"code state lacks {missing}")
    if not isinstance(d["Q"], list):
        raise CodeError(f"code state's Q must be a list of matrices, got {type(d['Q']).__name__}")
    params = params_from_dict(d["params"])
    field = field_new(int(d["q"]))
    matrices = tuple(matrix_from_dict(md) for md in d["Q"])
    return CodeState(
        params=params,
        field=field,
        packet_width=int(d["W"]),
        Q=matrices,
    )
