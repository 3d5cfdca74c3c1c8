"""Code state, randomized construction and repair, rank verification.

A code is n coding matrices Q_1..Q_n, each M x d over a prime field.
Node i stores the d packets X^T Q_i of a file X (M x W).  The central
check, invariant_check, demands that for every admissible selection
vector h the stacked selection [Q_1 E_{h_1} | ... | Q_n E_{h_n}] keeps
full column rank, where E_x takes the first x columns.  Reconstruction
from any k nodes follows from that check (Lemma C below), and repairs
are accepted only when the repaired state passes it again, so the
property survives any failure sequence and any helper choices.

The check visits only H's maximal members (HSet.maximal, the members of
total M).  Every member of H lies below a maximal one, and lowering h_i
drops trailing columns of node i from the selection; a subset of
independent columns stays independent, so the maximal members decide
the whole of H.  Their selections are gathered from one M x (n*d) array
[Q_1 | ... | Q_n], which each CodeState builds once and keeps, by
galois.first_rank_deficient: in member order, in chunks of at most
galois.RANK_CHUNK entries, each eliminated in batched numpy for q <
2^31 (int32 for q < 2^15, int64 above), reducing the block to
residues once per column, and by rank_of_rows per selection above
2^31.  The sweep stops at the first chunk that
holds a failure, so a rejected state costs one chunk at most, and
memory stays bounded at points with 10^5 and more maximal members.

This module alone knows that array's layout: node j's d columns sit at
(j - 1)*d .. j*d - 1, so the array reshaped to M x n x d is a view
indexed by node.  Every selection index is built in numpy by
_selection_columns, and an HSet's are built once, in its _sweep_plan.
lrrc.mfhs, which finds H, knows nothing of columns.

A repair rechecks only the selections it changes.  Repairing node x
replaces Q_x alone, so a maximal h with h_x = 0 selects the same
columns before and after: the columns are unchanged, so the ranks are
unchanged.  When the state under repair passed invariant_failure on
the same HSet object, each candidate is ranked on the plan's
node_rows[x - 1] only, the maximal members with h_x > 0 (265 of 384 at
(6,4,3,1)).  A CodeState remembers that it passed in a private field
that is no part of its content or JSON form; a state made by its
constructor, by dataclasses.replace or by state_from_dict starts
without it and is ranked in full.  The candidate's array is the base's
array with node x's d columns replaced by the new Q_x, which
repair_random computes in numpy from the helpers' columns of that same
array.

Lemma C: every set S of k nodes contains the support of a maximal
member of H, so every state that passes invariant_check lets any k
nodes recover the file.
  - List S family by family, then the other nodes.  Each node of S then
    has as earlier outsiders exactly the nodes of S in earlier
    families, so its count z of earlier outsiders is the start of its
    family's block.  Along the first k positions z never falls, so the
    raw score b = (d - z)+ never rises, and nor does its cap c.
  - The first k positions total at least M, which is the least k-prefix
    total over all orders (lrrc.mfhs), so c totals M inside S and is 0
    at every later position.
  - Take h = c along this order: the node at position i gets c_i.  The
    order sorts h nonincreasingly, and c covers h with equality, so h
    is in H with total M.  By Lemma A of lrrc.mfhs, h is maximal.
  - The M columns that h selects lie in S's M x kd block, so a state
    that passes the invariant gives that block rank M.
So simulate, whose states all passed invariant_check, records the
reconstruction verdict instead of computing it.  reconstruct_check
still decides the C(n, k) blocks directly, batched like the invariant,
for lrrc verify and as the tests' reference; its per-subset verdicts,
reconstruct_verdicts, decide lrrc.exact6321's reconstruction entries.

Construction and repair draw coefficients uniformly at random (Philox
counter-based generator, fully seeded) and retry on rejection.  At the
mandated field size a single attempt fails only with polynomially small
probability, so retries are rare and bounded.
"""

from __future__ import annotations

import itertools
import logging
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .galois import (
    FieldConfig,
    FieldMatrix,
    check_keys,
    field_new,
    first_rank_deficient,
    full_column_rank,
    int_field,
    mat_hstack,
    mat_mul,
    mat_solve,
    mat_transpose,
    matrix_from_dict,
    matrix_to_dict,
    rank_of_rows,
    residue_array,
)
from .mfhs import (
    HNotMember,
    HSet,
    InvalidHelpers,
    OutOfScope,
    Params,
    checked_helpers,
    h_enumerate,
    params_from_dict,
    params_to_dict,
)
from .connect import InternalContradiction, connect_run

logger = logging.getLogger(__name__)

DEFAULT_MAX_ATTEMPTS = 16


class CodeError(Exception):
    pass


class AttemptsExhausted(CodeError):
    """No sample passed verification within the attempt budget.

    rejected_by holds, per attempt, the selection vector h that
    invariant_failure reported.  Each subclass says why no single h
    there is structural, at the points construct and repair_random
    accept.  Only all conditions together can fail, and only at a small
    q: by the random linear network coding bound (Ho et al., IEEE
    Trans. IT 2006), a uniform sample fails some condition with
    probability below 1 once q reaches required_field_size.
    """

    what = "sampling"

    def __init__(self, attempts: int, rejected_by: tuple[tuple[int, ...], ...] = ()) -> None:
        super().__init__(f"{self.what} rejected {attempts} times")
        self.attempts = attempts
        self.rejected_by = rejected_by


class ConstructionFailed(AttemptsExhausted):
    """No sampled code passed.  No single h in rejected_by is
    structural: its M selected columns can be M distinct unit vectors,
    which have full rank in every GF(q).
    """

    what = "construction"


class RepairFailed(AttemptsExhausted):
    """No sampled repair passed.  When the state under repair passes
    the invariant, no single h in rejected_by is structural: the 0/1
    witness repair for h (see witness_repair_check) makes the selection
    under h the current state's selection under
    h' = connect_run(h).h_prime, which has full rank.

    That needs h' in H, and the refusal of HSet.unrepairable's points
    is what makes it hold.  h' adds one unit to each of the h_failed
    helpers smallest by h value (witness_targets, Lemma B), and a
    helper that already holds d is among them exactly when fewer than
    h_failed helpers hold less, which some helper set allows exactly at
    the pairs (h, failed) that HSet.unrepairable looks for.  There h'
    leaves 0..d and h is structural, so repair_random refuses such
    points before drawing, and witness_holds and witness_repair_check
    before forming a target.  At the other points no key is known
    whose target leaves H: none of the 124 accepted in-scope points
    with n <= 8 and at most 3 * 10^6 (member, key) pairs has one.
    """

    what = "repair"


class RankDeficient(CodeError):
    """Decoding had no unique exact solution."""


@dataclass(frozen=True)
class CodeState:
    """One code: parameters, field, packet width W, and the Q matrices.

    attempts records how many samples the producing call consumed.  It
    is provenance, not code content, and stays out of the JSON form.
    """

    params: Params
    field: FieldConfig
    packet_width: int
    Q: tuple[FieldMatrix, ...]
    attempts: int = dc_field(default=1, compare=False)
    # (hset, None) once this state passed invariant_failure on that
    # hset object in full; (hset, x) while it differs only at node x
    # from a state that did.  Set only by invariant_failure and
    # repair_random; __init__, replace and state_from_dict leave it
    # empty, so such states are ranked in full.
    _checked: tuple[HSet, int | None] | None = dc_field(
        default=None, init=False, compare=False, repr=False)
    # [Q_1 | ... | Q_n] as a read-only array, once _coefficients or
    # repair_random has built it; never content, never copied by
    # replace.
    _coef: np.ndarray | None = dc_field(default=None, init=False, compare=False, repr=False)

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


def required_field_size(params: Params, hset: HSet) -> int:
    """Sufficient field size: n * d * M * |H| + 1.

    Any prime at or above this makes random construction succeed with
    positive probability margin.  Smaller primes are accepted with a
    recorded warning; the bound is sufficient, never necessary.
    """
    return params.n * params.d * params.M * len(hset) + 1


def _point(params: Params) -> str:
    return f"({params.n},{params.k},{params.d},{params.r})"


def _check_hset(params: Params, hset: HSet) -> None:
    """Raise CodeError when hset is H of other parameters than params."""
    if hset.params != params:
        raise CodeError(f"H was enumerated for {_point(hset.params)}, the code is {_point(params)}")


def _check_repairable(hset: HSet) -> None:
    """Raise OutOfScope at a point where some repair can never pass, as
    HSet.unrepairable finds it."""
    if hset.unrepairable is not None:
        h, x, bound = hset.unrepairable
        raise OutOfScope(
            f"{_point(hset.params)} is out of scope: some helper set leaves every repair "
            f"of node {x} below full rank under h = {h}, since its packets add at most "
            f"{bound} to the rank and h_{x} = {h[x - 1]} > {bound}")


def _coefficients(state: CodeState) -> np.ndarray:
    """[Q_1 | ... | Q_n] as one read-only M x (n*d) galois.residue_array,
    built on first use and kept on the state.  It is C-contiguous, so
    reshaping it to M x n x d gives a view indexed by node, no copy."""
    coef = state._coef
    if coef is None:
        params = state.params
        flat = residue_array([qm.entries for qm in state.Q], state.field.q)
        coef = flat.reshape(params.n, params.M, params.d).transpose(1, 0, 2).reshape(params.M, -1)
        coef.setflags(write=False)
        object.__setattr__(state, "_coef", coef)
    return coef


def _selection_columns(d: int, hs: np.ndarray) -> np.ndarray:
    """(B, s) column indices into [Q_1 | ... | Q_n] of the selections
    under the rows of hs, a (B, n) array of selection vectors that all
    total s: row i takes the first hs[i, j] of node j's d columns
    (0-based j), in ascending order."""
    taken = np.flatnonzero(np.arange(d) < hs[:, :, None])
    return np.remainder(taken, hs.shape[1] * d, out=taken).reshape(len(hs), -1)


@lru_cache(maxsize=None)
def _sweep_plan(hset: HSet) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The state-free index arrays of hset's sweeps, (columns, node_rows),
    both derived from one array of hset.maximal.

    columns[i] is the selection of hset.maximal[i], and node_rows[j]
    (0-based j) holds the ascending rows of the members with h_j > 0:
    the selections that read node j's columns, and so the only ones a
    change to node j's matrix can alter.  Both are int32, half the
    memory of intp: every column index is below n * d and every row
    index below len(hset.maximal)."""
    maximal = np.fromiter(itertools.chain.from_iterable(hset.maximal), np.int32)
    maximal = maximal.reshape(-1, hset.params.n)
    return (_selection_columns(hset.params.d, maximal).astype(np.int32),
            tuple(np.flatnonzero(reads).astype(np.int32) for reads in (maximal > 0).T))


def invariant_failure(state: CodeState, hset: HSet) -> tuple[int, ...] | None:
    """First maximal h, in member order, whose selection loses full
    column rank; None when every admissible selection keeps it.

    Checking the maximal members suffices: see the module docstring.
    They all total M, so their M x M selections decide them, gathered
    by their rows of the _sweep_plan columns and ranked by
    galois.first_rank_deficient in chunks.
    A candidate that repair_random marked as differing from a passing
    state only at node x is ranked on the plan's node_rows[x - 1] alone:
    every other maximal h selects the columns that passed in that state,
    so the first failure in member order is among those rows.  A state
    that passes is marked as passing on this hset.
    """
    _check_hset(state.params, hset)
    columns, node_rows = _sweep_plan(hset)
    memo = state._checked
    rows = None
    if memo is not None and memo[0] is hset and memo[1] is not None:
        rows = node_rows[memo[1] - 1]
        columns = columns[rows]
    first = first_rank_deficient(_coefficients(state), columns, state.field.q)
    if first is None:
        object.__setattr__(state, "_checked", (hset, None))
        return None
    return hset.maximal[first if rows is None else rows[first]]


def invariant_check(state: CodeState, hset: HSet) -> bool:
    """True iff every admissible selection keeps full column rank.

    Decided on H's maximal members only, which imply every other rank
    condition; invariant_failure names the failing h.
    """
    return invariant_failure(state, hset) is None


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) 0-based node indices of every k-subset of nodes, in
    itertools.combinations order."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def reconstruct_verdicts(state: CodeState) -> np.ndarray:
    """Per k-subset of nodes, in itertools.combinations order, whether it
    spans the whole file.

    Each subset's M x k*d block has rank M exactly when its transpose
    has full column rank, which one batched kernel call decides for all
    C(n, k) subsets.  Since decode solves exactly that transposed
    system, a subset's verdict is also whether decode recovers an
    encoded file from it.  The blocks are gathered by node from the
    M x n x d view of the coefficient array.
    """
    m, n, k, d = state.params.M, state.params.n, state.params.k, state.params.d
    blocks = _coefficients(state).reshape(m, n, d)[:, _subsets(n, k)].reshape(m, -1, k * d)
    return full_column_rank(blocks.transpose(1, 2, 0), state.field.q)


def reconstruct_check(state: CodeState) -> bool:
    """True iff every k-subset of nodes spans the whole file: all of
    reconstruct_verdicts."""
    return bool(reconstruct_verdicts(state).all())


def _uniform(rng: np.random.Generator, q: int, shape: tuple[int, int]) -> np.ndarray:
    """Uniform residues mod q, drawn by rng.integers as int64; raises
    CodeError for a field too large for int64 draws."""
    if q >= 2**63:
        raise CodeError(f"cannot sample coefficients in GF({q}): draws are int64, "
                        f"so q must be below 2^63")
    return rng.integers(0, q, size=shape, dtype=np.int64)


def _sample_until_accepted(
    sample: Callable[[np.random.Generator, int], CodeState],
    hset: HSet,
    rng_seed: int,
    max_attempts: int,
    error: type[AttemptsExhausted],
) -> CodeState:
    """The first sample(rng, attempt), for attempt = 1..max_attempts,
    that passes invariant_check; every sample draws from one Philox
    generator seeded with rng_seed.

    invariant_check runs once per attempt.  When all max_attempts
    samples were rejected, raises error with the h that rejected each,
    recomputed only then; raises CodeError when max_attempts is below 1.
    """
    if max_attempts < 1:
        raise CodeError(f"max_attempts must be at least 1, got {max_attempts}")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    rejected = []
    for attempt in range(1, max_attempts + 1):
        state = sample(rng, attempt)
        if invariant_check(state, hset):
            return state
        rejected.append(state)
    raise error(max_attempts, tuple(invariant_failure(state, hset) for state in rejected))


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
    max_attempts is below 1 or hset is H of other parameters.  Raises
    OutOfScope before any draw at a point where some repair can never
    pass (HSet.unrepairable).
    """
    _check_hset(params, hset)
    _check_repairable(hset)
    bound = required_field_size(params, hset)
    if field.q < bound:
        logger.warning(
            "field size %d is below the sufficient bound %d; construction may retry more",
            field.q,
            bound,
        )

    def sample(rng: np.random.Generator, attempt: int) -> CodeState:
        draws = _uniform(rng, field.q, (params.n, params.M * params.d))
        matrices = tuple(FieldMatrix(params.M, params.d, tuple(row), field)
                         for row in draws.tolist())
        return CodeState(params=params, field=field, packet_width=packet_width, Q=matrices,
                         attempts=attempt)

    return _sample_until_accepted(sample, hset, rng_seed, max_attempts, ConstructionFailed)


def repair_random(
    state: CodeState,
    failed: int,
    helpers: Sequence[int],
    rng_seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> CodeState:
    """Regenerate one node from d helpers, one packet each.

    Each attempt draws a d x d matrix B and then a d x d matrix Z,
    uniformly.  Helper x_j, in checked_helpers order, sends its packets
    combined by column b_j of B, and the newcomer mixes what it gets by
    Z, so the candidate Q_failed is [Q_{x_1} b_1 | ... | Q_{x_d} b_d] @ Z.
    It is computed in numpy from the helpers' blocks of state's
    coefficient array, gathered once per call through its M x n x d
    view, in its residue_array dtype: int32 below 2^15 and int64 below
    2^31, where each product of two residues stays below 2^30 or 2^62
    and is reduced mod q before the sums (which numpy takes in int64),
    and Python ints above.  The candidate keeps a copy of that array
    with the failed node's block replaced through the same view.

    A candidate is kept only if the whole state passes invariant_check
    again.  When state passed invariant_failure on this hset, each
    candidate is marked as differing from it only at node failed, so
    that check ranks only the maximal h with h_failed > 0 (see the
    module docstring).  The returned state's attempts field counts the
    samples used.  States whose candidate was rejected are never
    returned or mutated.  Raises InvalidHelpers when helpers fail
    mfhs.checked_helpers, CodeError when max_attempts is below 1 or q is
    too large to draw, and OutOfScope before any draw at a point where
    some repair can never pass (HSet.unrepairable).
    """
    params = state.params
    ordered = checked_helpers(params, failed, helpers)
    hset = h_enumerate(params)
    _check_repairable(hset)
    memo = state._checked
    base_passed = memo is not None and memo[0] is hset and memo[1] is None
    field, m, n, d, q = state.field, params.M, params.n, params.d, state.field.q
    coef = _coefficients(state)
    # blocks[i, j, c] is entry (i, c) of Q_{ordered[j]}
    blocks = coef.reshape(m, n, d)[:, np.array(ordered) - 1]

    def sample(rng: np.random.Generator, attempt: int) -> CodeState:
        combine = residue_array(_uniform(rng, q, (d, d)).T, q)
        mix = residue_array(_uniform(rng, q, (d, d)), q)
        columns = (blocks * combine % q).sum(axis=2) % q
        replacement = (columns[:, :, None] * mix % q).sum(axis=1) % q
        new_q = list(state.Q)
        new_q[failed - 1] = FieldMatrix(m, d, tuple(replacement.reshape(-1).tolist()), field)
        candidate = replace(state, Q=tuple(new_q), attempts=attempt)
        new_coef = coef.copy()
        new_coef.reshape(m, n, d)[:, failed - 1] = replacement
        new_coef.setflags(write=False)
        object.__setattr__(candidate, "_coef", new_coef)
        if base_passed:
            object.__setattr__(candidate, "_checked", (hset, failed))
        return candidate

    return _sample_until_accepted(sample, hset, rng_seed, max_attempts, RepairFailed)


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
    _check_hset(params, hset)
    _check_repairable(hset)
    h = tuple(h)
    if h not in hset:
        raise HNotMember(f"{h} is not admissible")
    ordered = checked_helpers(params, failed, helpers)
    target = connect_run(params, h, ordered, failed).h_prime
    rows = _coefficients(state)[:, _selection_columns(params.d, np.array([target]))[0]].tolist()
    return rank_of_rows(rows, state.field.q) == sum(target)


@lru_cache(maxsize=None)
def witness_targets(hset: HSet, failed: int, helpers: tuple[int, ...]) -> tuple[int, ...]:
    """The maximal repair targets h', whose witnesses imply all the
    others, as row indices into hset.maximal.

    helpers must already be ordered by checked_helpers.  Call
    h' = connect_run(h).h_prime the target of h.  It depends only on
    (H, failed, helpers), never on the code state, and connect_run
    moves h_failed units onto as many distinct helpers, so
    sum(h') = sum(h): the witness for h holds iff the current state's
    selection under h' has full column rank.  If h' <= u componentwise,
    that selection is a column subset of the selection under u, so full
    column rank under u implies it under h'.  Hence the witness holds
    for every h in hset exactly when it holds at every maximal target.

    Lemma B:
      - Closed form: h' is h with h'_failed = 0 and one unit added to
        each of the h_failed helpers that are smallest by (h value,
        node index).  In connect_run a helper's value does not change
        while it is in the pool, initial_perm orders equal values by
        index, and step_resort asserts that bystanders keep their
        relative order; so the pool is always ordered by (h value,
        index), and step_select takes its least member.
      - Monotone: h + e_x in H implies (h + e_x)' >= h'.  Raising h at
        a node that is neither a helper nor the failed node leaves the
        picked set S unchanged, raising h_failed adds one pick, and
        raising a helper x only moves x later in the ranking, so the
        new picks include S minus {x}.  In each case no coordinate of
        h' falls.
    By Lemma A of lrrc.mfhs, every member rises by unit steps inside H
    to a member of total M, so every target lies below the target of a
    member of hset.maximal.  Those targets all total M, so they are
    pairwise incomparable: they are exactly the maximal targets.

    So each member of hset.maximal gets its target by the closed form,
    found by bisection in the sorted hset.maximal.  connect_run keeps
    h' in H, and h' totals M, so by Lemma A it is a maximal member; a
    target missing from hset.maximal raises InternalContradiction, and
    a key that returns has certified that all its targets are maximal
    members.  Each distinct row is kept once, in the order of its first
    source in hset.maximal; later calls with that key are lookups.
    """
    maximal = hset.maximal

    def row(h: tuple[int, ...]) -> int:
        picked = sorted(helpers, key=lambda x: (h[x - 1], x))[:h[failed - 1]]
        target = tuple(0 if x == failed else v + (x in picked) for x, v in enumerate(h, 1))
        i = bisect_left(maximal, target)
        if maximal[i:i + 1] != (target,):
            raise InternalContradiction(f"target {target} of {h} is not a maximal member of H")
        return i

    return tuple(dict.fromkeys(row(h) for h in maximal))


def witness_holds(state: CodeState, failed: int, helpers: Sequence[int], hset: HSet) -> bool:
    """True iff the repair witness holds for every h in hset.

    Equal to all(witness_repair_check(state, failed, helpers, h, hset)
    for h in hset), decided by one rank at each maximal target that
    witness_targets memoizes per key.  The targets' selections are
    gathered from one array of the Q matrices by their rows of the
    _sweep_plan columns, as in invariant_failure, and each is ranked
    by rank_of_rows against M, the total of every maximal target.
    Helpers are validated first, so bad ones raise InvalidHelpers
    before the memo is consulted; a key runs no connect_run and no
    membership test, cold or warm.  Raises OutOfScope, as construct
    does, at a point where some repair can never pass
    (HSet.unrepairable): a target there can leave H.
    """
    _check_hset(state.params, hset)
    _check_repairable(hset)
    ordered = checked_helpers(state.params, failed, helpers)
    columns = _sweep_plan(hset)[0][list(witness_targets(hset, failed, ordered))]
    blocks = _coefficients(state)[:, columns].transpose(1, 0, 2).tolist()
    q, m = state.field.q, state.params.M
    return all(rank_of_rows(rows, q) == m for rows in blocks)


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
    check_keys(d, "code state", ("params", "q", "W", "Q"), error=CodeError)
    if not isinstance(d["Q"], list):
        raise CodeError(f"code state's Q must be a list of matrices, got {type(d['Q']).__name__}")
    params = params_from_dict(d["params"])
    field = field_new(int_field(d["q"], "code state's q", CodeError))
    matrices = tuple(matrix_from_dict(md) for md in d["Q"])
    return CodeState(
        params=params,
        field=field,
        packet_width=int_field(d["W"], "code state's W", CodeError),
        Q=matrices,
    )
