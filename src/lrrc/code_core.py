"""Code state, randomized construction and repair, rank verification.

A code is n coding matrices Q_1..Q_n, each M x d over a prime field.
Node i stores the d packets X^T Q_i of a file X (M x W).  The central
check, invariant_check, demands that for every admissible selection
vector h the stacked selection [Q_1 E_{h_1} | ... | Q_n E_{h_n}] keeps
full column rank, where E_x takes the first x columns.  Reconstruction
from any k nodes follows from that check (Lemma C below), and repairs
are accepted only when the repaired state passes it again, so the
property survives any failure sequence and any helper choices.

The check visits only H's maximal members (HSet.rows, the members of
total M).  Every member of H lies below a maximal one, and lowering h_i
drops trailing columns of node i from the selection; a subset of
independent columns stays independent, so the maximal members decide
the whole of H.  Their selections are gathered from one M x (n*d) array
[Q_1 | ... | Q_n], which each CodeState builds once and keeps, by
galois.first_rank_deficient: in member order, in chunks of at most
galois.RANK_CHUNK entries, each eliminated in one batched numpy loop
at every q (int32 for q < 2^15, int64 for q < 2^31, Python ints
above), reducing the block to residues once per column.  The sweep
stops at the first chunk that holds a failure, so a rejected state
costs one chunk at most, and memory stays bounded at points with 10^5
and more maximal members.

Each sweep is split at t selected columns, t chosen per HSet by
_split_columns' cost model (0 where no split pays), at every q.
Schur step: row operations keep rank, and eliminating the first t
columns of an M x M selection whose prefix has rank t leaves
[[U, X], [0, S]] with U upper triangular and its diagonal nonzero,
whose rank is t + rank S.  So the selection has rank M exactly when its
prefix has rank t and its (M - t)-square remainder S has full rank;
a prefix of lower rank needs no verdict of its own, since the kernel
leaves its stack a zero trailing block, so every remainder read from
it fails.
The members whose selections share their first t columns are
contiguous: a selection lists its columns ascending, node by node, and
the member order is lexicographic in h, so the selections come in
descending lexicographic order (at the first node j where h < h', h
takes fewer of node j's columns, so its next column is a later one),
and in a sorted list the rows that share a prefix are adjacent.  Each
run is one label of _split_plan, and a chunk eliminates each label's
prefix once, on [prefix | Q_1 | ... | Q_n], then each member's
remainder.  Splitting by a column count, not by a node, gives every
member of a sweep the same t, so a chunk takes one prefix elimination
and one remainder elimination.

This module alone knows that array's layout: node j's d columns sit at
(j - 1)*d .. j*d - 1, so the array reshaped to M x n x d is a view
indexed by node.  Every selection index is built in numpy by
_selection_columns, and an HSet's are built once, in its _sweep_plan.
lrrc.mfhs, which finds H, knows nothing of columns.

A repair rechecks only the selections it changes.  Repairing node x
replaces Q_x alone, so a maximal h with h_x = 0 selects the same
columns before and after: the columns are unchanged, so the ranks are
unchanged.  When the base under repair passed the invariant on the
same HSet object, each candidate is ranked on the plan's
node_rows[x - 1] only, the maximal members with h_x > 0 (265 of 384 at
(6,4,3,1)), taken from the plan once per repair.  A CodeState
remembers the HSet it passed on in a private field that is no part of
its content or JSON form; a state made by its constructor, by
dataclasses.replace or by state_from_dict starts without it and is
ranked in full.

Construction and repair sample coefficient arrays, not states: a
candidate is an M x (n*d) array, for a repair the base's array with
node x's d columns replaced by the new Q_x, computed in numpy from the
helpers' columns of that same array.  _sample_until_accepted ranks each
candidate and returns the accepted array with its attempt count.
repair_array is the one repair path: it takes a base array, and
whether that base passed, and returns the accepted array, so
lrrc.cli_sim's simulate carries the array from repair to repair and
builds no FieldMatrix and no CodeState per event; witness_holds_array
reads the same array.  construct and repair_random turn only the
accepted array into FieldMatrix objects and a CodeState, which keeps
the array and is marked as passed.

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
for lrrc verify and as the tests' reference.  lrrc.exact6321 ranks the
same blocks for its 20 triples, as certificates in its own one kernel
call (its Lemma R), so reconstruct_verdicts serves reconstruct_check
alone.

Construction and repair draw coefficients uniformly at random (one
Philox counter-based generator, re-keyed for each seed) and retry on
rejection.  At the mandated field size a single attempt fails only
with polynomially small probability, so retries are rare and bounded.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .galois import (
    FieldConfig,
    FieldMatrix,
    RANK_CHUNK,
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

    rejected_by holds, per attempt, the selection vector h that rejected
    it, the one invariant_failure names on the state built from that
    sample.  Each subclass says why no single h there is structural, at
    the points construct and repair_random accept.  Only all conditions
    together can fail, and only at a small q: by the random linear
    network coding bound (Ho et al., IEEE Trans. IT 2006), a uniform
    sample fails some condition with probability below 1 once q reaches
    required_field_size.
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
    the invariant and every target of the key is in H, no single h in
    rejected_by is structural: the 0/1 witness repair for h (see
    witness_repair_check) makes the selection under h the current
    state's selection under h' = connect_run(h).h_prime, which has full
    rank.

    That needs h' in H.  h' adds one unit to each of the h_failed
    helpers smallest by h value (witness_targets, Lemma B), and a
    helper that already holds d is among them exactly when fewer than
    h_failed helpers hold less, which some helper set allows exactly at
    the pairs (h, failed) that HSet.unrepairable looks for.  There h'
    leaves 0..d and h is structural, so repair_random refuses such
    points before drawing, and witness_holds and witness_repair_check
    before forming a target.  The refusal is sufficient, not exact: h'
    can leave H at an accepted point too.  (9,6,5,1) passes
    HSet.unrepairable, yet for failed node 1 and helpers (4,6,7,8,9)
    the maximal h = (2,0,0,0,0,3,3,5,5) has the target
    (0,0,0,1,0,4,3,5,5), which is not in H; 27 of its 54 keys have such
    a target, and witness_targets raises InternalContradiction on each.
    There a rejecting h can be structural.  The targets stay in H, on
    every key, at the 124 accepted in-scope points with n <= 8 and at
    most 3 * 10^6 (member, key) pairs; the ROADMAP item "Repair targets
    that stay in H" plans the exact check.
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
    # The HSet object this state passed the invariant on, in full or, for
    # a repair of a state that had, on the repaired node's rows.  Set
    # only by invariant_failure and by construct's and repair_random's
    # accepted sample; __init__, replace and state_from_dict leave it
    # empty, so such states are ranked in full.
    _checked: HSet | None = dc_field(default=None, init=False, compare=False, repr=False)
    # [Q_1 | ... | Q_n] as a read-only array, once _coefficients has
    # built it or a sample was accepted from it; never content, never
    # copied by replace.
    _coef: np.ndarray | None = dc_field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.Q) != self.params.n:
            raise CodeError(f"expected {self.params.n} coding matrices, got {len(self.Q)}")
        for i, qm in enumerate(self.Q, start=1):
            if (qm.rows, qm.cols) != (self.params.M, self.params.d):
                raise CodeError(
                    f"Q_{i} is {qm.rows}x{qm.cols}, expected {self.params.M}x{self.params.d}"
                )
            if qm.field is not self.field and qm.field != self.field:
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
    both read off hset.rows.

    columns[i] is the selection of the maximal member in row i, and
    node_rows[j] (0-based j) holds the ascending rows of the members
    with h_j > 0: the selections that read node j's columns, and so the
    only ones a change to node j's matrix can alter.  Both are int32,
    half the memory of intp: every column index is below n * d and
    every row index below len(hset.rows)."""
    return (_selection_columns(hset.params.d, hset.rows).astype(np.int32),
            tuple(np.flatnonzero(reads).astype(np.int32) for reads in (hset.rows > 0).T))


# The split model's costs, in entries updated: _eliminate's fixed
# numpy dispatch per column of a chunk, and what a split adds per chunk
# (the prefix stack, its remainders' gather and one more call).
COLUMN_COST = 1500
SPLIT_COST = 3500


def _shared_prefixes(columns: np.ndarray) -> np.ndarray:
    """How many leading columns each row of columns shares with the row
    before it; 0 for the first row.  The rows are distinct."""
    shared = np.zeros(len(columns), dtype=np.intp)
    shared[1:] = (columns[1:] != columns[:-1]).argmax(axis=1)
    return shared


@lru_cache(maxsize=None)
def _split_columns(hset: HSet) -> int:
    """How many leading columns hset's sweeps split off, in every field:
    the t that the cost model finds cheapest over the full sweep and
    every node's, each counted once.

    A sweep of B rows at split t ranks ceil(B / step) chunks of step =
    RANK_CHUNK // (M - t)^2 rows.  Each chunk pays COLUMN_COST for each
    of its M columns, and SPLIT_COST more when t > 0.  Its entries cost
    one each: an (M - t)-square remainder updates sum_{j <= M - t} j^2
    entries per row, and the prefix step (M - c) * (t + n*d - c) per
    label for each column c < t, over the labels from the sweep's first
    row's to its last row's plus one per chunk boundary.  The members
    that share their first t columns are contiguous (see the module
    docstring), so the labels are counted off the rows where the shared
    prefix with the row before is shorter than t.
    """
    columns, node_rows = _sweep_plan(hset)
    m, width = hset.params.M, hset.params.n * hset.params.d
    spans = [(0, len(columns) - 1, len(columns))]
    spans += [(rows[0], rows[-1], len(rows)) for rows in node_rows if len(rows)]
    shared = _shared_prefixes(columns)
    costs = []
    for t in range(m):
        step = max(1, RANK_CHUNK // (m - t) ** 2)
        new = np.cumsum(shared < t)
        cost = 0
        for first, last, count in spans:
            chunks = -(-count // step)
            cost += chunks * m * COLUMN_COST + count * sum(j * j for j in range(1, m - t + 1))
            if t:
                labels = int(new[last] - new[first]) + chunks
                cost += chunks * SPLIT_COST + labels * sum(
                    (m - c) * (t + width - c) for c in range(t))
        costs.append(cost)
    return costs.index(min(costs))


@lru_cache(maxsize=None)
def _split_plan(hset: HSet, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefixes, remainders), the arguments of first_rank_deficient's
    split of hset's full sweep at t columns, read off the _sweep_plan
    columns.  A new label starts at each row whose first t columns
    differ from the row before's; prefixes[g] holds label g's t columns
    and remainders[i] = g_i * n*d + (row i's other M - t columns).  At
    t = 0 there is one label, whose prefix is empty, so prefixes is
    1 x 0 and remainders are the plan columns, the unsplit sweep.  A
    node's sweep takes its rows of remainders, so it shares the plan.
    Both are int32, and remainders int64 where a label's offset
    g * n*d would not fit."""
    columns = _sweep_plan(hset)[0]
    new = _shared_prefixes(columns) < t
    new[0] = True
    width = hset.params.n * hset.params.d
    labels = np.cumsum(new) - 1
    dtype = np.int32 if int(labels[-1] + 1) * width < 2**31 else np.int64
    remainders = columns[:, t:].astype(dtype)
    remainders += (labels * width).astype(dtype)[:, None]
    return np.ascontiguousarray(columns[new, :t]), remainders


def _failure_sweep(hset: HSet, q: int,
                   node: int | None = None) -> Callable[[np.ndarray], tuple[int, ...] | None]:
    """The sweep that names, for a coefficient array coef, the first
    maximal h, in member order, whose selection of coef loses full column
    rank mod q, or None when every one keeps it.  With node, only the
    plan's node_rows[node - 1] are ranked, the maximal h that read
    node's columns; they are taken here, once for every array the sweep
    ranks.

    The selections are ranked by galois.first_rank_deficient in chunks,
    by their rows of the _split_plan remainders at the HSet's
    _split_columns (the plan columns themselves at t = 0).  The failing
    h is the one row of hset.rows made a tuple of Python ints.
    """
    prefixes, columns = _split_plan(hset, _split_columns(hset))
    rows = None
    if node is not None:
        rows = _sweep_plan(hset)[1][node - 1]
        columns = np.take(columns, rows, axis=0)

    def first_failure(coef: np.ndarray) -> tuple[int, ...] | None:
        first = first_rank_deficient(coef, columns, q, prefixes)
        if first is None:
            return None
        return tuple(hset.rows[first if rows is None else rows[first]].tolist())

    return first_failure


def invariant_failure(state: CodeState, hset: HSet) -> tuple[int, ...] | None:
    """First maximal h, in member order, whose selection loses full
    column rank; None when every admissible selection keeps it.

    Checking the maximal members suffices: see the module docstring.
    They all total M, so their M x M selections decide them, ranked by
    _failure_sweep over the full sweep.  A state that passes is marked
    as passing on this hset.
    """
    _check_hset(state.params, hset)
    h = _failure_sweep(hset, state.field.q)(_coefficients(state))
    if h is None:
        object.__setattr__(state, "_checked", hset)
    return h


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


def _uniform(rng: np.random.Generator, q: int, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform residues mod q, drawn by rng.integers as int64; raises
    CodeError for a field too large for int64 draws."""
    if q >= 2**63:
        raise CodeError(f"cannot sample coefficients in GF({q}): draws are int64, "
                        f"so q must be below 2^63")
    return rng.integers(0, q, size=shape, dtype=np.int64)


def _check_attempts(max_attempts: int) -> None:
    """Raise CodeError when max_attempts is below 1; construct and
    repair_random call this before any other work."""
    if max_attempts < 1:
        raise CodeError(f"max_attempts must be at least 1, got {max_attempts}")


_EMPTY = np.zeros(4, dtype=np.uint64)


@lru_cache(maxsize=None)
def _philox() -> np.random.Generator:
    """The one Generator every sample draws from, over a Philox bit
    generator, built on first use (so importing lrrc loads no
    numpy.random) and re-keyed per seed by _generator."""
    return np.random.Generator(np.random.Philox(0))


def _generator(rng_seed: int) -> np.random.Generator:
    """The module's generator, re-keyed to start the stream that
    np.random.Generator(np.random.Philox(rng_seed)) starts: counter 0,
    key SeedSequence(rng_seed).generate_state(2, np.uint64), empty
    buffer.  Re-keying skips building a bit generator and a Generator
    per call."""
    rng = _philox()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY,
                  "key": np.random.SeedSequence(rng_seed).generate_state(2, np.uint64)},
        "buffer": _EMPTY, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _accepted(state: CodeState, coef: np.ndarray, hset: HSet) -> CodeState:
    """state, built from the accepted sample coef, carrying coef as its
    coefficient array and marked as passed on hset."""
    object.__setattr__(state, "_coef", coef)
    object.__setattr__(state, "_checked", hset)
    return state


def _sample_until_accepted(
    draw: Callable[[np.random.Generator], np.ndarray],
    hset: HSet,
    q: int,
    rng_seed: int,
    max_attempts: int,
    error: type[AttemptsExhausted],
    node: int | None = None,
) -> tuple[np.ndarray, int]:
    """(coef, attempt) for the first coef = draw(rng), for attempt =
    1..max_attempts, that passes the invariant on hset, made read-only;
    every draw reads the stream of Philox seeded with rng_seed, which
    _generator starts.

    draw returns a candidate's M x (n*d) coefficient array in
    _coefficients' layout, and one _failure_sweep ranks every candidate,
    on node's rows alone when node is given.  So no attempt builds a
    FieldMatrix or a CodeState.  When all max_attempts samples were
    rejected, raises error with the h that rejected each, recorded as
    each attempt failed.  Its callers have checked max_attempts with
    _check_attempts.
    """
    first_failure = _failure_sweep(hset, q, node)
    rng = _generator(rng_seed)
    rejected = []
    for attempt in range(1, max_attempts + 1):
        coef = draw(rng)
        h = first_failure(coef)
        if h is None:
            coef.setflags(write=False)
            return coef, attempt
        rejected.append(h)
    raise error(max_attempts, tuple(rejected))


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
    so one seed always yields one code.  Each attempt draws an
    (n, M, d) block of residues and lays it out as the M x (n*d)
    coefficient array with one transposed copy; the invariant is ranked
    on that array, and only the accepted one becomes n FieldMatrix
    objects and a CodeState.  Raises ConstructionFailed when
    max_attempts samples were all rejected, and CodeError, before any
    draw, when max_attempts is below 1, packet_width is below 1 or hset
    is H of other parameters.  Raises OutOfScope before any draw at a
    point where some repair can never pass (HSet.unrepairable).
    """
    _check_attempts(max_attempts)
    if packet_width < 1:
        raise CodeError("packet width must be positive")
    _check_hset(params, hset)
    _check_repairable(hset)
    m, n, d, q = params.M, params.n, params.d, field.q
    bound = required_field_size(params, hset)
    if field.q < bound:
        logger.warning(
            "field size %d is below the sufficient bound %d; construction may retry more",
            field.q,
            bound,
        )

    def draw(rng: np.random.Generator) -> np.ndarray:
        # draws[j, i, c] is entry (i, c) of Q_{j + 1}
        draws = _uniform(rng, q, (n, m, d))
        return residue_array(draws.transpose(1, 0, 2), q).reshape(m, n * d)

    coef, attempts = _sample_until_accepted(draw, hset, q, rng_seed, max_attempts,
                                            ConstructionFailed)
    blocks = coef.reshape(m, n, d).transpose(1, 0, 2).reshape(n, m * d).tolist()
    matrices = tuple(FieldMatrix(m, d, tuple(row), field) for row in blocks)
    return _accepted(CodeState(params=params, field=field, packet_width=packet_width,
                               Q=matrices, attempts=attempts), coef, hset)


def repair_base(state: CodeState, hset: HSet) -> tuple[np.ndarray, bool]:
    """What repair_array takes as the base of a repair of state: its
    read-only coefficient array, and whether state passed the invariant
    on this hset object."""
    return _coefficients(state), state._checked is hset


def repair_array(coef: np.ndarray, q: int, hset: HSet, failed: int, ordered: tuple[int, ...],
                 rng_seed: int, max_attempts: int, passed: bool) -> tuple[np.ndarray, int]:
    """The accepted coefficient array of a repair of the base array coef
    over GF(q), and the attempts it took; raises RepairFailed, with the
    h that rejected each attempt, when none of max_attempts passed.

    ordered holds the helpers as checked_helpers returns them, hset is
    H of coef's point and passes _check_repairable, and max_attempts
    passes _check_attempts: repair_random checks all three, and
    lrrc.cli_sim's simulate the last two through construct.

    Each attempt draws a d x d matrix B and then a d x d matrix Z,
    uniformly.  Helper x_j sends its packets combined by column b_j of
    B, and the newcomer mixes what it gets by Z, so the candidate
    Q_failed is [Q_{x_1} b_1 | ... | Q_{x_d} b_d] @ Z.  It is computed in numpy from the helpers' blocks of coef, gathered
    once per call through its M x n x d view, in its residue_array
    dtype: int32 below 2^15 and int64 below 2^31, where each product of
    two residues stays below 2^30 or 2^62 and is reduced mod q before
    the sums (which numpy takes in int64), and Python ints above.  The
    candidate is a copy of coef with the failed node's block replaced
    through the same view.

    A candidate is kept only if the whole state passes the invariant
    again.  When the base passed the invariant on this hset (passed),
    each candidate is ranked on the maximal h with h_failed > 0 alone
    (see the module docstring).
    """
    m, n, d = hset.params.M, hset.params.n, hset.params.d
    # blocks[i, j, c] is entry (i, c) of Q_{ordered[j]}
    blocks = np.take(coef.reshape(m, n, d), [x - 1 for x in ordered], axis=1)

    def draw(rng: np.random.Generator) -> np.ndarray:
        # one draw of both: B's d * d residues, then Z's
        combine, mix = residue_array(_uniform(rng, q, (2, d, d)), q)
        columns = (blocks * combine.T % q).sum(axis=2) % q
        candidate = coef.copy()
        candidate.reshape(m, n, d)[:, failed - 1] = (columns[:, :, None] * mix % q).sum(axis=1) % q
        return candidate

    return _sample_until_accepted(draw, hset, q, rng_seed, max_attempts, RepairFailed,
                                  failed if passed else None)


def repair_random(
    state: CodeState,
    failed: int,
    helpers: Sequence[int],
    rng_seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> CodeState:
    """Regenerate one node from d helpers, one packet each: repair_array
    on state's coefficient array, after the checks it leaves to its
    callers.

    Only the accepted candidate becomes a FieldMatrix and a CodeState,
    which shares state's other matrices; its attempts field counts the
    samples used.  Raises InvalidHelpers when helpers fail
    mfhs.checked_helpers, CodeError when max_attempts is below 1 or q is
    too large to draw, and OutOfScope before any draw at a point where
    some repair can never pass (HSet.unrepairable).
    """
    _check_attempts(max_attempts)
    params, field = state.params, state.field
    ordered = checked_helpers(params, failed, helpers)
    hset = h_enumerate(params)
    _check_repairable(hset)
    base, passed = repair_base(state, hset)
    coef, attempts = repair_array(base, field.q, hset, failed, ordered, rng_seed, max_attempts,
                                  passed)
    m, n, d = params.M, params.n, params.d
    new_q = list(state.Q)
    entries = coef.reshape(m, n, d)[:, failed - 1].reshape(-1).tolist()
    new_q[failed - 1] = FieldMatrix(m, d, tuple(entries), field)
    return _accepted(CodeState(params=params, field=field, packet_width=state.packet_width,
                               Q=tuple(new_q), attempts=attempts), coef, hset)


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
def witness_targets(hset: HSet, failed: int, helpers: tuple[int, ...]) -> np.ndarray:
    """The maximal repair targets h', whose witnesses imply all the
    others, as a read-only array of row indices into hset.rows.

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
    member of hset.rows.  Those targets all total M, so they are
    pairwise incomparable: they are exactly the maximal targets.

    So every row gets its target by the closed form, all at once in
    numpy: each helper's rank by (h value, node index) counts the
    helpers before it, compared pairwise.  Each target row is then
    found by searchsorted on the rows read as n-byte strings, which sort
    as the rows do.  connect_run keeps h' in H, and h' totals M, so by
    Lemma A it is a maximal member; a target missing from hset.rows
    raises InternalContradiction, and a key that returns has certified
    that all its targets are maximal members.  Each distinct row is
    kept once, in the order of its first source in hset.rows; later
    calls with that key are lookups.
    """
    rows, d = hset.rows, len(helpers)
    columns = np.array(helpers) - 1
    # each helper's (h value, node index) as one number, as helpers ascend
    value = rows[:, columns].astype(np.intp) * d + np.arange(d)
    rank = (value[:, None, :] < value[:, :, None]).sum(axis=2)
    targets = rows.copy()
    targets[:, columns] += rank < rows[:, failed - 1, None]
    targets[:, failed - 1] = 0
    as_bytes = np.dtype((np.void, rows.shape[1]))
    members, wanted = rows.view(as_bytes).ravel(), targets.view(as_bytes).ravel()
    found = np.minimum(np.searchsorted(members, wanted), len(members) - 1)
    missing = np.flatnonzero(members[found] != wanted)
    if len(missing):
        i = missing[0]
        raise InternalContradiction(f"target {tuple(targets[i].tolist())} of "
                                    f"{tuple(rows[i].tolist())} is not a maximal member of H")
    firsts = np.unique(found, return_index=True)[1]
    out = found[np.sort(firsts)]
    out.setflags(write=False)
    return out


def witness_holds(state: CodeState, failed: int, helpers: Sequence[int], hset: HSet) -> bool:
    """True iff the repair witness holds for every h in hset:
    witness_holds_array on state's coefficient array, after its checks.

    Equal to all(witness_repair_check(state, failed, helpers, h, hset)
    for h in hset).  Helpers are validated first, so bad ones raise
    InvalidHelpers before the memo of witness_targets is consulted.
    Raises OutOfScope, as construct does, at a point where some repair
    can never pass (HSet.unrepairable): a target there can leave H.
    """
    _check_hset(state.params, hset)
    _check_repairable(hset)
    ordered = checked_helpers(state.params, failed, helpers)
    return witness_holds_array(_coefficients(state), state.field.q, hset, failed, ordered)


def witness_holds_array(coef: np.ndarray, q: int, hset: HSet, failed: int,
                        ordered: tuple[int, ...]) -> bool:
    """witness_holds for the code whose coefficient array over GF(q) is
    coef, with helpers as checked_helpers returns them, at a point
    _check_repairable accepts.

    Decided by one rank at each maximal target that witness_targets
    memoizes per key, so a key runs no connect_run and no membership
    test, cold or warm.  The targets' selections are gathered from coef
    by their rows of the _sweep_plan columns, as in invariant_failure,
    and each is ranked by rank_of_rows against M, the total of every
    maximal target.  The targets' blocks become Python lists RANK_CHUNK
    entries at a time, and the first rank below M stops the call before
    later chunks are built, so memory stays bounded at keys with 10^5
    targets.
    """
    columns = _sweep_plan(hset)[0][witness_targets(hset, failed, ordered)]
    m = hset.params.M
    step = max(1, RANK_CHUNK // (m * m))
    return all(rank_of_rows(rows, q) == m for start in range(0, len(columns), step)
               for rows in coef[:, columns[start:start + step]].transpose(1, 0, 2).tolist())


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
