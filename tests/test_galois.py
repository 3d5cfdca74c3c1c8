"""Field arithmetic against slow independent oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrrc import galois
from lrrc.galois import (
    BATCH_Q_LIMIT,
    RANK_CHUNK,
    DimensionMismatch,
    FieldMatrix,
    NotPrime,
    OutOfRange,
    SingularMatrix,
    field_new,
    first_rank_deficient,
    full_column_rank,
    int_field,
    is_prime,
    mat_hstack,
    mat_inv,
    mat_mul,
    mat_solve,
    mat_transpose,
    matrix_from_dict,
    matrix_to_dict,
    next_prime,
    rank_of_rows,
    residue_array,
)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def det_by_cofactors(rows: list[list[int]], q: int) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0] % q
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_by_cofactors(minor, q)
        total = (total - term if j % 2 else total + term) % q
    return total


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_large_pinned():
    assert is_prime(142151)
    assert not is_prime(142149)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 2
    assert next_prime(8) == 11
    assert next_prime(142130) == 142151
    for start in range(2, 500):
        p = next_prime(start)
        assert p >= start and trial_division(p)
        assert all(not trial_division(m) for m in range(start, p))


def test_field_new_rejects_composites():
    with pytest.raises(NotPrime):
        field_new(6)
    with pytest.raises(NotPrime):
        field_new(1)
    assert field_new(7).q == 7


def _m(field, rows):
    return FieldMatrix.from_rows(rows, field)


def _rows(a):
    return [list(a.row(i)) for i in range(a.rows)]


def _rank(a):
    return rank_of_rows(_rows(a), a.field.q)


def test_matrix_shape_and_access():
    f = field_new(7)
    a = _m(f, [[1, 2, 3], [4, 5, 6]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.row(0) == (1, 2, 3)
    assert a.row(1) == (4, 5, 6)
    with pytest.raises(OutOfRange):
        a.row(2)


def test_entries_reduced_mod_q():
    f = field_new(5)
    a = _m(f, [[7, -1], [10, 4]])
    assert _rows(a) == [[2, 4], [0, 4]]


def test_mat_mul_small():
    f = field_new(7)
    a = _m(f, [[1, 2], [3, 4]])
    b = _m(f, [[5, 6], [0, 1]])
    assert _rows(mat_mul(a, b)) == [[5, 1], [1, 1]]
    with pytest.raises(DimensionMismatch):
        mat_mul(a, _m(f, [[1, 2, 3]]))


def test_transpose_and_hstack():
    f = field_new(11)
    a = _m(f, [[1, 2, 3], [4, 5, 6]])
    assert _rows(mat_transpose(a)) == [[1, 4], [2, 5], [3, 6]]
    b = _m(f, [[7], [8]])
    assert _rows(mat_hstack([a, b])) == [[1, 2, 3, 7], [4, 5, 6, 8]]


def test_rank_pinned_cases():
    f = field_new(7)
    assert _rank(_m(f, [[1, 2], [2, 4]])) == 1
    assert _rank(_m(f, [[1, 2], [3, 4]])) == 2
    assert _rank(_m(f, [[0, 0], [0, 0]])) == 0
    # rank can drop mod q even when the integer matrix is regular
    assert _rank(_m(f, [[1, 1], [1, 8]])) == 1


def test_rank_of_rows_matches_mat_rank():
    # a tall matrix of rank 3 mod 13: the batched kernel and a nonzero
    # 3x3 cofactor determinant give the same rank as rank_of_rows
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]]
    assert rank_of_rows([r[:] for r in rows], 13) == 3
    assert full_column_rank(residue_array([rows], 13), 13).tolist() == [True]
    assert det_by_cofactors(rows[:3], 13) != 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_bounds_and_transpose_invariance(r, c, data):
    q = 11
    f = field_new(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
    a = FieldMatrix(r, c, tuple(entries), f)
    k = _rank(a)
    assert 0 <= k <= min(r, c)
    assert _rank(mat_transpose(a)) == k


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_full_rank_iff_cofactor_det_nonzero(n, data):
    q = 17
    f = field_new(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    a = FieldMatrix(n, n, tuple(entries), f)
    rows = [list(a.row(i)) for i in range(n)]
    assert (det_by_cofactors(rows, q) != 0) == (_rank(a) == n)


def _residues(rng: np.random.Generator, q: int, shape: tuple[int, ...]) -> np.ndarray:
    """Residues of three kinds, picked per entry: uniform, within 4 of
    q - 1, and 0 or 1.  Entries near q - 1 make the largest products,
    where the kernel's integers would wrap."""
    kinds = rng.integers(0, 3, size=shape)
    return np.choose(kinds, [rng.integers(0, q, size=shape),
                             q - 1 - rng.integers(0, min(4, q), size=shape),
                             rng.integers(0, 2, size=shape)])


@settings(max_examples=150, deadline=None)
@given(
    # small fields (2, 7, 13), int32 fields up to its last prime (7639,
    # 32749) and int64 fields from its first prime up to the last below
    # 2^31 (32771, 142151, 15556861, 2^31 - 1)
    st.sampled_from([2, 7, 13, 7639, 32749, 32771, 142151, 15556861, 2147483647]),
    st.integers(1, 9),
    st.integers(0, 3),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_full_column_rank_matches_rank_of_rows(q, s, extra_rows, count, seed):
    """Tall (extra_rows > 0) and square stacks against the pure kernel.

    The entries come from a Philox generator that hypothesis seeds, one
    draw per stack rather than one per entry.  Some matrices get a last
    column that is a combination of the others mod q; only exact
    modular arithmetic cancels it, so a kernel whose products wrap
    would call those matrices regular.
    """
    assert q < BATCH_Q_LIMIT
    m = s + extra_rows
    rng = np.random.Generator(np.random.Philox(seed))
    stack = _residues(rng, q, (count, m, s))
    for mat, planted in zip(stack, rng.integers(0, 2, size=count)):
        if s > 1 and planted:
            weights = _residues(rng, q, (s - 1,)).tolist()
            for row in mat:
                row[-1] = sum(w * int(e) for w, e in zip(weights, row[:-1])) % q
    want = [rank_of_rows(mat.tolist(), q) == s for mat in stack]
    assert full_column_rank(stack, q).tolist() == want


def test_full_column_rank_pinned_cases():
    q = 2147483647
    top = q - 1
    # [[-1, -1], [-1, 1]] has det -2, regular; [[-1, -1], [-1, -1]] is
    # not, and neither is [[-1, 1], [1, -1]], whose det (-1)(-1) - 1
    # vanishes only if (q - 1)^2 is computed without wrapping
    stack = np.array(
        [[[top, top], [top, 1]], [[top, top], [top, top]], [[top, 1], [1, top]]], dtype=np.int64
    )
    assert full_column_rank(stack, q).tolist() == [True, False, False]
    # more columns than rows can never have full column rank
    assert full_column_rank(np.ones((2, 1, 2), dtype=np.int64), 7).tolist() == [False, False]
    # the zero-column selection is trivially independent
    assert full_column_rank(np.zeros((1, 3, 0), dtype=np.int64), 7).tolist() == [True]


def _swap_skip_stack(q: int, m: int, s: int, col: int, swapped: str) -> np.ndarray:
    """Twelve m x s matrices over GF(q), upper triangular with a nonzero
    diagonal, so elimination finds every pivot on the diagonal until
    column col.  There rows col and col + 1 trade places in no, some or
    all of them (swapped = "none", "some", "all"), which leaves a zero
    diagonal entry.  Two "some" members lose rank instead: one has an
    all-zero column col, one a last column summing the others."""
    rng = np.random.Generator(np.random.Philox(q * 100 + m * 10 + col))
    stack = np.triu(rng.integers(0, q, size=(12, m, s)))
    for i in range(min(m, s)):
        stack[:, i, i] = rng.integers(1, q, size=12)
    trade = {"none": [], "some": [1, 4, 5, 9], "all": list(range(12))}[swapped]
    stack[trade, col], stack[trade, col + 1] = stack[trade, col + 1], stack[trade, col].copy()
    if swapped == "some":
        stack[2, :, col] = 0
        stack[7, :, -1] = stack[7, :, :-1].sum(axis=1) % q
    return stack


@pytest.mark.parametrize("q", [2, 3, 7639, 142151, 2147483647])
@pytest.mark.parametrize("swapped", ["none", "some", "all"])
@pytest.mark.parametrize("m,s,col", [(4, 4, 0), (4, 4, 2), (6, 4, 1), (5, 5, 3)])
def test_full_column_rank_with_and_without_pivot_swaps(q, swapped, m, s, col):
    """The kernel skips a column's pivot swap when every diagonal entry
    there is nonzero; the verdicts must match the pure kernel whether
    no, some or all matrices need the swap."""
    stack = _swap_skip_stack(q, m, s, col, swapped)
    want = [rank_of_rows(mat.tolist(), q) == s for mat in stack]
    assert full_column_rank(stack, q).tolist() == want
    if swapped == "some":
        assert not want[2] and not want[7] and sum(want) == 10
    else:
        assert all(want)


EDGE_QS = [2, 142151, 2147483647]


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("m,s", [(1, 1), (3, 3), (5, 2), (2, 3)])
def test_full_column_rank_of_an_empty_batch(q, m, s):
    """B = 0: every block of the elimination is empty, and the verdicts
    are rank_of_rows's, none at all."""
    stack = np.zeros((0, m, s), dtype=np.int64)
    assert full_column_rank(stack, q).tolist() == [rank_of_rows(mat.tolist(), q) == s
                                                   for mat in stack] == []
    coef = residue_array([[1] * 3] * m, q)
    assert first_rank_deficient(coef, np.zeros((0, s), dtype=np.intp), q) is None


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("m", [1, 2, 6])
def test_full_column_rank_of_single_columns(q, m):
    """s = 1: the first column is also the last, so no update runs.
    Every fourth column is zero and every fourth has a zero top entry,
    which needs a swap when some entry below it is nonzero."""
    rng = np.random.Generator(np.random.Philox(q + m))
    stack = _residues(rng, q, (40, m, 1))
    stack[::4] = 0
    stack[1::4, 0] = 0
    want = [rank_of_rows(mat.tolist(), q) == 1 for mat in stack]
    assert not any(want[::4])
    if m > 1:
        assert any(want[1::4])
    assert full_column_rank(stack, q).tolist() == want


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("m,s", [(5, 3), (9, 6)])
def test_full_column_rank_swaps_only_at_the_last_column_of_a_tall_stack(q, m, s):
    """Tall upper-triangular stacks whose rows s - 1 and s trade places
    in some members: every pivot up to the last column is on the
    diagonal, and the last column's pivot of those members is in row s,
    below the square part, which the block's last update brought up."""
    stack = _swap_skip_stack(q, m, s, s - 1, "some")
    want = [rank_of_rows(mat.tolist(), q) == s for mat in stack]
    assert not want[2] and not want[7] and sum(want) == 10
    assert full_column_rank(stack, q).tolist() == want


def _limit(q: int) -> int:
    """The overflow limit L of the kernel's dtype at q, 2^31 or 2^63."""
    return 2 ** (8 * np.dtype(galois._residue_dtype(q)).itemsize - 1)


# The column of the first pivot swap in the deep-swap stacks below, per
# EDGE_QS field: the stack is col + 3 by col + 2.
SWAP_COLUMN = {2: 15, 142151: 2, 2147483647: 1}


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("swapped", ["some", "all"])
def test_full_column_rank_swaps_right_after_a_delayed_reduction(q, swapped):
    """The first pivot swap falls at column col >= 1, which starts with
    a reduction of the whole block, so the swap moves rows that were
    just reduced, after col updates: 15 at q = 2, 2 at 142151 and 1 at
    2^31 - 1."""
    col = SWAP_COLUMN[q]
    stack = _swap_skip_stack(q, col + 3, col + 2, col, swapped)
    want = [rank_of_rows(mat.tolist(), q) == col + 2 for mat in stack]
    assert sum(want) == (10 if swapped == "some" else 12)
    assert full_column_rank(stack, q).tolist() == want


def _delayed_reduction_stack(q: int, m: int, s: int) -> np.ndarray:
    """Eight m x s matrices over GF(q) whose elimination meets the
    largest entries, the pivot swaps and the cancellations:
    0. every entry q - 1 (rank 1);
    1. q - 2 on the diagonal and q - 1 elsewhere, -(I + J) mod q;
    2. random;
    3. random with a last column that is a combination of the others;
    4. random with a zero diagonal, so each column may need a swap;
    5. the same with the planted last column;
    6, 7. matrices 1 and 2 with their rows reversed."""
    rng = np.random.Generator(np.random.Philox(q * 1000 + m * 10 + s))
    full = np.full((m, s), q - 1, dtype=np.int64)
    minus = full.copy()
    np.fill_diagonal(minus, q - 2)
    randoms = rng.integers(0, q, size=(3, m, s))
    np.fill_diagonal(randoms[2], 0)
    mats = [full, minus, randoms[0], randoms[1], randoms[2], randoms[2].copy(),
            minus[::-1], randoms[0][::-1]]
    weights = [int(w) for w in rng.integers(1, q, size=s - 1)]
    for planted in (mats[3], mats[5]):
        for row in planted:
            row[-1] = sum(w * int(e) for w, e in zip(weights, row[:-1])) % q
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("q", [2, 307, 32749, 142151, 78128951, 2147483647])
@pytest.mark.parametrize("m,s", [(9, 9), (12, 12), (12, 9)])
def test_full_column_rank_where_delayed_reductions_fall(q, m, s):
    """Against the pure kernel on 9 x 9, 12 x 12 and 12 x 9 stacks, whose
    every column after the first starts with a reduction of the whole
    block: in int32 at q = 2, 307 and 32749, the last prime below 2^15,
    and in int64 at 142151, 78128951 and 2^31 - 1."""
    stack = _delayed_reduction_stack(q, m, s)
    want = [rank_of_rows(mat.tolist(), q) == s for mat in stack]
    assert full_column_rank(stack, q).tolist() == want
    assert not want[0] and not want[3] and not want[5]
    if q > 2:
        assert want[2] and want[6]


def _planted_stack(q: int, seed: int, count: int = 400, size: int = 8,
                   extreme: bool = False) -> np.ndarray:
    """count random size x size matrices over GF(q), their entries within
    2 of 0 or of q - 1 when extreme; every other one has a last column
    that is a combination of the others, so its rank is size - 1."""
    rng = np.random.Generator(np.random.Philox(seed))
    stack = rng.integers(0, q, size=(count, size, size))
    if extreme:
        low = rng.integers(0, 3, size=stack.shape)
        stack = np.where(rng.random(stack.shape) < 0.5, low, q - 1 - low)
    for mat in stack[::2]:
        weights = [int(w) for w in rng.integers(1, q, size=size - 1)]
        for row in mat:
            row[-1] = sum(w * int(e) for w, e in zip(weights, row[:-1])) % q
    return stack


def test_full_column_rank_reduces_exactly_when_int64_needs_it():
    """At q = 2097143, the largest prime below 2^21, q^3 lies just below
    2^63, and two updates with no reduction between them reach about
    q^3 in magnitude: each column must start with its reduction.
    Random 8 x 8 matrices, every other one with a planted dependent
    last column, against the pure kernel; a kernel that skipped a
    column's reduction would misjudge some planted ones."""
    q = 2097143
    assert 2**63 <= 2 * q**3 < 2**64
    stack = _planted_stack(q, 21)
    want = [rank_of_rows(mat.tolist(), q) == 8 for mat in stack]
    assert not any(want[::2]) and all(want[1::2])
    assert full_column_rank(stack, q).tolist() == want


def _assert_extreme_planted_verdicts(q: int) -> None:
    """2000 planted 10 x 10 stacks with entries within 2 of 0 or of
    q - 1, where products of residues are largest, ranked by the kernel
    and by the pure one.  Every planted one is singular, and nearly
    every other one regular (997 of 1000 at q = 1031)."""
    stack = _planted_stack(q, 22, count=2000, size=10, extreme=True)
    want = [rank_of_rows(mat.tolist(), q) == 10 for mat in stack]
    assert not any(want[::2]) and sum(want[1::2]) >= 990
    assert full_column_rank(stack, q).tolist() == want


def test_full_column_rank_reduction_rule_is_tight():
    """A block of residues in [0, q) reaches at most (q - 1)^2 in one
    update and 2(q - 1)^3 in a second.  q = 1664543 is the first prime
    with 2(q - 1)^3 >= 2^63, so here one reduction per column is what
    keeps the int64 kernel exact: entries within 2 of 0 or of q - 1
    would push a kernel that skipped one past 2^63."""
    q = 1664543
    assert q == next_prime(1664512) and 2 * 1664510**3 < 2**63 <= 2 * 1664511**3
    assert galois._residue_dtype(q) is np.int64
    _assert_extreme_planted_verdicts(q)


def test_full_column_rank_int32_reduction_rule_is_tight():
    """The same in int32: q = 1031 is the first prime with 2(q - 1)^3 >=
    2^31, so two updates with no reduction between them could pass
    2^31."""
    q = 1031
    assert q == next_prime(1025) and 2 * 1023**3 < 2**31 <= 2 * 1024**3
    assert galois._residue_dtype(q) is np.int32
    _assert_extreme_planted_verdicts(q)


@pytest.mark.parametrize("q,dtype", [(32749, np.int32), (2**31 - 1, np.int64)])
def test_full_column_rank_at_the_last_prime_of_each_dtype(q, dtype):
    """The last prime each dtype takes, where an update's largest
    entry, (q - 1)^2, and its reduction's floor step, -q(q - 1), come
    closest to the limit L: 2(q - 1)q < L <= 2(q' - 1)q' at the next
    prime q'."""
    assert galois._residue_dtype(q) is dtype
    assert 2 * (q - 1) * q < _limit(q) <= 2 * (next_prime(q + 1) - 1) * next_prime(q + 1)
    _assert_extreme_planted_verdicts(q)


@pytest.mark.parametrize("q,dtype", [(2, np.int32), (32749, np.int32), (32771, np.int64),
                                     (2**31 - 1, np.int64), (next_prime(2**31), object)])
def test_residue_dtype_is_the_narrowest_that_holds_an_update(q, dtype):
    """int32 up to 32749, the last prime below 2^15, where 2(q - 1)q
    still lies below 2^31; int64 from 32771, the next prime, where it
    does not; Python ints from the first prime past 2^31."""
    assert is_prime(q)
    assert galois._residue_dtype(q) is dtype
    assert residue_array([[q - 1]], q).dtype == dtype
    if dtype is not object:
        assert 2 * (q - 1) * q < _limit(q)
    assert 2 * (32749 - 1) * 32749 < 2**31 <= 2 * (32771 - 1) * 32771
    assert next_prime(2**15) == 32771 and next_prime(32749 + 1) == 32771


def test_eliminate_refuses_an_array_narrower_than_its_field_needs():
    """A product of two residues at q >= 2^15 can pass 2^31, so the
    kernel refuses an int32 array there however small its entries are,
    and any array that is not signed integers.  An array wider than
    the field needs is eliminated in its own dtype."""
    q = 32771
    identity2 = [[[1], [0]], [[0], [1]]]
    for dtype in (np.int32, np.uint64, np.float64):
        with pytest.raises(OutOfRange, match=f"GF\\({q}\\) residues need int64"):
            galois._eliminate(np.array(identity2, dtype=dtype), q)
    with pytest.raises(OutOfRange):
        first_rank_deficient(np.eye(2, dtype=np.int32), np.array([[0, 1]]), q)
    assert galois._eliminate(np.array(identity2, dtype=np.int64), q).tolist() == [True]
    assert galois._eliminate(np.array(identity2, dtype=np.int64), 7).tolist() == [True]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m,s", [(6, 6), (8, 5)])
def test_full_column_rank_swaps_only_the_zero_diagonals(q, m, s):
    """Over GF(2) and GF(3) about 1/q of a column's diagonal entries are
    zero, and every third matrix starts with its whole diagonal zero, so
    nearly every column mixes matrices that need a pivot swap, some that
    find none, and matrices that need no swap."""
    rng = np.random.Generator(np.random.Philox(q * 100 + m * 10 + s))
    stack = rng.integers(0, q, size=(600, m, s))
    stack[::3, np.arange(s), np.arange(s)] = 0
    want = [rank_of_rows(mat.tolist(), q) == s for mat in stack]
    assert 0 < sum(want) < len(want)
    assert full_column_rank(stack, q).tolist() == want


@pytest.mark.parametrize("q", [7639, next_prime(BATCH_Q_LIMIT)])
def test_first_rank_deficient_ranks_chunks_up_to_the_first_failure(q, monkeypatch):
    """4 x 4 selections from a 4 x 6 array, three chunks' worth.  The
    first failing row is named wherever it lies, the chunks after its
    own are never ranked, and at most RANK_CHUNK // 16 rows, RANK_CHUNK
    entries, stay one call."""
    rng = np.random.Generator(np.random.Philox(q))
    coef = residue_array([[int(v) % q for v in row] for row in rng.integers(0, 2**62, (4, 6))], q)
    regular = [c for c in itertools.permutations(range(6), 4)
               if rank_of_rows(coef[:, c].tolist(), q) == 4]
    chunk = RANK_CHUNK // 16
    columns = np.array([regular[i % len(regular)] for i in range(3 * chunk)], dtype=np.intp)
    eliminate = galois._eliminate
    chunks = []

    def recording(a, q):
        chunks.append(a.shape[-1])
        return eliminate(a, q)

    monkeypatch.setattr(galois, "_eliminate", recording)
    assert first_rank_deficient(coef, columns, q) is None
    assert chunks == [chunk] * 3
    chunks.clear()
    assert first_rank_deficient(coef, columns[:chunk], q) is None
    assert chunks == [chunk]
    for bad in (0, chunk - 1, chunk, chunk + 904, 3 * chunk - 1):
        chunks.clear()
        broken = columns.copy()
        broken[bad] = (0, 0, 1, 2)
        broken[bad + 1:] = (1, 1, 2, 3)
        assert first_rank_deficient(coef, broken, q) == bad
        assert chunks == [chunk] * (bad // chunk + 1)


def test_full_column_rank_falls_back_above_limit():
    q = next_prime(BATCH_Q_LIMIT)
    top = q - 1
    stack = np.array(
        [[[top, top], [top, 1], [0, 0]], [[top, 1], [top, 1], [1, 1]], [[top, top], [1, 1], [0, 0]]],
        dtype=object,
    )
    want = [rank_of_rows(mat.tolist(), q) == 2 for mat in stack]
    assert want == [True, True, False]
    assert full_column_rank(stack, q).tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_inverse_round_trip(n, data):
    q = 13
    f = field_new(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    a = FieldMatrix(n, n, tuple(entries), f)
    if _rank(a) < n:
        with pytest.raises(SingularMatrix):
            mat_inv(a)
    else:
        eye = mat_mul(a, mat_inv(a))
        assert _rows(eye) == [
            [1 if i == j else 0 for j in range(n)] for i in range(n)
        ]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 13]), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 3), st.data())
def test_solve_verdict_matches_ranks(q, m, n, w, data):
    f = field_new(q)
    # mostly zeros and ones, so singular and inconsistent systems are common
    entry = st.sampled_from([0, 0, 1, q - 1]) | st.integers(0, q - 1)
    a = FieldMatrix(m, n, tuple(data.draw(st.lists(entry, min_size=m * n, max_size=m * n))), f)
    b = FieldMatrix(m, w, tuple(data.draw(st.lists(entry, min_size=m * w, max_size=m * w))), f)
    x = mat_solve(a, b)
    rank_a = _rank(a)
    if rank_a < n or _rank(mat_hstack([a, b])) > rank_a:
        assert x is None
    else:
        assert x is not None and mat_mul(a, x) == b


def test_solve_consistent_and_inconsistent():
    f = field_new(7)
    a = _m(f, [[1, 2], [3, 4]])
    b = _m(f, [[5], [6]])
    x = mat_solve(a, b)
    assert x is not None and mat_mul(a, x) == b
    # singular, inconsistent right side
    a2 = _m(f, [[1, 2], [2, 4]])
    assert mat_solve(a2, _m(f, [[1], [3]])) is None
    # rank-deficient left side gives no unique answer
    assert mat_solve(a2, _m(f, [[1], [2]])) is None


def test_solve_tall_system():
    f = field_new(11)
    a = _m(f, [[1, 0], [0, 1], [1, 1]])
    b = _m(f, [[3], [4], [7]])
    x = mat_solve(a, b)
    assert x is not None and _rows(x) == [[3], [4]]
    assert mat_solve(a, _m(f, [[3], [4], [8]])) is None


def test_int_field_refuses_fractions_and_bools():
    assert [int_field(v, "x") for v in (7, 7.0, "7", " -3 ")] == [7, 7, 7, -3]
    for value, shown in ((3.9, "3.9"), (True, "true"), (float("inf"), "Infinity"),
                         (float("nan"), "NaN")):
        with pytest.raises(OutOfRange, match=f"^x must be an integer, got {shown}$"):
            int_field(value, "x", OutOfRange)


def test_serialization_round_trip():
    f = field_new(101)
    a = _m(f, [[1, 2, 3], [4, 5, 6]])
    d = matrix_to_dict(a)
    assert d == {"rows": 2, "cols": 3, "q": 101, "entries": [1, 2, 3, 4, 5, 6]}
    assert matrix_from_dict(d) == a


@pytest.mark.parametrize("entry", [-1, 101, 7639])
def test_matrix_from_dict_refuses_entries_outside_the_field(entry):
    # a stored matrix is read as written, never reduced into another one
    d = {"rows": 2, "cols": 2, "q": 101, "entries": [1, entry, 3, 4]}
    with pytest.raises(OutOfRange, match=f"^entry {entry} is not a canonical residue mod 101$"):
        matrix_from_dict(d)
    assert matrix_from_dict({**d, "entries": [1, 100, 3, 0]}).entries == (1, 100, 3, 0)


def test_all_two_by_two_ranks_over_gf2():
    f = field_new(2)
    for entries in itertools.product((0, 1), repeat=4):
        a = FieldMatrix(2, 2, entries, f)
        regular = det_by_cofactors([list(entries[:2]), list(entries[2:])], 2) != 0
        expect = 2 if regular else (1 if any(entries) else 0)
        assert _rank(a) == expect
