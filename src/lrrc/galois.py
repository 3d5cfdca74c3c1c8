"""Exact dense linear algebra over prime fields GF(q).

Matrices are immutable, row-major, and store canonical residues in
[0, q).  There are two elimination routines:

- rank_of_rows, pure-Python fraction-free Gaussian elimination that
  swaps rows to echelon form with nonzero (not unit) pivots.  Over a
  field any nonzero pivot is exact, so no pivoting strategy beyond
  "first nonzero" is needed.  mat_solve and mat_inv (through
  mat_solve) run on it, and it is the reference the batched kernel is
  tested against.
- full_column_rank, which decides full column rank for a whole stack of
  equal-shape matrices at once, and first_rank_deficient, which gathers
  such stacks from the columns of one coefficient array in chunks of
  at most RANK_CHUNK entries and names the first matrix that fails.
  Both run one elimination loop, _eliminate, at every q, on an array
  with the batch as its last axis: int32 for q < 2^15, int64 for
  q < 2^31 and Python ints (dtype=object) above, whose products cannot
  wrap.
  No row moves there: a zero pivot is mended by adding a lower row
  with a nonzero entry to the pivot row, and each matrix's verdict is
  read once, at its last column.
  Each column's update writes the trailing block into a new contiguous
  array, so the loop always works on a compact block.  Each column
  after the first but the last starts with one in-place reduction of
  that block to residues in [0, q), as a - a // q * q, and the last
  column's verdict reads its entries mod q, so no update or reduction
  nears the dtype's limit L (2^31 or 2^63) while 2 * (q - 1) * q < L;
  Python ints have none.
- A split: the loop can stop after t columns and return the trailing
  block, reduced to residues.  first_rank_deficient uses that to
  eliminate a prefix of t columns shared by a run of rows once, then
  rank each row's (m - t) x (s - t) remainder in a second pass of the
  same loop; by the Schur step a row has full column rank exactly when
  its prefix has rank t and its remainder full column rank.  The two
  passes take s columns in all, as one unsplit pass does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "GaloisError",
    "NotPrime",
    "DimensionMismatch",
    "FieldMismatch",
    "NotSquare",
    "OutOfRange",
    "SingularMatrix",
    "FieldConfig",
    "FieldMatrix",
    "field_new",
    "is_prime",
    "next_prime",
    "mat_mul",
    "mat_inv",
    "mat_solve",
    "mat_transpose",
    "mat_hstack",
    "identity",
    "matrix_to_dict",
    "matrix_from_dict",
    "int_field",
    "rank_of_rows",
    "BATCH_Q_LIMIT",
    "residue_array",
    "RANK_CHUNK",
    "full_column_rank",
    "first_rank_deficient",
]


class GaloisError(Exception):
    """Base class for field and matrix errors."""


class NotPrime(GaloisError):
    """Requested field size is not prime."""

    def __init__(self, q: int) -> None:
        super().__init__(f"field size {q} is not prime")
        self.q = q


class DimensionMismatch(GaloisError):
    """Operands have incompatible shapes."""


class FieldMismatch(GaloisError):
    """Operands live over different fields."""


class NotSquare(GaloisError):
    """A square matrix was required."""


class OutOfRange(GaloisError):
    """Index, entry, or dimension outside the permitted range."""


class SingularMatrix(GaloisError):
    """No inverse or unique solution exists."""


# This witness set makes Miller-Rabin deterministic for all n < 3.3e24,
# far beyond any field size this package touches.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Smallest prime greater than or equal to n; cached, as simulate
    asks for the same one on every call."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class FieldConfig:
    """Prime field GF(q); elements are residues in [0, q)."""

    q: int


@lru_cache(maxsize=None, typed=True)
def field_new(q: int) -> FieldConfig:
    """Return a field context for prime q, rejecting composites.

    Cached per q, so each field's primality is tested once however many
    matrices name it; NotPrime is raised, never cached, so a composite
    q raises on every call."""
    if not is_prime(q):
        raise NotPrime(q)
    return FieldConfig(q)


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable rows x cols matrix over a prime field."""

    rows: int
    cols: int
    entries: tuple[int, ...]
    field: FieldConfig

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise OutOfRange(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        q = self.field.q
        if self.entries and (min(self.entries) < 0 or max(self.entries) >= q):
            bad = next(e for e in self.entries if e < 0 or e >= q)
            raise OutOfRange(f"entry {bad} is not a canonical residue mod {q}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], field: FieldConfig) -> "FieldMatrix":
        """Build from nested sequences, reducing every entry mod q."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        q = field.q
        return cls(nrows, ncols, tuple(int(e) % q for r in rows for e in r), field)

    def row(self, i: int) -> tuple[int, ...]:
        if not (0 <= i < self.rows):
            raise OutOfRange(f"row {i} outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols:(i + 1) * self.cols]


def identity(n: int, field: FieldConfig) -> FieldMatrix:
    entries = [0] * (n * n)
    for i in range(n):
        entries[i * n + i] = 1 % field.q
    return FieldMatrix(n, n, tuple(entries), field)


def _same_field(a: FieldMatrix, b: FieldMatrix) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"GF({a.field.q}) vs GF({b.field.q})")


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Exact matrix product over the common field."""
    _same_field(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    q = a.field.q
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [0] * (n * p)
    for i in range(n):
        arow = ae[i * m:(i + 1) * m]
        for j in range(p):
            acc = 0
            for k in range(m):
                acc += arow[k] * be[k * p + j]
            out[i * p + j] = acc % q
    return FieldMatrix(n, p, tuple(out), a.field)


def mat_transpose(a: FieldMatrix) -> FieldMatrix:
    entries = tuple(a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows))
    return FieldMatrix(a.cols, a.rows, entries, a.field)


def mat_hstack(mats: Sequence[FieldMatrix]) -> FieldMatrix:
    """Concatenate matrices left to right (same row count and field)."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    first = mats[0]
    for m in mats[1:]:
        _same_field(first, m)
        if m.rows != first.rows:
            raise DimensionMismatch("row counts differ")
    rows = first.rows
    out: list[int] = []
    for i in range(rows):
        for m in mats:
            out.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    total_cols = sum(m.cols for m in mats)
    return FieldMatrix(rows, total_cols, tuple(out), first.field)


def rank_of_rows(rows: list[list[int]], q: int) -> int:
    """Rank over GF(q) of a row-list matrix.  Mutates its argument.

    Entries must already be canonical residues and q must be prime.  The
    elimination is fraction-free, with _eliminate's update: with pivot p
    and the entry f below it, each lower row becomes
    (row * p - f * pivot_row) % q, so no modular inverse is taken and no
    pivot row is scaled; its entry in the pivot column becomes
    f * p - f * p = 0, written without being computed.  Every row stays
    a nonzero multiple of the row unit-pivot elimination would hold, so
    the swaps, the pivot columns and the rank are the same.  rows is
    left in echelon form with nonzero pivots and canonical residues.  It
    serves mat_solve (and so mat_inv and decode), the witness ranks of
    lrrc.code_core and the tests' reference; the verification sweeps run
    on full_column_rank and first_rank_deficient at every q.
    """
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rank = 0
    for col in range(n):
        pivot = -1
        for r in range(rank, m):
            if rows[r][col]:
                pivot = r
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, m):
            f = rows[r][col]
            if f:
                rrow = rows[r]
                rrow[col] = 0  # f * p - f * p
                for j in range(col + 1, n):
                    rrow[j] = (rrow[j] * p - f * prow[j]) % q
        rank += 1
        if rank == m:
            break
    return rank


# Below this modulus the kernel eliminates in int64: each column starts
# from residues in [0, q), so every value an update or the next
# reduction makes lies within q * (q - 1) of 0, and 2 * (q - 1) * q <
# 2 * q * q <= 2^63, so the elimination loop never overflows int64.
# At and above it the same loop runs on Python ints (dtype=object).
BATCH_Q_LIMIT = 2**31

# first_rank_deficient eliminates at most this many entries at once,
# RANK_CHUNK // (m * s) m x s matrices (at least one), 1 MiB of int64
# or half that of int32.  Its working set is that input chunk plus two
# compact blocks, the update's result and one of its products, each
# smaller than the chunk: under 3 MiB whatever m, s and the dtype are,
# so the loop's many passes stay near a core's cache.  With chunks of
# 4096 matrices, on a Xeon VM with 2 MiB of L2 per core, the compact
# int64 blocks were 10% (18 x 18) to 25% (12 x 12) slower than updates
# in place.  It stops after the chunk that holds the first failure.
RANK_CHUNK = 2**17


def _residue_dtype(q: int) -> type:
    """The narrowest dtype the kernel can eliminate GF(q) residues in.

    int32 below 2^15, where 2 * (q - 1) * q < 2^31, so an update of
    residues and its reduction are exact, as BATCH_Q_LIMIT gives for
    int64, and its products and divisions are cheaper; int64 below
    BATCH_Q_LIMIT; Python ints (object) above, where no product can
    wrap, and the same elimination loop runs, more slowly.  Every
    residue array and kernel stack is built in it, so this is the one
    place that picks it."""
    if q < 2**15:
        return np.int32
    return np.int64 if q < BATCH_Q_LIMIT else object


def residue_array(values: Sequence, q: int) -> np.ndarray:
    """Canonical residues mod q as a C-contiguous array to gather
    full_column_rank stacks from, in _residue_dtype(q): int32 or int64
    below BATCH_Q_LIMIT, and Python ints (dtype=object) above it, so any
    residue fits and no product overflows."""
    return np.array(values, dtype=_residue_dtype(q), order="C")


def _eliminate(a: np.ndarray, q: int, stop: int | None = None) -> np.ndarray:
    """Which matrices of an (m, s, B) stack, batch last, have full column
    rank s mod q; the elimination loop behind full_column_rank and
    first_rank_deficient.  It owns a and overwrites it.

    With stop <= m and stop < s it eliminates only the first stop
    columns and returns the trailing (m - stop) x (s - stop) x B block
    of the transformed rows stop..m-1, reduced to canonical residues.
    This is the Schur step first_rank_deficient ranks remainders by.
    Row operations keep rank, and they bring a matrix whose first stop
    columns have rank stop to [[U, X], [0, S]], with U upper triangular
    and its diagonal nonzero; that has rank stop + rank S, so it has
    full column rank exactly when S, its slice of the block, has.  A
    matrix whose first stop columns have lower rank lacks a pivot at
    some column, and there all its trailing rows zero out (see Pivots),
    so its slice of the block is zero.

    Entries must be canonical residues, in Python ints (dtype=object),
    which cannot wrap, or in a signed integer array whose limit
    L = 2^(bits - 1) exceeds 2 * (q - 1) * q, as _residue_dtype(q) and
    every wider dtype do; a narrower one could wrap, so OutOfRange is
    raised.  At every q the whole stack is eliminated together,
    fraction-free: each lower row becomes row * p - f * pivot_row, with
    pivot p and the row's own entry f below it, so no modular inverse
    is needed.

    Layout.  At column col, a is the trailing (m - col) x (s - col) x B
    block, C-contiguous with the batch as its last axis: row 0 is the
    pivot row and column 0 the pivot column.  The update writes
    a[1:, 1:] * p - f * a[0, 1:] into a new contiguous array, which is
    a for the next column.  So every operation runs on rows of B
    contiguous entries, and the reductions on one contiguous array.
    During an update a, the result and one product are alive.

    Pivots.  No row moves.  Where a[0, 0] is 0, the first row below it
    with a nonzero entry in column 0 is added to row 0, and the sum is
    reduced mod q; that is one row operation, so rank is kept, and the
    new pivot is nonzero.  A matrix with no such row gets row 0 added to
    itself; its p and every f are 0, so its trailing rows zero out and
    stay zero.  So a matrix has full column rank exactly when its last
    column has a nonzero entry mod q in some remaining row, and that is
    the one verdict read, at column s - 1, as (a[:, 0] % q).any(axis=0).

    Reductions.  Every column after the first, up to the last, starts
    with one reduction of the whole block, a - a // q * q, into [0, q),
    made in place (_reduce); the first column holds canonical residues
    already, the last is read mod q as above, and a stopped elimination
    reduces the block it returns the same way.  So each pivot step works
    on residues, an entry is zero exactly when it is 0 mod q, and
    nothing can wrap:
    - each product of an update is at most (q - 1)^2;
    - so is the magnitude of its difference, row * p - f * pivot_row;
    - the next reduction's a // q * q lies in (entry - q, entry], so it
      is at least -(q - 1)^2 - q + 1 = -q(q - 1).
    All three lie under L, since 2 * (q - 1) * q < L, and Python ints
    have no limit.  A pivot row added to row 0 holds residues at that
    point, so the sum is under 2q before its reduction.
    """
    m, s, count = a.shape
    stop = s if stop is None else stop
    limit = 2 ** (8 * a.dtype.itemsize - 1)
    if a.dtype != object and (a.dtype.kind != "i" or 2 * (q - 1) * q >= limit):
        raise OutOfRange(f"GF({q}) residues need {np.dtype(_residue_dtype(q))} or wider, "
                         f"got {a.dtype}")
    if stop > m:
        return np.zeros(count, dtype=bool)
    for col in range(stop):
        if col + 1 == s:
            return (a[:, 0] % q).any(axis=0)
        if col:  # the first column holds canonical residues already
            _reduce(a, q)
        diagonal = a[0, 0]
        if np.count_nonzero(diagonal) < count:
            lacking = np.flatnonzero(diagonal == 0)
            pivot = (a[:, 0, lacking] != 0).argmax(axis=0)
            a[0, :, lacking] = (a[0, :, lacking] + a[pivot, :, lacking]) % q
        update = a[1:, 1:] * diagonal
        update -= a[1:, 0, None] * a[0, 1:]
        a = update
    if stop == s:  # no columns
        return np.ones(count, dtype=bool)
    _reduce(a, q)
    return a


def _reduce(a: np.ndarray, q: int) -> None:
    """Reduce a to canonical residues mod q in place, as a - a // q * q:
    one quotient array, scaled and subtracted in place."""
    quotient = a // q
    quotient *= q
    a -= quotient


def full_column_rank(stack: np.ndarray, q: int) -> np.ndarray:
    """Which matrices of a (B, m, s) stack have full column rank s mod q.

    Entries must be canonical residues; build stacks for q >=
    BATCH_Q_LIMIT with residue_array, so that residues that do not fit
    int64 stay Python ints.  The stack is copied batch last, in
    _residue_dtype(q), and eliminated as _eliminate describes, reduced
    to residues once per column.  Returns a bool array of length B.
    """
    return _eliminate(np.array(stack.transpose(1, 2, 0), dtype=_residue_dtype(q), order="C"), q)


def first_rank_deficient(coef: np.ndarray, columns: np.ndarray, q: int,
                         prefixes: np.ndarray | None = None) -> int | None:
    """The first row of columns whose selection lacks full column rank
    mod q, or None when every selection has it.

    coef is an m x N residue_array.  Without prefixes, or with
    prefixes of no columns, columns is a (B, s) index array into coef's
    columns, and row i selects the m x s matrix coef[:, columns[i]].
    The rows are taken in member order,
    RANK_CHUNK // ((m - t) * (s - t)) at a time for a split at t
    columns (t = 0 without one), and the call returns at the first chunk
    that holds a failure.  The index it returns is the one a single call
    on all rows would give, with or without a split, and memory stays
    bounded however many rows there are.

    Without a split each chunk's selections are gathered straight into
    the batch-last layout that _eliminate works on.  A split at t
    columns, 0 < t <= m and t < s, takes prefixes, a (G, t) index array
    into coef's columns, one row per label g, and columns becomes a
    (B, s - t) array of entries g * N + c: row i has one label g_i,
    labels do not fall down the rows, and row i selects
    [coef[:, prefixes[g_i]] | coef[:, columns[i] - g_i * N]].  A chunk
    stacks [coef[:, prefixes[g]] | coef], m x (t + N), once for each
    label g from its first row's to its last row's, eliminates only the
    first t columns, and ranks each row's (m - t) x (s - t) remainder:
    the transformed rows t..m-1 of its label's stack at its other
    columns.  Row operations keep rank, so by _eliminate's Schur step a
    selection has full column rank exactly when its prefix has rank t
    and its remainder has full column rank.  A prefix of lower rank
    needs no verdict of its own: at the first column where a stack
    lacks a pivot, the kernel's pivot step leaves it p = f = 0, so its
    trailing rows zero out, and each remainder read from that stack is
    zero and fails.
    """
    m, width = coef.shape
    split = 0 if prefixes is None else prefixes.shape[1]
    s = split + columns.shape[1]
    if split and not (split <= m and split < s):
        raise OutOfRange(f"a split at {split} columns of {m} x {s} selections")
    step = max(1, RANK_CHUNK // max(1, (m - split) * (s - split)))
    for start in range(0, len(columns), step):
        chunk = columns[start:start + step]
        if split:
            first = int(chunk[0, 0]) // width
            count = int(chunk[-1, 0]) // width - first + 1
            stack = np.empty((m, split + width, count), dtype=coef.dtype)
            stack[:, :split] = np.take(coef, prefixes[first:first + count].T, axis=1)
            stack[:, split:] = coef[:, :, None]
            # label-major, so that column c of label first + g sits at g * N + c
            rest = _eliminate(stack, q, split).transpose(0, 2, 1).reshape(m - split, count * width)
            ok = _eliminate(np.take(rest, (chunk - first * width).T, axis=1), q)
        else:
            ok = _eliminate(np.take(coef, chunk.T, axis=1), q)
        if not ok.all():
            return start + int(np.argmin(ok))
    return None


def mat_solve(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix | None:
    """Solve a @ x = b exactly.

    Returns the unique solution when a has full column rank and the
    system is consistent, else None.  a may have more rows than
    columns.  rank_of_rows brings [a | b] to echelon form with nonzero
    pivots: a has full column rank exactly when the first a.cols rows
    pivot on the diagonal, and the system is consistent exactly when no
    further row survives.  Back-substitution then reads x off, from the
    last unknown up, dividing each row by its pivot as it goes: one
    modular inverse per unknown.
    """
    _same_field(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.rows} equation rows vs {b.rows} rhs rows")
    q = a.field.q
    n = a.cols
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    if rank_of_rows(aug, q) != n or not all(aug[i][i] for i in range(n)):
        return None
    x = [row[n:] for row in aug[:n]]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            f = aug[i][j]
            if f:
                x[i] = [(v - f * u) % q for v, u in zip(x[i], x[j])]
        inv = pow(aug[i][i], -1, q)
        x[i] = [v * inv % q for v in x[i]]
    return FieldMatrix.from_rows(x, a.field)


def mat_inv(a: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix; raises SingularMatrix when rank-deficient."""
    if a.rows != a.cols:
        raise NotSquare(f"{a.rows}x{a.cols}")
    inv = mat_solve(a, identity(a.rows, a.field))
    if inv is None:
        raise SingularMatrix(f"{a.rows}x{a.cols} matrix has no inverse")
    return inv


def matrix_to_dict(a: FieldMatrix) -> dict:
    """JSON form: {"rows": R, "cols": C, "q": Q, "entries": [row-major]}."""
    return {"rows": a.rows, "cols": a.cols, "q": a.field.q, "entries": list(a.entries)}


def int_field(value: object, name: str, error: type[Exception] = GaloisError) -> int:
    """A field read from a JSON document or the command line, as an int.

    Raises error naming the field when the value has a type int() does
    not take (a list, an object, null), when it is a bool, when it is a
    float with a fractional part (or inf or nan), and when it is a
    string int() cannot parse, so a malformed input is a usage error
    that names its field, not a TypeError, a bare ValueError or a
    silent truncation.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error(f"{name} must be an integer, got {json.dumps(value)}")
    try:
        return int(value)  # type: ignore[call-overload]
    except TypeError:
        raise error(f"{name} must be an integer, got {type(value).__name__}") from None
    except ValueError:
        raise error(f"{name} must be an integer, got {json.dumps(value)}") from None


def check_keys(d: dict, name: str, keys: Sequence[str], required: Sequence[str] | None = None,
               error: type[Exception] = GaloisError) -> None:
    """Check the keys of the JSON object d, called name in messages.

    keys are the keys its writer emits, and required (all of keys by
    default) those it must carry.  Raises error listing the required
    keys it lacks (all of them when d is not an object), else naming
    its first key that is not in keys.
    """
    missing = [key for key in (keys if required is None else required)
               if not isinstance(d, dict) or key not in d]
    if missing:
        raise error(f"{name} lacks {missing}")
    unknown = [key for key in d if key not in keys]
    if unknown:
        raise error(f"{name} has unknown key {unknown[0]!r}")


def matrix_from_dict(d: dict) -> FieldMatrix:
    """The matrix that matrix_to_dict wrote.  Its entries are read as
    written: one outside 0..q-1 raises OutOfRange, naming it and q,
    instead of being reduced into another matrix."""
    check_keys(d, "matrix", ("rows", "cols", "q", "entries"))
    if not isinstance(d["entries"], list):
        raise GaloisError(f"matrix entries must be a list, got {type(d['entries']).__name__}")
    field = field_new(int_field(d["q"], "matrix q"))
    entries = tuple(int_field(e, "matrix entry") for e in d["entries"])
    return FieldMatrix(int_field(d["rows"], "matrix rows"), int_field(d["cols"], "matrix cols"),
                       entries, field)
