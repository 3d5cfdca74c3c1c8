"""Exact dense linear algebra over prime fields GF(q).

Matrices are immutable, row-major, and store canonical residues in
[0, q).  There are two elimination routines:

- rank_of_rows, pure-Python Gaussian elimination with row swaps to
  echelon form with unit pivots.  Over a field any nonzero pivot is
  exact, so no pivoting strategy beyond "first nonzero" is needed.
  mat_rank, mat_solve and mat_inv (through mat_solve) all run on it,
  and it is the reference the batched kernel is tested against.
- full_column_rank, which decides full column rank for a whole stack of
  equal-shape matrices at once.  For q < 2^31 it eliminates in int64
  numpy arrays; above that it falls back to rank_of_rows per matrix.
  Its int64 entries are signed residues in (-q, q), and it reduces them
  only when exactness needs it: a Python int bound holds the largest
  |entry| its trailing block can reach, and the block is reduced only
  before an update whose result could reach 2^63 (bound * q + q * q).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    "mat_rank",
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
    "full_column_rank",
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


def next_prime(n: int) -> int:
    """Smallest prime greater than or equal to n."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class FieldConfig:
    """Prime field GF(q); elements are residues in [0, q)."""

    q: int


def field_new(q: int) -> FieldConfig:
    """Return a field context for prime q, rejecting composites."""
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
        for e in self.entries:
            if e < 0 or e >= q:
                raise OutOfRange(f"entry {e} is not a canonical residue mod {q}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], field: FieldConfig) -> "FieldMatrix":
        """Build from nested sequences, reducing every entry mod q."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        q = field.q
        return cls(nrows, ncols, tuple(int(e) % q for r in rows for e in r), field)

    def at(self, i: int, j: int) -> int:
        """Entry at 0-based position (i, j)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise OutOfRange(f"({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not (0 <= i < self.rows):
            raise OutOfRange(f"row {i} outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not (0 <= j < self.cols):
            raise OutOfRange(f"column {j} outside {self.rows}x{self.cols}")
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        """Mutable row-list copy, for elimination kernels."""
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


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

    Entries must already be canonical residues and q must be prime, so
    every nonzero pivot has an inverse.  This is the hot kernel behind
    every verification sweep, so it stays loop-only.
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
        inv = pow(prow[col], -1, q)
        for j in range(col, n):
            prow[j] = prow[j] * inv % q
        for r in range(rank + 1, m):
            f = rows[r][col]
            if f:
                rrow = rows[r]
                for j in range(col, n):
                    rrow[j] = (rrow[j] - f * prow[j]) % q
        rank += 1
        if rank == m:
            break
    return rank


def mat_rank(a: FieldMatrix) -> int:
    return rank_of_rows(a.to_rows(), a.field.q)


# Below this modulus a trailing block just reduced to signed residues
# (|entry| <= q - 1) always takes one more update inside int64:
# (q - 1) * q + q * q < 2 * q * q <= 2^63, so full_column_rank needs at
# most one reduction per column and never overflows.
BATCH_Q_LIMIT = 2**31


def residue_array(values: Sequence, q: int) -> np.ndarray:
    """Canonical residues mod q as an array to gather full_column_rank
    stacks from: int64 below BATCH_Q_LIMIT, where the kernel eliminates
    in numpy, and Python ints (dtype=object) above it, so any residue
    fits and no product overflows."""
    return np.array(values, dtype=np.int64 if q < BATCH_Q_LIMIT else object)


def full_column_rank(stack: np.ndarray, q: int) -> np.ndarray:
    """Which matrices of a (B, m, s) stack have full column rank s mod q.

    Entries must be canonical residues.  For q < BATCH_Q_LIMIT the whole
    stack is eliminated together in int64, fraction-free: each lower row
    becomes row * p - f * pivot_row, with pivot p and the row's own
    entry f below it, so no modular inverse is needed.  Larger q runs
    rank_of_rows on each matrix; build such stacks with residue_array, so
    that residues that do not fit int64 stay Python ints.  Returns a
    bool array of length B.

    Reductions are delayed.  Entries are signed residues: np.fmod keeps
    the sign of its argument, so a reduced entry lies in (-q, q) and is
    zero exactly when it is 0 mod q.  The invariant: the Python int
    bound is at least every |entry| of the trailing block.  Before each
    column's zero test only that column is reduced, then the pivot row
    once any swap has put it in place, so |p|, |f| and the pivot row's
    entries are at most q - 1 and an update leaves
    |row * p - f * pivot_row| <= bound * (q - 1) + (q - 1)^2, below
    bound * q + q * q.  The block is reduced (bound = q - 1) only when
    that sum would reach 2^63; otherwise every product and difference
    stays exact in int64.  Each update then raises bound to
    bound * q + q * q.  At q = 142151 a 7 x 7 stack is reduced twice,
    not after each of its six updates.
    """
    count, m, s = stack.shape
    if q >= BATCH_Q_LIMIT:
        return np.array(
            [rank_of_rows(mat.tolist(), q) == s for mat in stack], dtype=bool
        )
    if s > m:
        return np.zeros(count, dtype=bool)
    # (m, s, B): the batch is the contiguous axis, so every row
    # operation below is one long vector operation
    a = np.array(stack.transpose(1, 2, 0), dtype=np.int64, order="C")
    ok = np.ones(count, dtype=bool)
    bound = q - 1
    for col in range(s):
        column = a[col:, col]
        np.fmod(column, q, out=column)
        # with every diagonal entry nonzero, each matrix's pivot is its
        # diagonal row, so the diagonal alone is tested and no row moves
        if not column[0].all():
            # a matrix without a pivot here keeps p = f = 0, so its rows
            # just zero out; its verdict is already False
            nonzero = column != 0
            ok &= nonzero.any(axis=0)
            pivot = nonzero.argmax(axis=0) + col
            batch = np.arange(count)
            prow = a[pivot, :, batch].T.copy()
            a[pivot, :, batch] = a[col].T
            a[col] = prow
        if col + 1 == s:
            break
        prow = a[col, col + 1:]
        np.fmod(prow, q, out=prow)
        block = a[col + 1:, col + 1:]
        if bound * q + q * q >= 2**63:
            np.fmod(block, q, out=block)
            bound = q - 1
        bound = bound * q + q * q
        block *= a[col, col]
        block -= a[col + 1:, col, None] * prow
    return ok


def mat_solve(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix | None:
    """Solve a @ x = b exactly.

    Returns the unique solution when a has full column rank and the
    system is consistent, else None.  a may have more rows than
    columns.  rank_of_rows brings [a | b] to echelon form with unit
    pivots: a has full column rank exactly when the first a.cols rows
    pivot on the diagonal, and the system is consistent exactly when no
    further row survives.  Back-substitution then reads x off.
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
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error(f"{name} must be an integer, got {json.dumps(value)}")
    try:
        return int(value)  # type: ignore[call-overload]
    except TypeError:
        raise error(f"{name} must be an integer, got {type(value).__name__}") from None
    except ValueError:
        raise error(f"{name} must be an integer, got {json.dumps(value)}") from None


def reject_unknown_keys(d: dict, keys: Sequence[str], name: str,
                        error: type[Exception] = GaloisError) -> None:
    """Raise error naming the first key of the JSON object d that is not
    in keys, the keys its writer emits."""
    unknown = [key for key in d if key not in keys]
    if unknown:
        raise error(f"{name} has unknown key {unknown[0]!r}")


def matrix_from_dict(d: dict) -> FieldMatrix:
    keys = ("rows", "cols", "q", "entries")
    missing = [key for key in keys if not isinstance(d, dict) or key not in d]
    if missing:
        raise GaloisError(f"matrix lacks {missing}")
    reject_unknown_keys(d, keys, "matrix")
    if not isinstance(d["entries"], list):
        raise GaloisError(f"matrix entries must be a list, got {type(d['entries']).__name__}")
    field = field_new(int_field(d["q"], "matrix q"))
    entries = tuple(int_field(e, "matrix entry") % field.q for e in d["entries"])
    return FieldMatrix(int_field(d["rows"], "matrix rows"), int_field(d["cols"], "matrix cols"),
                       entries, field)
