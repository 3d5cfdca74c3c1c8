"""Families, permutation scores, and the admissible selection set H.

Storage nodes 1..n are split into consecutive families of size
f = n - d - r (nodes 1..f, f+1..2f, and so on): node i lies in family
(i - 1) // f, counted from 0, and every family test in this package
computes that rule inline.  A newcomer replacing node i may download
only from nodes outside i's own family, so the helper universe of every
node has exactly d + r members.

A collector reading nodes in order pi gains information at a rate
described by the score vector b(pi): position i contributes
(d - z_i)+ packets, where z_i counts earlier nodes lying outside the
family of pi(i).  The supported file size M is the worst k-prefix total
of b over all n! orders.  The capped score c(pi) truncates b(pi) so it
totals exactly M.

M has a closed form.  With F = n / f families, M is the sum over
positions i = 0..k-1 (0-based) of (d - i + floor(i / F))+, the total of
the round-robin order that takes one node from each family in turn.
Write p_i for the number of earlier nodes from the family of the node
at position i, so that z_i = i - p_i and position i scores
phi(p_i - i) with phi(x) = (d + x)+, convex and nondecreasing.
  - In any order at most jF positions have p < j (each family has at
    most j of them), so the p values of the first k positions, sorted
    ascending as p*_i, satisfy p*_i >= floor(i / F).
  - Pairing the p values with the positions in sorted order can only
    lower a sum of phi(p - i), phi being convex, and lowering each p*_i
    to floor(i / F) lowers it further, phi being nondecreasing.
  - Round-robin attains p_i = floor(i / F) at every i < k, because each
    family has f = n / F >= ceil(k / F) nodes.

H is the set of integer vectors h with 0 <= h_i <= d such that some
order pi sorting h nonincreasingly has a capped score c = c(pi) that
covers h position by position: c_1 + ... + c_m >= h_pi(1) + ... +
h_pi(m) for every m.  With family size 2, c is nonincreasing and this
is weak majorization of h by c.  With larger families c need not be
monotone, and sorting c before comparing would admit vectors no code
can serve.  Members of H index every rank condition a code has to
satisfy, so the whole verification story in this package runs through
this module.  It is combinatorics only: which columns of a code's
coefficients a member selects, and how they are gathered, is
lrrc.code_core's alone.

The cap never decides membership.  Each c-prefix is min(b-prefix, M),
and every h-prefix is at most sum(h); so when sum(h) <= M, c covers an
h-prefix exactly when b does, and when sum(h) > M no order covers h.
is_witness is therefore this definition applied to one order, on raw
scores; h_membership searches sorting orders the same way, memoized on
placed counts per family, and connect certifies each step of its
procedure with is_witness.

Lemma A: every h in H with sum(h) < M has some h + e_x in H, so H's
maximal members (no h + e_x in H) are exactly its members of total M.
  - Take an order pi sorting h whose raw score b covers h (the cap
    lemma above), and let s_m = (b-prefix - h-prefix)_m >= 0 after m
    positions, s_0 = 0.  Then s_n > 0: every order's full total is at
    least M > sum(h).
  - Let L < n be the last position with s_L = 0 and x = pi(L + 1).
    Then b_{L+1} = s_{L+1} + h_x >= h_x + 1, so h_x < d.
  - Raise h_x by one and move x to the first position g of its tie
    group; the new order sorts h + e_x, and only positions g..L+1
    change their scores.  Node x, now at g, has one outsider fewer
    before it for each shifted node outside its family, and
    b_{L+1} > 0, so it gains exactly that many.  Each shifted node
    now has x before it and loses at most one, only if it lies outside
    x's family.
  - x's gain covers every shifted node's loss.  So for m in [g, L]
    the new b-prefix is at least b-prefix_{m-1} + b_{L+1} >=
    h-prefix_{m-1} + h_x + 1, the new h-prefix at m; from L + 1 on the
    b-prefixes do not fall, while the h-prefixes rise by one where
    s >= 1.  So the new order covers h + e_x, whose total is still at
    most M, and h + e_x lies in H.
A member of total M is maximal because every h + e_x totals M + 1.

Symmetry lemma: H is invariant under S_f wr S_F, the group that permutes
nodes inside a family and permutes whole families.  Such a sigma maps
families onto families, so an order pi and the order sigma(pi) have the
same family-id sequence up to renaming families.  Scores count earlier
nodes outside a node's family, which renaming does not change, so
sigma(pi) has pi's scores; and sigma(pi) sorts h o sigma^-1 and covers it
exactly when pi sorts and covers h.
  - Each orbit has one canonical representative: every family block
    nonincreasing, and the blocks in nonincreasing lexicographic order.
    A block is one of the C(d + f, f) nonincreasing f-tuples over
    0..d, and a representative is a multiset of F of them, so there
    are C(C(d + f, f) + F - 1, F) canonical candidates.
  - The orbit of a representative with blocks B_1..B_F has
    F! / prod(equal-block multiplicities)! family arrangements, times,
    for each block, f! / prod(equal-value multiplicities)! orderings
    inside the family.
h_enumerate therefore decides membership on the canonical candidates of
total at most M alone, sums their orbit sizes into |H|, and expands
only the orbits of total M, which Lemma A says are the maximal members.
It decides a bounded int8 chunk of candidates at a time in numpy, by
is_witness on each one's canonical order (h descending, ties by
ascending node index), and runs h_membership's search only on the
candidates that order leaves uncovered, starting from the orders it
has already sorted.  It holds the maximal members as one (N, n) int8
array in lexicographic order, the member order, built in numpy from
per-pattern arrangement tables and sorted once; a member becomes a
tuple only where an h is named.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .galois import RANK_CHUNK, check_keys, int_field

H_ENUMERATION_LIMIT = 10_000_000
"""Cap on what h_enumerate visits and lists, each checked before the
work starts; TooLarge reports the first count over it.
  - The canonical candidates, C(C(d + f, f) + F - 1, F), one per orbit
    of 0..d vectors under the family symmetry of the module docstring:
    closed-form, so checked before any candidate is visited.
  - The maximal members, summed from orbit sizes after the membership
    pass and before their orbits are expanded.
  - |H|, before HSet.members (and so witnesses) is listed on first use."""


class ModelError(Exception):
    """Base class for parameter and score errors."""


class OutOfScope(ModelError):
    """Parameters violate the supported regime."""


class LengthMismatch(ModelError):
    """Vectors of different lengths were compared."""


class TooLarge(ModelError):
    """Enumeration would exceed the candidate budget."""


class PreconditionViolated(ModelError):
    """A caller-side precondition does not hold."""


class HNotMember(ModelError):
    """A selection vector was expected to belong to H but does not."""


class InvalidHelpers(ModelError, ValueError):
    """Helper set is not d distinct nodes from the failed node's universe."""


@dataclass(frozen=True)
class Params:
    """Code parameters at the minimum-bandwidth point.

    n nodes, any k of which recover the file; repairs contact d helpers
    and tolerate r unavailable candidates.  Derived: file size M in
    packets, per-node storage alpha = d, per-helper transfer beta = 1.
    """

    n: int
    k: int
    d: int
    r: int
    M: int
    alpha: int
    beta: int

    @property
    def family_size(self) -> int:
        return self.n - self.d - self.r

    @property
    def num_families(self) -> int:
        return self.n // self.family_size


class MembershipResult(NamedTuple):
    member: bool
    witness: "Perm | None"


@dataclass(frozen=True)
class Perm:
    """A permutation of nodes 1..n; order[i-1] is the node at position i."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise PreconditionViolated(f"{self.order} is not a permutation of 1..{n}")

    @cached_property
    def pos(self) -> dict[int, int]:
        """Inverse map: pos[node] is the 1-based position of node."""
        return {node: i + 1 for i, node in enumerate(self.order)}


@dataclass(frozen=True)
class ScoreVector:
    """Raw and capped scores of one node order."""

    b: tuple[int, ...]
    c: tuple[int, ...]


def params_new(n: int, k: int, d: int, r: int) -> Params:
    """Validate (n, k, d, r) and derive M, alpha, beta.

    Scope: family size f = n - d - r at least 2 and dividing n.  M is
    the round-robin closed form of the module docstring.
    """
    for name, v in (("n", n), ("k", k), ("d", d), ("r", r)):
        if not isinstance(v, int):
            raise OutOfScope(f"{name} must be an integer, got {v!r}")
    if not (1 <= k <= n):
        raise OutOfScope(f"need 1 <= k <= n, got k={k}, n={n}")
    if d < 1:
        raise OutOfScope(f"need d >= 1, got d={d}")
    if r < 0:
        raise OutOfScope(f"need r >= 0, got r={r}")
    f = n - d - r
    if f < 2:
        raise OutOfScope(f"family size n-d-r = {f} is below 2")
    if n % f != 0:
        raise OutOfScope(f"family size {f} does not divide n = {n}")
    M = _round_robin_total(k, d, n // f)
    assert M >= d, "the first reader position always contributes d packets"
    return Params(n=n, k=k, d=d, r=r, M=M, alpha=d, beta=1)


@lru_cache(maxsize=None)
def helper_universe(params: Params, node: int) -> frozenset[int]:
    """All nodes outside node's family; exactly d + r of them.  Cached:
    a repair event reads it twice."""
    if not (1 <= node <= params.n):
        raise OutOfScope(f"node {node} outside 1..{params.n}")
    f = params.family_size
    return frozenset(i for i in range(1, params.n + 1) if (i - 1) // f != (node - 1) // f)


def checked_helpers(params: Params, failed: int, helpers: Sequence[int]) -> tuple[int, ...]:
    """The helpers in ascending order, once they are d distinct nodes of
    the failed node's helper universe; raises InvalidHelpers otherwise."""
    if not (1 <= failed <= params.n):
        raise InvalidHelpers(f"failed node {failed} outside 1..{params.n}")
    ordered = tuple(sorted(helpers))
    if len(set(ordered)) != len(ordered):
        raise InvalidHelpers(f"duplicate helpers in {tuple(helpers)}")
    if len(ordered) != params.d:
        raise InvalidHelpers(f"need exactly d = {params.d} helpers, got {len(ordered)}")
    universe = helper_universe(params, failed)
    stray = [x for x in ordered if x not in universe]
    if stray:
        raise InvalidHelpers(
            f"helpers {stray} are not eligible for node {failed} (universe {sorted(universe)})"
        )
    return ordered


def _prefix_scores(family_seq: Sequence[int], d: int, upto: int) -> list[int]:
    """b values for the first `upto` positions of a family-id sequence."""
    seen: dict[int, int] = {}
    out = []
    for i in range(upto):
        g = family_seq[i]
        same = seen.get(g, 0)
        z = i - same
        out.append(d - z if z < d else 0)
        seen[g] = same + 1
    return out


def _round_robin_total(k: int, d: int, families: int) -> int:
    """M: the k-prefix score total of the round-robin order, which the
    module docstring shows is the worst over all node orders."""
    return sum(max(d - i + i // families, 0) for i in range(k))


def _truncate(b: Sequence[int], m_target: int) -> tuple[int, ...]:
    c = []
    running = 0
    for value in b:
        if running >= m_target:
            c.append(0)
            continue
        take = min(value, m_target - running)
        c.append(take)
        running += take
    assert running == m_target, "every order's full score total reaches M"
    return tuple(c)


def score_vectors(params: Params, perm: Perm) -> ScoreVector:
    """Raw score b and capped score c of one node order."""
    if len(perm.order) != params.n:
        raise LengthMismatch(f"order over {len(perm.order)} nodes, params say {params.n}")
    seq = [(node - 1) // params.family_size for node in perm.order]
    b = _prefix_scores(seq, params.d, params.n)
    return ScoreVector(b=tuple(b), c=_truncate(b, params.M))


def majorizes(a: Sequence[int], b: Sequence[int]) -> bool:
    """Weak majorization: every m-largest prefix of a covers b's."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} vs {len(b)}")
    sum_a = 0
    sum_b = 0
    for x, y in zip(sorted(a, reverse=True), sorted(b, reverse=True)):
        sum_a += x
        sum_b += y
        if sum_a < sum_b:
            return False
    return True


def is_witness(params: Params, h: Sequence[int], order: Sequence[int]) -> bool:
    """Whether order, a permutation of nodes 1..n, proves h in H: h's
    entries lie in 0..d and total at most M, order sorts h
    nonincreasingly, and the raw score of order covers h at every
    position prefix, which by the cap lemma above is the capped score's
    coverage."""
    if len(h) != params.n:
        raise LengthMismatch(f"h over {len(h)} nodes, params say {params.n}")
    if sum(h) > params.M or min(h) < 0 or max(h) > params.d:
        return False
    d, f = params.d, params.family_size
    placed = [0] * params.num_families
    slack = 0
    previous = d
    for i, node in enumerate(order):
        value = h[node - 1]
        g = (node - 1) // f
        z = i - placed[g]
        slack += (d - z if z < d else 0) - value
        if slack < 0 or value > previous:
            return False
        previous = value
        placed[g] += 1
    return True


def h_membership(params: Params, h: Sequence[int]) -> MembershipResult:
    """Decide h in H, returning a witness order when it is.

    Past the 0..d and sum(h) <= M checks, the lemma above lets a
    depth-first search on raw scores decide: it places h's value groups
    largest first, a node at position i whose family has p earlier nodes
    scoring (d - (i - p))+, and keeps slack = b-prefix - h-prefix >= 0.
    Inside a group, families with equal placed and left-in-group counts
    are interchangeable (every placed count is fixed at the group's
    end), so one node per such state is tried, lowest index first;
    failed (placed counts, slack) states are remembered.  The witness is
    the lexicographically least covering order; with family size 2 it is
    the canonical one (h descending, ties by ascending node index).

    The search's first descent is the canonical order itself: each group
    tries its lowest-index node first, and nothing has failed yet.  So
    is_witness runs first on that order, a single pass without the group
    and family-state bookkeeping, and when it holds, the order is the
    witness the search would return.  h_enumerate runs the same pass on
    whole chunks of candidates (_canonical_covers) and hands the vectors
    it leaves uncovered, with their canonical orders, straight to the
    search, _membership_search.  At the 98 scope points of the tests'
    reference sweep, which calls this on all (d + 1)^n vectors,
    the pass alone answers all 126,015 members among the 138,071
    vectors of total at most M, so it keeps that sweep from lengthening
    the suite.
    """
    if len(h) != params.n:
        raise LengthMismatch(f"h over {len(h)} nodes, params say {params.n}")
    canonical = sorted(range(1, params.n + 1), key=lambda node: (-h[node - 1], node))
    if is_witness(params, h, canonical):
        return MembershipResult(True, Perm(tuple(canonical)))
    if sum(h) > params.M or min(h) < 0 or max(h) > params.d:
        return MembershipResult(False, None)
    return _membership_search(params, h, canonical)


def _membership_search(params: Params, h: Sequence[int],
                       canonical: Sequence[int]) -> MembershipResult:
    """h_membership's depth-first search past its first pass.

    h has entries in 0..d totalling at most M, and canonical is its
    canonical order, nodes 1..n sorted by (-h, node index), which the
    search descends first; so a caller that has already found that the
    order does not cover h sorts nothing again."""
    n, d, f = params.n, params.d, params.family_size
    placed = [0] * params.num_families
    order: list[int] = []
    failed: set[tuple[tuple[int, ...], int]] = set()

    def extend(group: list[int], slack: int) -> bool:
        i = len(order)
        if not group:
            # zeros cannot lower the slack, so they close in index order
            if i == n or h[canonical[i] - 1] == 0:
                order.extend(canonical[i:])
                return True
            group = [x for x in canonical[i:] if h[x - 1] == h[canonical[i] - 1]]
        if failed and (tuple(placed), slack) in failed:
            return False
        tried = set()
        for node in group:
            g = (node - 1) // f
            z = i - placed[g]
            gain = (d - z if z < d else 0) - h[node - 1]
            family_state = (placed[g], sum((x - 1) // f == g for x in group)) if group[1:] else None
            if slack + gain < 0 or family_state in tried:
                continue
            tried.add(family_state)
            order.append(node)
            placed[g] += 1
            if extend([x for x in group if x != node], slack + gain):
                return True
            order.pop()
            placed[g] -= 1
        failed.add((tuple(placed), slack))
        return False

    found = extend([], 0)
    return MembershipResult(found, Perm(tuple(order)) if found else None)


def _canonical_covers(params: Params, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """is_witness on the canonical order of each row of rows, a (B, n)
    array of vectors with entries in 0..d totalling at most M: a True
    row is in H with that order as h_membership's witness.  Returns the
    verdicts and the (B, n) canonical orders, as 0-based node indices.

    A stable argsort of -h orders each row by (-h, node index), and a
    sort of -h gives the values along that order, negated.  The earlier
    nodes of each position's family are counted pairwise, in a (B, n, n)
    block, and the raw scores (d - outsiders)+ must keep every slack
    prefix >= 0.

    A False row may still be a member: at (10,9,5,0), h =
    (5,2,0,0,0,4,4,4,4,2) is in H with witness (1,6,7,8,9,10,2,3,4,5),
    which only h_membership's search finds, and the 310 points with
    n <= 12, family size at least 3 and at most 200,000 canonical
    candidates hold 6 such candidates.  At the 238 points with n <= 10
    and at most 20,000 canonical candidates, this certifies every one
    of the 51,437 members among the 55,701 candidates of total at most
    M, and all 4,264 it leaves are non-members."""
    n, negated = params.n, -rows
    order = np.argsort(negated, axis=1, kind="stable")
    family = order // params.family_size
    placed = ((family[:, :, None] == family[:, None, :]) & np.tri(n, k=-1, dtype=bool)).sum(axis=2)
    gains = np.maximum(params.d - np.arange(n) + placed, 0) + np.sort(negated, axis=1)
    return (np.cumsum(gains, axis=1) >= 0).all(axis=1), order


def _orbit_representative(h: Sequence[int], f: int) -> tuple[int, ...]:
    """The canonical representative of h's orbit: every family block
    sorted nonincreasingly, then the blocks in nonincreasing order."""
    blocks = [sorted(h[i:i + f], reverse=True) for i in range(0, len(h), f)]
    blocks.sort(reverse=True)
    return tuple(itertools.chain.from_iterable(blocks))


def _canonical_candidates(params: Params) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every canonical candidate of total at most M, with its orbit size:
    F blocks, each a nonincreasing f-tuple over 0..d, chosen in
    nonincreasing order.

    The size is the module docstring's count, carried along as blocks
    are chosen.  Choosing the j-th block, the r-th of a run of equal
    ones, multiplies the family arrangements of the first j - 1 blocks
    by j / r, exactly, and the orderings inside families by the
    block's own."""
    blocks = list(itertools.combinations_with_replacement(range(params.d, -1, -1), params.family_size))
    totals = [sum(block) for block in blocks]
    orderings = [_orderings(block) for block in blocks]
    families = params.num_families

    def extend(last: int, placed: int, run: int, size: int, budget: int
               ) -> Iterator[tuple[tuple[int, ...], int]]:
        for i in range(max(last, 0), len(blocks)):
            if totals[i] <= budget:
                r = run + 1 if i == last else 1
                grown = size * (placed + 1) // r * orderings[i]
                if placed + 1 == families:
                    yield blocks[i], grown
                else:
                    for rest, total in extend(i, placed + 1, r, grown, budget - totals[i]):
                        yield blocks[i] + rest, total

    return extend(-1, 0, 0, 1, params.M)


def _orderings(items: Sequence) -> int:
    """How many distinct orderings a multiset has."""
    count = math.factorial(len(items))
    for multiplicity in Counter(items).values():
        count //= math.factorial(multiplicity)
    return count


def _runs(items: Sequence) -> tuple[tuple, tuple[int, ...]]:
    """The distinct items of a sequence whose equal items are adjacent,
    in order, and how often each occurs."""
    groups = [(item, len(list(group))) for item, group in itertools.groupby(items)]
    return tuple(item for item, _ in groups), tuple(count for _, count in groups)


@lru_cache(maxsize=None)
def _arrangements(multiplicities: tuple[int, ...]) -> np.ndarray:
    """The distinct orderings of a multiset whose item i occurs
    multiplicities[i] times, each once, as a read-only (orderings, total)
    array of item indices.  Item i fills, in each ordering of items
    0..i-1, the positions left over by each choice of positions that
    keep those items in their order."""
    table = np.zeros((1, multiplicities[0]), np.intp)
    for item, multiplicity in enumerate(multiplicities[1:], 1):
        kept = table.shape[1]
        keep = np.array(list(itertools.combinations(range(kept + multiplicity), kept)), np.intp)
        grown = np.full((len(keep), len(table), kept + multiplicity), item, np.intp)
        grown[np.arange(len(keep))[:, None, None], np.arange(len(table))[:, None], keep[:, None]] = table
        table = grown.reshape(-1, kept + multiplicity)
    table.setflags(write=False)
    return table


def _family_blocks(h: Sequence[int], f: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(h[i:i + f]) for i in range(0, len(h), f))


def _orbits(params: Params, representatives: Iterable[Sequence[int]]) -> np.ndarray:
    """Every vector in the orbits of representatives, each once, as a
    read-only C-contiguous (N, n) int8 array in lexicographic order.

    A representative's distinct blocks go onto the F families in each
    distinct arrangement, read from one _arrangements table per pattern
    of block multiplicities.  Each such placement then expands to every
    choice of ordering inside each family: a mixed-radix count over the
    families, whose digit at family j runs over the orderings of the
    block placed there.  One lexsort puts the rows in member order."""
    f, families = params.family_size, params.num_families
    index: dict[tuple[int, ...], int] = {}
    by_pattern: dict[tuple[int, ...], list[list[int]]] = {}
    for rep in representatives:
        blocks, pattern = _runs(_family_blocks(rep, f))
        by_pattern.setdefault(pattern, []).append([index.setdefault(b, len(index)) for b in blocks])
    # placed[i, j] is the block, by index, on family j in placement i
    placed = np.concatenate([np.array(ids, np.intp)[:, _arrangements(pattern)].reshape(-1, families)
                             for pattern, ids in by_pattern.items()])
    # block b's orderings are inner[start[b]:start[b] + size[b]]
    tables = [np.array(values, np.int8)[_arrangements(pattern)]
              for values, pattern in map(_runs, index)]
    inner = np.concatenate(tables)
    size = np.array([len(table) for table in tables], np.intp)
    start = np.cumsum(size) - size
    radix = size[placed]
    counts = radix.prod(axis=1)
    source = np.repeat(np.arange(len(placed)), counts)
    digits = np.arange(len(source)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.empty((len(source), families, f), np.int8)
    for j in reversed(range(families)):
        digits, digit = np.divmod(digits, radix[source, j])
        rows[:, j] = inner[start[placed[source, j]] + digit]
    rows = rows.reshape(-1, params.n)
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class HSet:
    """H for one parameter set, held by its family-symmetry orbits.

    size is |H|, and representatives holds the canonical member of each
    orbit in H (module docstring).  rows is H's maximal layer, the
    members h with no h + e_i in H, as one read-only C-contiguous (N, n)
    int8 array in lexicographic (member) order: by Lemma A of the module
    docstring, these are exactly the members of total M.  int8 holds
    every entry: the candidate budget (H_ENUMERATION_LIMIT) refuses
    every point with d > 8.  Rows compare as their n-byte strings do,
    since every entry lies in 0..d; no row is made a tuple until an h
    is named.

    Every member is dominated by a maximal one: from any member, raise
    one coordinate at a time while staying in H; the walk ends at a
    maximal member.  A dominated h selects a column subset of its
    dominator's selection, so full column rank of the maximal
    selections implies it for all of H.

    maximal, members and witnesses are listed, and unrepairable is
    decided, on first use only.  An HSet compares and hashes by identity:
    h_enumerate makes one per parameter set, and lrrc.code_core keys
    its memos on it, both witness_targets and the sweep plan that holds
    the maximal members' column indices.
    """

    params: Params
    size: int
    rows: np.ndarray
    representatives: frozenset[tuple[int, ...]]

    @cached_property
    def maximal(self) -> tuple[tuple[int, ...], ...]:
        """The maximal layer as tuples of Python ints, in member order."""
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """All of H, in lexicographic order.  Raises TooLarge when |H|
        exceeds H_ENUMERATION_LIMIT."""
        if self.size > H_ENUMERATION_LIMIT:
            raise TooLarge(f"{self.size} members exceed {H_ENUMERATION_LIMIT}")
        members = _orbits(self.params, self.representatives)
        assert len(members) == self.size, "the orbits sum to the counted size"
        return tuple(map(tuple, members.tolist()))

    @cached_property
    def unrepairable(self) -> tuple[tuple[int, ...], int, int] | None:
        """The first (h, x, bound) such that no repair of node x keeps the
        selection under h at full rank, whatever its coefficients; None
        when there is none.  h runs over the representatives of total M
        in descending order and x over 1..n.

        A repair of x takes one packet from each of d helpers, and H
        allows any d of the d + r nodes outside x's family.  A helper s
        with h_s = d sends a combination of columns that h's selection
        already takes.  Let F count such nodes outside x's family.  A
        helper set can hold all of them, as F <= d: an order that sorts
        and covers h puts the nodes with h_s = d first, each scoring d,
        so they share one family, and they total at most M <= d^2 (with
        at least two families, position i scores at most
        d - ceil(i / 2)).  So x's h_x new columns add at most
        bound = d - F to the rank of the other M - h_x columns, and the
        selection falls below M when h_x > bound.  The family symmetry
        keeps F and h_x, so the representatives decide every maximal
        member.
        """
        d, f = self.params.d, self.params.family_size
        for h in sorted(self.representatives, reverse=True):
            if sum(h) < self.params.M:
                continue
            for x in range(1, self.params.n + 1):
                bound = d - sum(v == d and (s - 1) // f != (x - 1) // f
                                for s, v in enumerate(h, 1))
                if h[x - 1] > bound:
                    return h, x, bound
        return None

    @cached_property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        """h_membership's witness order for each member, in member order."""
        return tuple(h_membership(self.params, h).witness.order for h in self.members)

    def __contains__(self, h: object) -> bool:
        """Looks up h's canonical representative.  Every representative
        has n entries in 0..d totalling at most M, so a vector of another
        length, with an entry out of range or over M in total is
        rejected."""
        h = tuple(h)  # type: ignore[arg-type]
        if len(h) != self.params.n or sum(h) > self.params.M:
            return False
        return _orbit_representative(h, self.params.family_size) in self.representatives

    def __len__(self) -> int:
        return self.size


@lru_cache(maxsize=None)
def h_enumerate(params: Params) -> HSet:
    """Build H from family-symmetry orbits (module docstring).

    The canonical candidates of total at most M are taken RANK_CHUNK //
    n^2 at a time into an int8 array, so that _canonical_covers' (B, n,
    n) block holds at most RANK_CHUNK entries; the candidates it leaves
    uncovered go, with the canonical orders it computed, to
    _membership_search, which decides them.  The members stay int8
    rows, and their orbit sizes Python ints, so |H| is exact at any
    size.  Only when the orbits of total M hold at most
    H_ENUMERATION_LIMIT members do the representatives become tuples
    and those orbits get expanded, by _orbits, into the rows of the
    maximal layer.  Cached per parameter set; raises TooLarge when the
    canonical candidates or the maximal members number more than
    H_ENUMERATION_LIMIT, each counted before it is visited or listed.
    """
    f, families = params.family_size, params.num_families
    candidates = math.comb(math.comb(params.d + f, f) + families - 1, families)
    if candidates > H_ENUMERATION_LIMIT:
        raise TooLarge(f"{candidates} canonical candidates exceed {H_ENUMERATION_LIMIT}")
    stream, step = _canonical_candidates(params), max(1, RANK_CHUNK // params.n ** 2)
    chunks: list[np.ndarray] = []
    sizes: list[int] = []
    while chunk := list(itertools.islice(stream, step)):
        vectors, counts = zip(*chunk)
        rows = np.array(vectors, np.int8)
        member, order = _canonical_covers(params, rows)
        rejects = np.flatnonzero(~member)
        for i, canonical in zip(rejects, (order[rejects] + 1).tolist()):
            member[i] = _membership_search(params, vectors[i], canonical).member
        chunks.append(rows[member])
        sizes += itertools.compress(counts, member)
    rows = np.concatenate(chunks)
    top = rows.sum(axis=1) == params.M
    top_size = sum(itertools.compress(sizes, top))
    if top_size > H_ENUMERATION_LIMIT:
        raise TooLarge(f"{top_size} maximal members exceed {H_ENUMERATION_LIMIT}")
    return HSet(params=params, size=sum(sizes), rows=_orbits(params, rows[top].tolist()),
                representatives=frozenset(map(tuple, rows.tolist())))


def params_to_dict(params: Params) -> dict:
    """Params as a dict of its fields, in declaration order; equal to
    dataclasses.asdict(params), without its recursive copy."""
    return {"n": params.n, "k": params.k, "d": params.d, "r": params.r, "M": params.M,
            "alpha": params.alpha, "beta": params.beta}


def params_from_dict(d: dict) -> Params:
    check_keys(d, "params", ("n", "k", "d", "r", "M", "alpha", "beta"), ("n", "k", "d", "r"),
               ModelError)
    params = params_new(*(int_field(d[key], f"params {key}", ModelError) for key in "nkdr"))
    for key in ("M", "alpha", "beta"):
        if key in d and int_field(d[key], f"params {key}", ModelError) != getattr(params, key):
            raise OutOfScope(f"stored {key}={d[key]} disagrees with derived {getattr(params, key)}")
    return params
