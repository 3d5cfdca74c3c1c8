"""Families, permutation scores, and the admissible selection set H.

Storage nodes 1..n are split into consecutive families of size
f = n - d - r (nodes 1..f, f+1..2f, and so on).  A newcomer replacing
node i may download only from nodes outside i's own family, so the
helper universe of every node has exactly d + r members.

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
this module.

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
h_enumerate therefore tests membership on the canonical candidates of
total at most M alone, sums their orbit sizes into |H|, and lists only
the orbits of total M, which Lemma A says are the maximal members.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .galois import int_field, reject_unknown_keys

H_ENUMERATION_LIMIT = 10_000_000
"""Cap on what h_enumerate visits and lists, each checked before the
work starts; TooLarge reports the first count over it.
  - The canonical candidates, C(C(d + f, f) + F - 1, F), one per orbit
    of 0..d vectors under the family symmetry of the module docstring:
    closed-form, so checked before any candidate is visited.
  - The maximal members, summed from orbit sizes after the membership
    pass and before maximal is listed.
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


@dataclass(frozen=True)
class FamilyLayout:
    """family_of[i-1] is the 1-based family id of node i."""

    family_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


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

    def position(self, node: int) -> int:
        return self.pos[node]


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
def family_layout(params: Params) -> FamilyLayout:
    f = params.family_size
    family_of = tuple((i // f) + 1 for i in range(params.n))
    members = tuple(
        tuple(range(g * f + 1, (g + 1) * f + 1)) for g in range(params.num_families)
    )
    return FamilyLayout(family_of=family_of, members=members)


def helper_universe(params: Params, node: int) -> frozenset[int]:
    """All nodes outside node's family; exactly d + r of them."""
    if not (1 <= node <= params.n):
        raise OutOfScope(f"node {node} outside 1..{params.n}")
    layout = family_layout(params)
    g = layout.family_of[node - 1]
    return frozenset(i for i in range(1, params.n + 1) if layout.family_of[i - 1] != g)


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
    layout = family_layout(params)
    seq = [layout.family_of[node - 1] for node in perm.order]
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
    witness the search would return.  At the 98 scope points of the
    tests, the pass alone answers all 126,015 members among the 138,071
    candidates of total at most M, and with or without it every verdict
    and witness there is the same.  It keeps the tests' reference sweep,
    which calls this on every candidate, from lengthening the suite.
    """
    if len(h) != params.n:
        raise LengthMismatch(f"h over {len(h)} nodes, params say {params.n}")
    n, d, f = params.n, params.d, params.family_size
    canonical = sorted(range(1, n + 1), key=lambda node: (-h[node - 1], node))
    if is_witness(params, h, canonical):
        return MembershipResult(True, Perm(tuple(canonical)))
    if sum(h) > params.M or min(h) < 0 or max(h) > params.d:
        return MembershipResult(False, None)
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


def _orbit_representative(h: Sequence[int], f: int) -> tuple[int, ...]:
    """The canonical representative of h's orbit: every family block
    sorted nonincreasingly, then the blocks in nonincreasing order."""
    blocks = [sorted(h[i:i + f], reverse=True) for i in range(0, len(h), f)]
    blocks.sort(reverse=True)
    return tuple(itertools.chain.from_iterable(blocks))


def _canonical_candidates(params: Params) -> Iterator[tuple[int, ...]]:
    """Every canonical candidate of total at most M: F blocks, each a
    nonincreasing f-tuple over 0..d, chosen in nonincreasing order."""
    blocks = list(itertools.combinations_with_replacement(range(params.d, -1, -1), params.family_size))
    totals = [sum(block) for block in blocks]

    def extend(start: int, left: int, budget: int) -> Iterator[tuple[int, ...]]:
        if not left:
            yield ()
            return
        for i in range(start, len(blocks)):
            if totals[i] <= budget:
                for rest in extend(i, left - 1, budget - totals[i]):
                    yield blocks[i] + rest

    return extend(0, params.num_families, params.M)


def _orderings(items: Sequence) -> int:
    """How many distinct orderings a multiset has."""
    count = math.factorial(len(items))
    for multiplicity in Counter(items).values():
        count //= math.factorial(multiplicity)
    return count


def _arrangements(items: Sequence) -> list[tuple]:
    """The distinct orderings of a multiset."""
    counts = Counter(items)
    out: list[tuple] = []
    current: list = []

    def place(left: int) -> None:
        if not left:
            out.append(tuple(current))
            return
        for item, multiplicity in counts.items():
            if multiplicity:
                counts[item] -= 1
                current.append(item)
                place(left - 1)
                current.pop()
                counts[item] += 1

    place(len(items))
    return out


def _family_blocks(h: Sequence[int], f: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(h[i:i + f]) for i in range(0, len(h), f))


def _orbit_size(rep: Sequence[int], f: int) -> int:
    blocks = _family_blocks(rep, f)
    return _orderings(blocks) * math.prod(_orderings(block) for block in blocks)


def _orbit(rep: Sequence[int], f: int) -> Iterator[tuple[int, ...]]:
    """Every vector in the orbit of rep, each once."""
    blocks = _family_blocks(rep, f)
    inside = {block: _arrangements(block) for block in set(blocks)}
    for families in _arrangements(blocks):
        for parts in itertools.product(*(inside[block] for block in families)):
            yield tuple(itertools.chain.from_iterable(parts))


def selection_columns(d: int, h: Sequence[int]) -> list[int]:
    """Indices into [Q_1 | ... | Q_n] of the columns selected under h:
    the first h_j of node j's d columns, which sit at j*d .. j*d + d - 1
    (0-based j)."""
    return [j * d + c for j, v in enumerate(h) for c in range(v)]


@dataclass(frozen=True, eq=False)
class HSet:
    """H for one parameter set, held by its family-symmetry orbits.

    size is |H|, and representatives holds the canonical member of each
    orbit in H (module docstring).  maximal lists the members h with no
    h + e_i in H, in lexicographic order: by Lemma A of the module
    docstring, these are exactly the members of total M.

    Every member is dominated by a maximal one: from any member, raise
    one coordinate at a time while staying in H; the walk ends at a
    maximal member.  A dominated h selects a column subset of its
    dominator's selection, so full column rank of the maximal
    selections implies it for all of H.

    members and witnesses are listed on first use only.  An HSet
    compares and hashes by identity: h_enumerate makes one per
    parameter set, and witness_targets keys its memo on it.
    """

    params: Params
    size: int
    maximal: tuple[tuple[int, ...], ...]
    representatives: frozenset[tuple[int, ...]]

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """All of H, in lexicographic order.  Raises TooLarge when |H|
        exceeds H_ENUMERATION_LIMIT."""
        if self.size > H_ENUMERATION_LIMIT:
            raise TooLarge(f"{self.size} members exceed {H_ENUMERATION_LIMIT}")
        f = self.params.family_size
        members = sorted(itertools.chain.from_iterable(_orbit(h, f) for h in self.representatives))
        assert len(members) == self.size, "the orbits sum to the counted size"
        return tuple(members)

    @cached_property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        """h_membership's witness order for each member, in member order."""
        return tuple(h_membership(self.params, h).witness.order for h in self.members)

    @cached_property
    def maximal_columns(self) -> np.ndarray:
        """(len(maximal), M) column indices into [Q_1 | ... | Q_n]; row i
        is selection_columns of maximal[i]."""
        d = self.params.d
        return np.array([selection_columns(d, h) for h in self.maximal], dtype=np.intp)

    @cached_property
    def node_rows(self) -> tuple[np.ndarray, ...]:
        """Per node (0-based j), the ascending row indices into maximal
        and maximal_columns of the members with h_j > 0: the selections
        that read node j's columns, and so the only ones a change to
        node j's matrix can alter."""
        reads = np.array(self.maximal, dtype=np.intp).reshape(-1, self.params.n) > 0
        return tuple(np.flatnonzero(reads[:, j]) for j in range(self.params.n))

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

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.members)


@lru_cache(maxsize=None)
def h_enumerate(params: Params) -> HSet:
    """Build H from family-symmetry orbits (module docstring).

    h_membership runs on each canonical candidate of total at most M;
    |H| is the sum of the members' orbit sizes, and only the orbits of
    total M are listed, as maximal.  Cached per parameter set; raises
    TooLarge when the canonical candidates or the maximal members
    number more than H_ENUMERATION_LIMIT, each counted before it is
    visited or listed.
    """
    f, families = params.family_size, params.num_families
    candidates = math.comb(math.comb(params.d + f, f) + families - 1, families)
    if candidates > H_ENUMERATION_LIMIT:
        raise TooLarge(f"{candidates} canonical candidates exceed {H_ENUMERATION_LIMIT}")
    representatives = [h for h in _canonical_candidates(params) if h_membership(params, h).member]
    top = [h for h in representatives if sum(h) == params.M]
    top_size = sum(_orbit_size(h, f) for h in top)
    if top_size > H_ENUMERATION_LIMIT:
        raise TooLarge(f"{top_size} maximal members exceed {H_ENUMERATION_LIMIT}")
    return HSet(
        params=params,
        size=sum(_orbit_size(h, f) for h in representatives),
        maximal=tuple(sorted(itertools.chain.from_iterable(_orbit(h, f) for h in top))),
        representatives=frozenset(representatives),
    )


def params_to_dict(params: Params) -> dict:
    return {
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "r": params.r,
        "M": params.M,
        "alpha": params.alpha,
        "beta": params.beta,
    }


def params_from_dict(d: dict) -> Params:
    missing = [key for key in ("n", "k", "d", "r")
               if not isinstance(d, dict) or key not in d]
    if missing:
        raise ModelError(f"params lack {missing}")
    reject_unknown_keys(d, ("n", "k", "d", "r", "M", "alpha", "beta"), "params", ModelError)
    params = params_new(*(int_field(d[key], f"params {key}", ModelError) for key in "nkdr"))
    for key in ("M", "alpha", "beta"):
        if key in d and int_field(d[key], f"params {key}", ModelError) != getattr(params, key):
            raise OutOfScope(f"stored {key}={d[key]} disagrees with derived {getattr(params, key)}")
    return params
