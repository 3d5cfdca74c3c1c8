"""Reference searches for H and for the file size M, shared by the test
modules.

The membership oracle scans every node order that sorts h
nonincreasingly and applies the definition of H literally: capped
scores, compared position by position.  lrrc.mfhs decides the same
question by a memoized search on raw scores.  The file-size reference
searches all family sequences for the worst k-prefix total, where
lrrc.mfhs uses the round-robin closed form.  The maximal-member
references scan for domination, where lrrc reads the maximal members of
H and the maximal repair targets off the members of total M.  These
tests hold each pair against each other.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from lrrc.mfhs import HSet, Params, Perm, score_vectors


def in_scope_points(max_n: int) -> list[tuple[int, int, int, int]]:
    """Every (n, k, d, r) with n <= max_n whose family size n - d - r is
    at least 2 and divides n."""
    return [
        (n, k, d, r)
        for n in range(2, max_n + 1)
        for d in range(1, n)
        for r in range(n - d - 1)
        if n % (n - d - r) == 0
        for k in range(1, n + 1)
    ]


def sorting_perms(params: Params, h: Sequence[int]) -> Iterator[Perm]:
    """All node orders along which h is nonincreasing, in lexicographic
    order, so the canonical one (ties by ascending index) comes first."""
    groups: dict[int, list[int]] = {}
    for node in range(1, params.n + 1):
        groups.setdefault(h[node - 1], []).append(node)
    ordered_groups = [groups[v] for v in sorted(groups, reverse=True)]
    for arrangement in itertools.product(*(itertools.permutations(g) for g in ordered_groups)):
        yield Perm(tuple(itertools.chain.from_iterable(arrangement)))


def covers_along(params: Params, h: Sequence[int], order: Sequence[int]) -> bool:
    """Every position prefix of order's capped score covers h's."""
    slack = 0
    for value, node in zip(score_vectors(params, Perm(tuple(order))).c, order):
        slack += value - h[node - 1]
        if slack < 0:
            return False
    return True


def exhaustive_witness(params: Params, h: Sequence[int]) -> tuple[int, ...] | None:
    """The first sorting order of h that covers it, or None."""
    for perm in sorting_perms(params, h):
        if covers_along(params, h, perm.order):
            return perm.order
    return None


def min_prefix_total(n: int, k: int, d: int, f: int) -> int:
    """Worst k-prefix score total over all node orders, by search.

    Scores depend only on the family-id sequence, and families are
    interchangeable, so the search runs over canonical family sequences
    instead of the n! raw permutations: its state is the position and
    the multiset of nodes each family has left, memoized.  A node
    placed at position i whose family already has f - rem earlier nodes
    sees z = i - (f - rem) outsiders before it.
    """

    @lru_cache(maxsize=None)
    def best_from(i: int, remaining: tuple[int, ...]) -> int:
        if i == k:
            return 0
        out = None
        tried: set[int] = set()
        for idx, rem in enumerate(remaining):
            if rem == 0 or rem in tried:
                continue
            tried.add(rem)
            z = i - (f - rem)
            contrib = d - z if z < d else 0
            nxt = tuple(sorted(remaining[:idx] + remaining[idx + 1:] + (rem - 1,), reverse=True))
            total = contrib + best_from(i + 1, nxt)
            out = total if out is None or total < out else out
        assert out is not None
        return out

    return best_from(0, (f,) * (n // f))


def maximal_by_domination(hset: HSet) -> tuple[tuple[int, ...], ...]:
    """Members h with no h + e_i in H, by descending total and then
    lexicographically."""
    d = hset.params.d
    return tuple(
        h for h in sorted(hset.members, key=lambda h: (-sum(h), h))
        if not any(v < d and h[:i] + (v + 1,) + h[i + 1:] in hset for i, v in enumerate(h))
    )


def maximal_by_down_closure(vectors: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The vectors t, in their given order, with no t + e_i at or below
    any of the vectors."""
    below = set(vectors)
    stack = list(below)
    while stack:
        t = stack.pop()
        for i, v in enumerate(t):
            if v:
                lower = t[:i] + (v - 1,) + t[i + 1:]
                if lower not in below:
                    below.add(lower)
                    stack.append(lower)
    return [t for t in vectors if not any(t[:i] + (v + 1,) + t[i + 1:] in below
                                          for i, v in enumerate(t))]
