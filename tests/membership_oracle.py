"""Brute-force oracle for membership in H, shared by the test modules.

It scans every node order that sorts h nonincreasingly and applies the
definition of H literally: capped scores, compared position by
position.  lrrc.mfhs decides the same question by a memoized search on
raw scores; these tests hold the two against each other.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from lrrc.mfhs import Params, Perm, score_vectors


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
