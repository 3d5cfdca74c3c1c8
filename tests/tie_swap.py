"""The tie-swap certificate check, shared by the test modules.

With family size 2, swapping two adjacent nodes of equal h value in a
sorting order of h should keep h weakly majorized by the capped score.
tests/test_acceptance.py checks every such swap at (6,4,3,1).
"""

from __future__ import annotations

from typing import Sequence

from lrrc.mfhs import (
    LengthMismatch,
    Params,
    Perm,
    PreconditionViolated,
    majorizes,
    score_vectors,
)


def swap_preserves(params: Params, h: Sequence[int], perm: Perm, i: int) -> bool:
    """Whether swapping tied positions i, i+1 keeps majorization of h.

    Precondition: family size 2, h nonincreasing along perm, and the
    nodes at positions i and i+1 (1-based) carry equal h values.
    """
    if params.family_size != 2:
        raise PreconditionViolated("tie-swap preservation is a family-size-2 statement")
    if len(h) != params.n or len(perm.order) != params.n:
        raise LengthMismatch("h and perm must both cover all n nodes")
    values = [h[node - 1] for node in perm.order]
    if any(values[j] < values[j + 1] for j in range(params.n - 1)):
        raise PreconditionViolated("h is not sorted along perm")
    if not (1 <= i <= params.n - 1):
        raise PreconditionViolated(f"position {i} has no successor")
    if values[i - 1] != values[i]:
        raise PreconditionViolated(
            f"positions {i},{i + 1} carry different h values {values[i - 1]},{values[i]}"
        )
    swapped = list(perm.order)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    return majorizes(score_vectors(params, Perm(tuple(swapped))).c, h)
