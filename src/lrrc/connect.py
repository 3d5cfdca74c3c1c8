"""Helper-increment rebalancing behind exact repair witnesses.

Given an admissible selection vector h, a failed node, and d permitted
helpers, the procedure moves the failed node's h units onto helpers one
at a time, always picking the currently lowest-valued helper (earliest
position on ties) and re-sorting after each step.  The output vector h'
is again admissible, zeroes the failed coordinate, and raises exactly
the helpers a repair witness needs.

Every ordering fact the correctness argument leans on is asserted at
runtime instead of assumed: only the failed node may drift to a later
position, the incremented helper crosses nobody, and every state,
t = 0 included, carries a certificate: mfhs.is_witness holds for its
h along its order, which is H's definition met by that one order (the
order sorts h and its score covers h position by position).  The last
state's certificate proves h' in H, so no membership search runs on
h'.  Any violation raises InternalContradiction; a run that trips it on
valid input is a finding about the procedure, not a recoverable
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .mfhs import (
    HNotMember,
    Params,
    Perm,
    checked_helpers,
    h_membership,
    is_witness,
    majorizes,  # unused here; perfbench's tracer wraps this binding
)


class ConnectError(Exception):
    pass


class EmptyHelperPool(ConnectError):
    """step_select was called with no helpers left."""


class InternalContradiction(ConnectError):
    """A runtime assertion about the procedure's own bookkeeping failed."""


@dataclass(frozen=True)
class ConnectState:
    """Snapshot after iteration t.

    h is the current selection vector, pool the helpers not yet
    incremented, perm the current nonincreasing order.
    """

    t: int
    h: tuple[int, ...]
    pool: frozenset[int]
    perm: Perm
    failed: int


@dataclass(frozen=True)
class ConnectResult:
    h_prime: tuple[int, ...]
    incremented: tuple[int, ...]
    trace: tuple[ConnectState, ...]


def initial_perm(params: Params, h: Sequence[int], helpers: Sequence[int], failed: int) -> Perm:
    """Starting order: h descending, helpers first inside every tied
    class, remaining ties by ascending node index."""
    if not h_membership(params, h).member:
        raise HNotMember(f"{tuple(h)} is not admissible for {params}")
    hs = checked_helpers(params, failed, helpers)
    order = sorted(
        range(1, params.n + 1),
        key=lambda node: (-h[node - 1], 0 if node in hs else 1, node),
    )
    return Perm(tuple(order))


def step_select(state: ConnectState) -> int:
    """Next helper to increment: lowest value, then earliest position."""
    if not state.pool:
        raise EmptyHelperPool(f"iteration {state.t}: no helpers remain")
    return min(state.pool, key=lambda x: (state.h[x - 1], state.perm.position(x)))


def step_resort(state: ConnectState, x: int) -> Perm:
    """Re-sort after x gained a unit and the failed node lost one.

    state carries the updated h next to the not-yet-updated perm.  The
    sort key is descending h with the previous position breaking ties,
    except that the failed node sinks to the end of its new class (it
    is the one node allowed to move later).  Asserted: every pair not
    involving the failed node or x keeps its relative order, and x
    crosses no node at all besides possibly the failed one.  That the
    result sorts h is part of the certificate connect_run checks next.
    """
    old_order = state.perm.order
    failed = state.failed
    sentinel = len(old_order) + 1

    def key(node: int) -> tuple[int, int]:
        tie = sentinel if node == failed else state.perm.position(node)
        return (-state.h[node - 1], tie)

    new_order = tuple(sorted(old_order, key=key))

    kept_old = [node for node in old_order if node not in (failed, x)]
    kept_new = [node for node in new_order if node not in (failed, x)]
    if kept_old != kept_new:
        raise InternalContradiction(
            f"re-sort disturbed bystanders: {kept_old} became {kept_new}"
        )

    old_pos = {node: i for i, node in enumerate(old_order)}
    new_pos = {node: i for i, node in enumerate(new_order)}
    crossed = [
        node
        for node in old_order
        if node not in (failed, x)
        and (old_pos[node] < old_pos[x]) != (new_pos[node] < new_pos[x])
    ]
    if crossed:
        raise InternalContradiction(f"incremented helper {x} crossed {crossed}")

    return Perm(new_order)


def _check_state(params: Params, state: ConnectState) -> None:
    """The state's certificate: is_witness(h, perm), else
    InternalContradiction."""
    if not is_witness(params, state.h, state.perm.order):
        raise InternalContradiction(
            f"iteration {state.t}: order {state.perm.order} does not sort and cover {state.h}"
        )


def connect_run(params: Params, h: Sequence[int], helpers: Sequence[int], failed: int) -> ConnectResult:
    """Run the full procedure and return (h', increment order, trace).

    h' agrees with h everywhere except that the failed coordinate drops
    to zero and h_failed helpers each gain exactly one unit.  The trace
    holds one state per iteration, t = 0 included, and each state's
    certificate (mfhs.is_witness along its order) is checked.  The last
    state's certificate proves h' in H: h' is sorted along an order
    whose score covers it, sum(h') = sum(h) <= M, and h' <= d because
    position 1 scores d.  So the one membership search of a run is
    initial_perm's on h.
    """
    h = tuple(h)
    perm = initial_perm(params, h, helpers, failed)
    pool = set(helpers)  # initial_perm has checked them

    current = list(h)
    state = ConnectState(
        t=0,
        h=h,
        pool=frozenset(pool),
        perm=perm,
        failed=failed,
    )
    _check_state(params, state)
    trace = [state]
    incremented: list[int] = []

    for t in range(1, h[failed - 1] + 1):
        x = step_select(state)
        current[x - 1] += 1
        current[failed - 1] -= 1
        pool.discard(x)
        interim = ConnectState(
            t=t,
            h=tuple(current),
            pool=frozenset(pool),
            perm=state.perm,
            failed=failed,
        )
        state = replace(interim, perm=step_resort(interim, x))
        _check_state(params, state)
        trace.append(state)
        incremented.append(x)

    return ConnectResult(h_prime=tuple(current), incremented=tuple(incremented), trace=tuple(trace))


def connect_state_to_dict(state: ConnectState) -> dict:
    return {
        "t": state.t,
        "h": list(state.h),
        "pool": sorted(state.pool),
        "perm": list(state.perm.order),
        "failed": state.failed,
    }
