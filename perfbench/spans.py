"""Span recording around lrrc's layer boundaries, installed from outside.

The package itself carries no tracing.  `installed(tracer)` rebinds the
module attributes that callers look up at call time (for example
`lrrc.code_core.rank_of_rows`, which `invariant_check` resolves through
its own module globals) to wrappers that record a span per call, and
restores every original on exit.  Spans are aggregated in memory per
name (calls, errors, inclusive and self time) and per parent/child pair
(calls); nothing is written until the caller asks for it.

Self time is a span's duration minus the time its child spans cover.
The process is single-threaded, so one stack of open spans suffices.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, Iterator

from lrrc import cli_sim, code_core, connect, exact6321, galois, mfhs


class Tracer:
    """In-memory span aggregates for one traced pass."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self.counts: Counter[str] = Counter()

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; hook(tracer, parent, result)
        may add counts from the result."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.errors[name] += not ok
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.edges[(parent, name)] += 1
            if hook is not None:
                hook(self, parent, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot leaf with a bare call count: at millions of calls
        per enumeration a full span would dominate what it measures."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly for a fixed seed."""
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "edges": {f"{p}>{c}": v for (p, c), v in self.edges.items()},
            "counts": dict(self.counts),
        }

    def merge(self, other: "Tracer") -> None:
        for mine, theirs in (
            (self.calls, other.calls), (self.errors, other.errors),
            (self.total_s, other.total_s), (self.self_s, other.self_s),
            (self.edges, other.edges), (self.counts, other.counts),
        ):
            mine.update(theirs)

    def table(self) -> list[dict]:
        return [
            {"span": name, "calls": self.calls[name], "errors": self.errors[name],
             "total_s": self.total_s[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        ]


def _membership_hook(tracer: Tracer, parent: str | None, result) -> None:
    # membership tests made by the enumeration are its candidates
    if parent == "mfhs.enumerate":
        tracer.counts["mfhs.candidates"] += 1
        tracer.counts["mfhs.members"] += bool(result.member)


def _connect_hook(tracer: Tracer, parent: str | None, result) -> None:
    tracer.counts["connect.steps"] += len(result.incremented)


# (module, attribute, span name, hook).  A name starting with "count:"
# installs a bare call counter instead of a span.  Every caller-side
# binding is listed, because `from .galois import rank_of_rows` copies
# the name into the importing module.
TARGETS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (code_core, "rank_of_rows", "galois.rank", None),
    (galois, "rank_of_rows", "galois.rank", None),
    (code_core, "mat_solve", "galois.solve", None),
    (exact6321, "mat_solve", "galois.solve", None),
    (galois, "mat_solve", "galois.solve", None),
    (code_core, "mat_mul", "galois.mul", None),
    (exact6321, "mat_mul", "galois.mul", None),
    (mfhs, "h_enumerate", "mfhs.enumerate", None),
    (code_core, "h_enumerate", "mfhs.enumerate", None),
    (cli_sim, "h_enumerate", "mfhs.enumerate", None),
    (mfhs, "h_membership", "mfhs.membership", _membership_hook),
    (connect, "h_membership", "mfhs.membership", _membership_hook),
    (mfhs, "majorizes", "count:mfhs.majorizes_calls", None),
    (connect, "majorizes", "count:mfhs.majorizes_calls", None),
    (code_core, "invariant_check", "code_core.invariant", None),
    (cli_sim, "invariant_check", "code_core.invariant", None),
    (code_core, "construct", "code_core.construct", None),
    (cli_sim, "construct", "code_core.construct", None),
    (cli_sim, "repair_random", "code_core.repair", None),
    (cli_sim, "reconstruct_check", "code_core.reconstruct", None),
    (code_core, "decode", "code_core.decode", None),
    (exact6321, "decode", "code_core.decode", None),
    (cli_sim, "witness_repair_check", "code_core.witness", None),
    (code_core, "connect_run", "connect.run", _connect_hook),
    (exact6321, "verify_exact_code", "exact6321.verify", None),
    (cli_sim, "simulate", "cli_sim.simulate", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[list[tuple[object, str]]]:
    """Rebind every target to a wrapper on tracer; restore on exit.

    Yields the (module, attribute) pairs rebound.  A target the package
    no longer defines is skipped, so its layer reads as zero work
    instead of failing the run.
    """
    saved: list[tuple[object, str, Callable]] = []
    try:
        for module, attr, name, hook in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            if name.startswith("count:"):
                wrapped = tracer.counter(name[len("count:"):], original)
            else:
                wrapped = tracer.span(name, original, hook)
            saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        yield [(module, attr) for module, attr, _ in saved]
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
