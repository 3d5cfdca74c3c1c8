"""The four benchmark workloads: generated inputs, ops, and output checks.

Every workload is a closed loop with one client.  An op is one failure
event of `simulate`, or one job of `construct_lowq`.  All inputs are
generated from the workload seed; lrrc only ever sees parameters, field
sizes, seeds, files and k-subsets.

Functions are looked up through their modules at call time
(`code_core.construct`, not a `from` import), so a traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass

from lrrc import cli_sim, code_core, exact6321, galois, mfhs

# Primes at which each construct_lowq job re-verifies the six-node code.
EXACT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)
# At GF(307) about a quarter of construction attempts pass; 64 attempts
# leave a job failing with probability about 1e-8.
LOWQ_MAX_ATTEMPTS = 64
# Two constructions per construct_lowq job smooth the job time, which
# otherwise jumps by whole rejected attempts.
SEEDS_PER_JOB = 3
# Seed of the reference outputs whose digests are pinned below.
REFERENCE_SEED = 0


class Checker:
    """Counts attempted and failed items and prints every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        """One op or run-level check; it fails when problems is nonempty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)


@dataclass(frozen=True)
class Context:
    """What set-up produced: parameters, H, the recommended prime and the
    field the ops run in."""

    params: mfhs.Params
    hset: mfhs.HSet
    auto_q: int
    field: galois.FieldConfig


def clear_caches() -> None:
    """Empty every lru cache in lrrc, so the next set-up is cold."""
    for module in (galois, mfhs, code_core, exact6321, cli_sim):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    point: tuple[int, int, int, int]
    h_count: int
    M: int
    q: int  # the prime set-up picks: next_prime(required_field_size)
    setup_reps: int
    # ops per second at the commit that defined the benchmark; sizes the
    # traced passes so that they take a fixed share of --seconds
    nominal_ops_per_s: float
    reference_digest: str

    def setup(self) -> Context:
        """The measured set-up: params_new -> h_enumerate ->
        required_field_size -> next_prime -> field_new."""
        params = mfhs.params_new(*self.point)
        hset = mfhs.h_enumerate(params)
        bound = code_core.required_field_size(params, hset)
        auto_q = galois.next_prime(bound)
        field = galois.field_new(self.field_q(auto_q))
        return Context(params=params, hset=hset, auto_q=auto_q, field=field)

    def field_q(self, auto_q: int) -> int:
        return auto_q

    def pin_problems(self, ctx: Context) -> list[str]:
        got = (len(ctx.hset), ctx.params.M, ctx.auto_q)
        want = (self.h_count, self.M, self.q)
        if got != want:
            return [f"{self.name}: (|H|, M, q) = {got}, pinned {want}"]
        return []

    def reference_problems(self, ctx: Context) -> list[str]:
        got = _digest(self.reference_output(ctx))
        if got != self.reference_digest:
            return [f"{self.name}: reference output digest {got} "
                    f"differs from pinned {self.reference_digest}"]
        return []

    def reference_output(self, ctx: Context) -> str:
        raise NotImplementedError

    def batch(self, ctx: Context, seed: int, checker: Checker) -> list[float]:
        """Run one batch of ops; return each op's latency in ms."""
        raise NotImplementedError

    def fixed(self, ctx: Context, seed: int, ops: int, checker: Checker) -> None:
        """Run exactly `ops` ops, deterministically in seed."""
        raise NotImplementedError

    def prelude(self, ctx: Context, seed: int) -> None:
        """Run the work fixed() does before its first op (none by default)."""


@dataclass(frozen=True)
class SimWorkload(Workload):
    """simulate with round-robin failures and uniform-random helpers.

    A batch is one simulate call of batch_rounds rounds.  Its opening
    construction is no op, but its time counts toward ops_per_s.
    """

    checks: tuple[str, ...] = ()
    batch_rounds: int = 0

    def config(self, ctx: Context, seed: int, rounds: int) -> cli_sim.SimConfig:
        return cli_sim.SimConfig(
            params=ctx.params,
            q="auto",
            seed=seed,
            rounds=rounds,
            failure_policy="round-robin",
            helper_policy="uniform-random",
            check_invariant="invariant" in self.checks,
            check_reconstruction="reconstruction" in self.checks,
            check_witness="witness" in self.checks,
        )

    def reference_output(self, ctx: Context) -> str:
        return cli_sim.simulate(self.config(ctx, REFERENCE_SEED, ctx.params.n)).canonical_json()

    def simulate(self, ctx: Context, seed: int, rounds: int, checker: Checker) -> list[float]:
        t0 = time.perf_counter()
        report = cli_sim.simulate(self.config(ctx, seed, rounds))
        wall = time.perf_counter() - t0
        where = f"{self.name} seed {seed}"
        latencies = []
        for event in report.events:
            latencies.append(event["wall_time_s"] * 1e3)
            problems = [f"{where} round {event['round']}: {event['error']}"] if "error" in event else []
            problems += [f"{where} round {event['round']}: {name} check False"
                         for name, ok in event.get("checks", {}).items() if not ok]
            checker.record(problems)
        events_s = sum(event["wall_time_s"] for event in report.events)
        batch = []
        if not report.passed:
            batch.append(f"{where}: report not passed (construction {report.construction})")
        if report.q != self.q:
            batch.append(f"{where}: q {report.q}, pinned {self.q}")
        if events_s > wall:
            batch.append(f"{where}: events report {events_s:.6f} s inside a {wall:.6f} s call")
        checker.record(batch)
        return latencies

    def batch(self, ctx: Context, seed: int, checker: Checker) -> list[float]:
        return self.simulate(ctx, seed, self.batch_rounds, checker)

    def fixed(self, ctx: Context, seed: int, ops: int, checker: Checker) -> None:
        self.simulate(ctx, seed, ops, checker)

    def prelude(self, ctx: Context, seed: int) -> None:
        # the construction a simulate call makes before its first event
        self.simulate(ctx, seed, 0, Checker())


def codec_problems(state: code_core.CodeState, restored: code_core.CodeState,
                   rng: random.Random) -> list[str]:
    """Check a state_to_dict/state_from_dict round trip, then encode a
    random file with state and decode it through restored from a random
    k-subset of nodes."""
    problems = []
    if (restored.params, restored.field, restored.packet_width, restored.Q) != (
            state.params, state.field, state.packet_width, state.Q):
        problems.append("state round trip changed the code")
    params, field = state.params, state.field
    file = galois.FieldMatrix(
        params.M, state.packet_width,
        tuple(rng.randrange(field.q) for _ in range(params.M * state.packet_width)),
        field,
    )
    packets = code_core.encode(state, file)
    nodes = sorted(rng.sample(range(1, params.n + 1), params.k))
    try:
        decoded = code_core.decode(restored, nodes, [packets[i - 1] for i in nodes])
    except code_core.RankDeficient as exc:
        problems.append(f"decode from nodes {nodes}: {exc}")
    else:
        if decoded != file:
            problems.append(f"decode from nodes {nodes} returned another file")
    return problems


@dataclass(frozen=True)
class ConstructWorkload(Workload):
    """Jobs at consecutive seeds.  For each seed: construct, round-trip
    the state, encode and decode a file, verify the six-node exact code."""

    # the field the jobs construct over, far below the recommended q
    low_q: int = 0

    def field_q(self, auto_q: int) -> int:
        return self.low_q

    def job(self, ctx: Context, index: int) -> list[str]:
        """Job number index; it covers the next SEEDS_PER_JOB seeds."""
        first = index * SEEDS_PER_JOB
        return [p for seed in range(first, first + SEEDS_PER_JOB)
                for p in self.unit(ctx, seed)[0]]

    def unit(self, ctx: Context, seed: int) -> tuple[list[str], code_core.CodeState | None]:
        try:
            state = code_core.construct(ctx.params, ctx.field, ctx.hset, rng_seed=seed,
                                        max_attempts=LOWQ_MAX_ATTEMPTS)
        except code_core.ConstructionFailed as exc:
            return [f"{self.name} seed {seed}: {exc}"], None
        restored = code_core.state_from_dict(code_core.state_to_dict(state))
        problems = [f"{self.name} seed {seed}: {p}"
                    for p in codec_problems(state, restored, random.Random(seed))]
        q = EXACT_PRIMES[seed % len(EXACT_PRIMES)]
        if not exact6321.verify_exact_code(exact6321.build_exact_code(q)).passed:
            problems.append(f"{self.name} seed {seed}: exact code over GF({q}) failed verification")
        return problems, state

    def reference_output(self, ctx: Context) -> str:
        out = []
        for seed in range(REFERENCE_SEED, REFERENCE_SEED + 4):
            problems, state = self.unit(ctx, seed)
            out.append([problems, state and code_core.state_to_dict(state),
                        state and state.attempts])
        return json.dumps(out, sort_keys=True)

    def batch(self, ctx: Context, seed: int, checker: Checker) -> list[float]:
        t0 = time.perf_counter()
        problems = self.job(ctx, seed)
        latency = (time.perf_counter() - t0) * 1e3
        checker.record(problems)
        return [latency]

    def fixed(self, ctx: Context, seed: int, ops: int, checker: Checker) -> None:
        for j in range(ops):
            checker.record(self.job(ctx, seed + j))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # invariant_check does ~98% of the work: each event sweeps all 1128
    # selections twice, once in repair_random and once in simulate.
    SimWorkload(
        name="repair_f2", point=(6, 4, 3, 1), h_count=1128, M=7, q=142151,
        setup_reps=9, nominal_ops_per_s=9.5, reference_digest=(
            "fb6a0b8006fb8bbc35da37ff0e60348d2d10ab0937070e2acfa2570a4b5ddf47"),
        checks=("invariant", "reconstruction"), batch_rounds=12,
    ),
    # family size 4: the cold h_enumerate (10-16 s) dominates, events
    # cost ~15 ms.  (8,5,3,1) is left out: its enumeration takes 44 s per run
    # and it carries the known f=4 membership defect.
    SimWorkload(
        name="enum_f4", point=(8, 4, 2, 2), h_count=407, M=4, q=26053,
        setup_reps=3, nominal_ops_per_s=60.0, reference_digest=(
            "9725e4bf73906ba5d95b845b396c539fb3a024abb2d4983f211f85242473e908"),
        checks=("invariant", "reconstruction"), batch_rounds=80,
    ),
    # a low field rejects ~3 of 4 attempts, and rejected sweeps stop
    # early; the only workload using mat_solve (decode) and exact6321.
    ConstructWorkload(
        name="construct_lowq", point=(6, 4, 3, 1), h_count=1128, M=7, q=142151, low_q=307,
        setup_reps=9, nominal_ops_per_s=5.0, reference_digest=(
            "66c1676d321a9b243650c2d0bd00dcd5f1241f5f855b38b9a022cae82971d338"),
    ),
    # witness check only: connect_run and exhaustive f=3 membership run
    # for every h in H on each event; rank work is small.
    SimWorkload(
        name="witness_f3", point=(6, 3, 2, 1), h_count=159, M=4, q=7639,
        setup_reps=9, nominal_ops_per_s=30.0, reference_digest=(
            "36641cbcce16eead8d6f43dbff76a06aa7a79ca84479d5dc754f3dc5ef48917c"),
        checks=("witness",), batch_rounds=36,
    ),
)}
