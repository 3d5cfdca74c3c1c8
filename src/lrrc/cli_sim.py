"""Command-line interface and failure/repair simulation harness.

Subcommands: params, enumerate-h, construct, repair, verify, connect,
exact6321, simulate.  Reports go to stdout as JSON, diagnostics to
stderr.  Exit codes: 0 all requested checks passed, 1 a check failed,
2 usage or input errors.  When --seed is omitted the LRRC_SEED
environment variable is consulted before falling back to 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

from . import __version__
from .galois import GaloisError, check_keys, field_new, int_field, next_prime
from .mfhs import (
    HSet,
    ModelError,
    Params,
    h_enumerate,
    helper_universe,
    params_from_dict,
    params_new,
    params_to_dict,
)
from .connect import ConnectError, connect_run, connect_state_to_dict
from .code_core import (
    DEFAULT_MAX_ATTEMPTS,
    AttemptsExhausted,
    CodeError,
    CodeState,
    ConstructionFailed,
    RepairFailed,
    construct,
    invariant_check,
    reconstruct_check,
    repair_random,
    required_field_size,
    state_from_dict,
    state_to_dict,
    witness_holds,
    witness_repair_check,  # unused here; perfbench's tracer wraps this binding
)
from .exact6321 import ExactCodeError, build_exact_code, code_to_dict, verify_exact_code

FAILURE_POLICIES = ("round-robin", "uniform-random", "adversarial-sweep")
HELPER_POLICIES = ("uniform-random", "exhaustive-per-failure")
CHECKS = ("invariant", "reconstruction", "witness")
# The keys SimConfig.to_dict emits, the only ones a config may carry.
CONFIG_KEYS = ("params", "q", "seed", "rounds", "failure_policy", "helper_policy",
               "checks", "max_attempts")
# simulate's run flags with their defaults; a --config file sets them all
SIMULATE_FLAGS = {"n": None, "k": None, "d": None, "r": None, "q": "auto", "seed": None,
                  "rounds": 10, "failure_policy": "round-robin",
                  "helper_policy": "uniform-random", "checks": "invariant,reconstruction",
                  "max_attempts": DEFAULT_MAX_ATTEMPTS}


@dataclass(frozen=True)
class SimConfig:
    """One simulation: construction plus a sequence of repair rounds.

    An unknown policy or negative rounds raise ModelError.
    """

    params: Params
    q: int | str = "auto"
    seed: int = 0
    rounds: int = 0
    failure_policy: str = "round-robin"
    helper_policy: str = "uniform-random"
    check_invariant: bool = True
    check_reconstruction: bool = True
    check_witness: bool = False
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ModelError(f"unknown failure policy {self.failure_policy!r}")
        if self.helper_policy not in HELPER_POLICIES:
            raise ModelError(f"unknown helper policy {self.helper_policy!r}")
        if self.rounds < 0:
            raise ModelError("rounds must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "params": params_to_dict(self.params),
            "q": self.q,
            "seed": self.seed,
            "rounds": self.rounds,
            "failure_policy": self.failure_policy,
            "helper_policy": self.helper_policy,
            "checks": {
                "invariant": self.check_invariant,
                "reconstruction": self.check_reconstruction,
                "witness": self.check_witness,
            },
            "max_attempts": self.max_attempts,
        }


def sim_config_from_dict(d: dict) -> SimConfig:
    check_keys(d, "simulation config", CONFIG_KEYS, ("params",), ModelError)
    params = params_from_dict(d["params"])

    def integer(key: str, default: int) -> int:
        return int_field(d.get(key, default), f"simulation config's {key}", ModelError)

    q = "auto" if d.get("q", "auto") == "auto" else integer("q", 0)
    checks = d.get("checks", {})
    if not isinstance(checks, dict):
        raise ModelError(f"simulation config's checks must be an object, got {type(checks).__name__}")
    for name, value in checks.items():
        if name not in CHECKS:
            raise ModelError(f"simulation config has unknown check {name!r}")
        if not isinstance(value, bool):
            raise ModelError(f"simulation config's checks.{name} must be true or false, "
                             f"got {json.dumps(value)}")
    return SimConfig(
        params=params,
        q=q,
        seed=integer("seed", 0),
        rounds=integer("rounds", 0),
        failure_policy=d.get("failure_policy", "round-robin"),
        helper_policy=d.get("helper_policy", "uniform-random"),
        check_invariant=checks.get("invariant", True),
        check_reconstruction=checks.get("reconstruction", True),
        check_witness=checks.get("witness", False),
        max_attempts=integer("max_attempts", DEFAULT_MAX_ATTEMPTS),
    )


@dataclass
class SimReport:
    """Everything a run produced; wall times are excluded from
    comparisons via canonical_json."""

    config: SimConfig
    version: str
    q: int
    construction: dict
    events: list[dict]
    aggregate: dict
    passed: bool

    def to_dict(self, include_timing: bool = True) -> dict:
        def strip(d: dict) -> dict:
            return {k: v for k, v in d.items() if include_timing or not k.startswith("wall_time")}

        return {
            "config": self.config.to_dict(),
            "version": self.version,
            "q": self.q,
            "construction": strip(self.construction),
            "events": [strip(e) for e in self.events],
            "aggregate": strip(self.aggregate),
            "passed": self.passed,
        }

    def canonical_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), sort_keys=True)


def _planned_failures(config: SimConfig, master: random.Random) -> list[list[int]]:
    n = config.params.n
    rounds = []
    for r in range(config.rounds):
        if config.failure_policy == "round-robin":
            rounds.append([(r % n) + 1])
        elif config.failure_policy == "uniform-random":
            rounds.append([master.randrange(1, n + 1)])
        else:
            rounds.append(list(range(1, n + 1)))
    return rounds


def _helper_sets(config: SimConfig, failed: int, master: random.Random) -> list[tuple[int, ...]]:
    universe = sorted(helper_universe(config.params, failed))
    if config.helper_policy == "uniform-random":
        return [tuple(sorted(master.sample(universe, config.params.d)))]
    return list(itertools.combinations(universe, config.params.d))


def simulate(config: SimConfig) -> SimReport:
    """Construct a code, then run the configured failure rounds.

    Construction or repair giving up is recorded in the report (with
    the offending round) and stops the run; nothing is raised.  The
    state only ever advances through accepted repairs.
    """
    t_start = time.perf_counter()
    params = config.params
    hset = h_enumerate(params)
    q, bound = _resolve_field(params, hset, config.q)
    field = field_new(q)
    master = random.Random(config.seed)

    events: list[dict] = []
    failure: dict | None = None
    exhausted = 0  # attempts spent by the repair that gave up
    # construct and repair_random return a state only after
    # invariant_check(state, hset) passed on this same cached hset, and
    # by Lemma C of lrrc.code_core every k nodes of such a state recover
    # the file, so both verdicts are recorded, not computed again
    carried = {"invariant": True} if config.check_invariant else {}
    if config.check_reconstruction:
        carried["reconstruction"] = True

    t0 = time.perf_counter()
    try:
        state = construct(params, field, hset, rng_seed=master.getrandbits(63),
                          max_attempts=config.max_attempts)
    except ConstructionFailed as exc:
        construction = {
            "ok": False,
            "error": "ConstructionFailed",
            "attempts": exc.attempts,
            "rejected_by": [list(h) for h in exc.rejected_by],
            "field_below_bound": q < bound,
        }
        planned: list[list[int]] = []
    else:
        construction = {
            "ok": True,
            "attempts": state.attempts,
            "field_below_bound": q < bound,
            "checks": dict(carried),
        }
        planned = _planned_failures(config, master)
    construction["wall_time_s"] = time.perf_counter() - t0

    for round_no, failures in enumerate(planned, start=1):
        if failure:
            break
        for failed in failures:
            helper_sets = _helper_sets(config, failed, master)
            base = state
            advanced: CodeState | None = None
            event: dict = {
                "round": round_no,
                "failed": failed,
                "helper_sets": [list(hs) for hs in helper_sets],
                "attempts": [],
            }
            t0 = time.perf_counter()
            try:
                for idx, hs in enumerate(helper_sets):
                    candidate = repair_random(
                        base, failed, hs, rng_seed=master.getrandbits(63),
                        max_attempts=config.max_attempts,
                    )
                    event["attempts"].append(candidate.attempts)
                    if idx == 0:
                        advanced = candidate
            except RepairFailed as exc:
                exhausted = exc.attempts
                rejected_by = [list(h) for h in exc.rejected_by]
                event["error"] = "RepairFailed"
                event["rejected_by"] = rejected_by
                event["wall_time_s"] = time.perf_counter() - t0
                events.append(event)
                failure = {"round": round_no, "failed": failed, "error": "RepairFailed",
                           "rejected_by": rejected_by}
                break
            assert advanced is not None
            state = advanced
            event["checks"] = dict(carried)
            if config.check_witness:
                event["checks"]["witness"] = witness_holds(state, failed, helper_sets[0], hset)
            event["wall_time_s"] = time.perf_counter() - t0
            events.append(event)

    def event_ok(e: dict) -> bool:
        return "error" not in e and all(e.get("checks", {}).values())

    events_passed = sum(1 for e in events if event_ok(e))
    accepted = [a for e in events for a in e["attempts"]]
    total_attempts = sum(accepted) + exhausted
    aggregate = {
        "events_total": len(events),
        "events_passed": events_passed,
        "total_attempts": total_attempts,
        "retry_histogram": dict(Counter(str(a) for a in accepted)),
        "repair_failure_rate": (
            (total_attempts - len(accepted)) / total_attempts if total_attempts else 0.0
        ),
        "wall_time_s": time.perf_counter() - t_start,
    }
    if failure:
        aggregate["failure"] = failure
    passed = (
        construction["ok"]
        and all(construction.get("checks", {}).values())
        and failure is None
        and events_passed == len(events)
    )
    return SimReport(config=config, version=__version__, q=q,
                     construction=construction, events=events,
                     aggregate=aggregate, passed=passed)


def _seed_from(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LRRC_SEED")
    if env is not None:
        return int_field(env, "LRRC_SEED", ModelError)
    return 0


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    return tuple(int_field(part, f"{flag} entry", ModelError)
                 for part in text.split(",") if part.strip() != "")


def _parse_checks(text: str) -> list[str]:
    """Comma-separated check names, each one of CHECKS."""
    wanted = [c.strip() for c in text.split(",") if c.strip()]
    unknown = [c for c in wanted if c not in CHECKS]
    if unknown:
        raise ModelError(f"unknown checks: {unknown}")
    return wanted


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("n", type=int)
    sub.add_argument("k", type=int)
    sub.add_argument("d", type=int)
    sub.add_argument("r", type=int)


def _resolve_field(params: Params, hset: HSet, choice: int | str) -> tuple[int, int]:
    bound = required_field_size(params, hset)
    if choice == "auto":
        return next_prime(bound), bound
    return int_field(choice, "--q", ModelError), bound


def _load_state(path: str) -> CodeState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def _cmd_params(args: argparse.Namespace) -> int:
    params = params_new(args.n, args.k, args.d, args.r)
    payload = params_to_dict(params)
    f = params.family_size
    payload["families"] = [list(range(g * f + 1, (g + 1) * f + 1))
                           for g in range(params.num_families)]
    # the MBR file size under blind helper selection, for comparison
    # with M (Dimakis et al., IEEE Trans. IT 2010, beta = 1)
    payload["blind_M"] = sum(max(params.d - i, 0) for i in range(params.k))
    _emit(payload)
    return 0


def _cmd_enumerate_h(args: argparse.Namespace) -> int:
    params = params_new(args.n, args.k, args.d, args.r)
    hset = h_enumerate(params)
    for h, witness in zip(hset.members, hset.witnesses):
        sys.stdout.write(json.dumps({"h": list(h), "witness_perm": list(witness)}))
        sys.stdout.write("\n")
    print(f"enumerated {len(hset)} admissible vectors", file=sys.stderr)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    params = params_new(args.n, args.k, args.d, args.r)
    hset = h_enumerate(params)
    q, bound = _resolve_field(params, hset, args.q)
    field = field_new(q)
    state = construct(params, field, hset, rng_seed=_seed_from(args),
                      max_attempts=args.max_attempts, packet_width=args.packet_width)
    doc = state_to_dict(state)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        summary = {"q": q, "bound": bound, "attempts": state.attempts,
                   "field_below_bound": q < bound,
                   "h_count": len(hset), "out": args.out}
        _emit(summary)
    else:
        _emit(doc)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    helpers = _parse_int_list(args.helpers, "--helpers")
    repaired = repair_random(state, args.failed, helpers, rng_seed=_seed_from(args),
                             max_attempts=args.max_attempts)
    doc = state_to_dict(repaired)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _emit({"failed": args.failed, "helpers": sorted(helpers),
               "attempts": repaired.attempts, "out": args.out})
    else:
        _emit(doc)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # every flag is checked before the state is read and H enumerated
    wanted = _parse_checks(args.checks)
    if not wanted:
        raise ModelError(f"verify needs at least one check of {', '.join(CHECKS)}")
    witness = "witness" in wanted
    if witness and (args.witness_failed is None or not args.witness_helpers):
        raise ModelError("witness check needs --witness-failed and --witness-helpers")
    if not witness and (args.witness_failed is not None or args.witness_helpers is not None):
        raise ModelError("--witness-failed and --witness-helpers need the witness check")
    helpers = _parse_int_list(args.witness_helpers or "", "--witness-helpers")
    state = _load_state(args.state)
    # reconstruction reads no H, so H is enumerated only for the others
    hset = h_enumerate(state.params) if witness or "invariant" in wanted else None
    results = {}
    if "invariant" in wanted:
        results["invariant"] = invariant_check(state, hset)
    if "reconstruction" in wanted:
        results["reconstruction"] = reconstruct_check(state)
    if witness:
        results["witness"] = witness_holds(state, args.witness_failed, helpers, hset)
    _emit(results)
    return 0 if all(results.values()) else 1


def _cmd_connect(args: argparse.Namespace) -> int:
    params = params_new(args.n, args.k, args.d, args.r)
    h = _parse_int_list(args.h, "--h")
    helpers = _parse_int_list(args.helpers, "--helpers")
    result = connect_run(params, h, helpers, args.failed)
    _emit({
        "h": list(h),
        "failed": args.failed,
        "helpers": sorted(helpers),
        "h_prime": list(result.h_prime),
        "incremented": list(result.incremented),
        "trace": [connect_state_to_dict(s) for s in result.trace],
    })
    return 0


def _cmd_exact6321(args: argparse.Namespace) -> int:
    code = build_exact_code(args.q)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(code_to_dict(code), fh)
    if args.verify:
        report = verify_exact_code(code)
        _emit(report.to_dict())
        return 0 if report.passed else 1
    _emit({"q": args.q, "built": True, "emitted": args.emit or None})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    given = {name: value for name in SIMULATE_FLAGS if (value := getattr(args, name)) is not None}
    if args.config:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ModelError(f"{flags} cannot be given with --config")
        with open(args.config, "r", encoding="utf-8") as fh:
            config = sim_config_from_dict(json.load(fh))
    else:
        run = {**SIMULATE_FLAGS, **given}
        if None in (run["n"], run["k"], run["d"], run["r"]):
            raise ModelError("simulate needs --config or all of --n --k --d --r")
        checks = _parse_checks(run["checks"])
        config = sim_config_from_dict({
            "params": {key: run[key] for key in ("n", "k", "d", "r")},
            "q": run["q"],
            "seed": _seed_from(args),
            "rounds": run["rounds"],
            "failure_policy": run["failure_policy"],
            "helper_policy": run["helper_policy"],
            "checks": {name: name in checks for name in CHECKS},
            "max_attempts": run["max_attempts"],
        })
    report = simulate(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.canonical_json(include_timing=True))
        _emit({"passed": report.passed, "out": args.out})
    else:
        _emit(report.to_dict(include_timing=not args.no_timing))
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrrc",
        description="Locally repairable regenerating codes at the minimum-bandwidth point",
    )
    parser.add_argument("--version", action="version", version=f"lrrc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("params", help="derive file size and layout")
    _add_params_args(sub)
    sub.set_defaults(func=_cmd_params)

    sub = subs.add_parser("enumerate-h", help="stream the admissible selection set")
    _add_params_args(sub)
    sub.set_defaults(func=_cmd_enumerate_h)

    sub = subs.add_parser("construct", help="randomly construct a verified code")
    _add_params_args(sub)
    sub.add_argument("--q", default="auto", help="prime field size or 'auto'")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    sub.add_argument("--packet-width", type=int, default=1)
    sub.add_argument("--out", default=None, help="write the code state JSON here")
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("repair", help="regenerate one node and re-verify")
    sub.add_argument("--state", required=True)
    sub.add_argument("--failed", type=int, required=True)
    sub.add_argument("--helpers", required=True, help="comma-separated node ids")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_repair)

    sub = subs.add_parser("verify", help="run checks against a stored code state")
    sub.add_argument("--state", required=True)
    sub.add_argument("--checks", default="invariant,reconstruction")
    sub.add_argument("--witness-failed", type=int, default=None)
    sub.add_argument("--witness-helpers", default=None)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("connect", help="run the helper-increment procedure")
    _add_params_args(sub)
    sub.add_argument("--h", required=True, help="comma-separated selection vector")
    sub.add_argument("--failed", type=int, required=True)
    sub.add_argument("--helpers", required=True)
    sub.set_defaults(func=_cmd_connect)

    sub = subs.add_parser("exact6321", help="build and check the explicit six-node code")
    sub.add_argument("--q", type=int, default=7)
    sub.add_argument("--verify", action="store_true")
    sub.add_argument("--emit", default=None, help="write the code and rule table here")
    sub.set_defaults(func=_cmd_exact6321)

    sub = subs.add_parser("simulate", help="construction plus repeated failure rounds")
    sub.add_argument("--config", default=None, help="JSON config path")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--r", type=int, default=None)
    # the run flags default to None, so a --config run can refuse them;
    # SIMULATE_FLAGS holds their defaults
    sub.add_argument("--q")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--failure-policy", choices=FAILURE_POLICIES)
    sub.add_argument("--helper-policy", choices=HELPER_POLICIES)
    sub.add_argument("--checks")
    sub.add_argument("--max-attempts", type=int)
    sub.add_argument("--out", default=None)
    sub.add_argument("--no-timing", action="store_true",
                     help="drop wall-time fields from stdout output")
    sub.set_defaults(func=_cmd_simulate)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AttemptsExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, ConnectError, CodeError, GaloisError, ExactCodeError,
            OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
