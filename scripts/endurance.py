#!/usr/bin/env python3
"""Long-haul repair endurance run.

Constructs a code, then hammers it with failure rounds under the chosen
policies.  Every accepted repair has passed the full invariant check,
which implies reconstruction from any k nodes (Lemma C of
lrrc.code_core); the report records both verdicts.
Prints the aggregate JSON to stdout; optionally stores the whole
report.  Exit codes follow the lrrc CLI: 0 passed, 1 a check failed,
2 invalid parameters or field size.
"""

from __future__ import annotations

import argparse
import json
import sys

from lrrc.cli_sim import FAILURE_POLICIES, HELPER_POLICIES, sim_config_from_dict, simulate
from lrrc.galois import GaloisError
from lrrc.mfhs import ModelError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--r", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--failure-policy", default="uniform-random",
                    choices=FAILURE_POLICIES)
    ap.add_argument("--helper-policy", default="uniform-random",
                    choices=HELPER_POLICIES)
    ap.add_argument("--q", default="auto")
    ap.add_argument("--report", default=None, help="write the full report here")
    args = ap.parse_args()

    try:
        report = simulate(sim_config_from_dict({
            "params": {"n": args.n, "k": args.k, "d": args.d, "r": args.r},
            "q": args.q,
            "seed": args.seed,
            "rounds": args.rounds,
            "failure_policy": args.failure_policy,
            "helper_policy": args.helper_policy,
        }))
    except (ModelError, GaloisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.canonical_json(include_timing=True))
        print(f"report written to {args.report}", file=sys.stderr)
    print(json.dumps({"passed": report.passed, "q": report.q,
                      **report.aggregate}, indent=2, sort_keys=True))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
