#!/usr/bin/env python3
"""Walk through the explicit six-node code at a chosen prime.

Shows the storage assignments, a sample repair rule for every failed
node, and the verification summary.  For the verification report as
JSON, run `lrrc exact6321 --q Q --verify`.
"""

from __future__ import annotations

import argparse
import sys

from lrrc.exact6321 import (
    ExactCodeError,
    build_exact_code,
    parity_pairs,
    repair_rule,
    verify_exact_code,
)
from lrrc.galois import GaloisError, matrix_to_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=7)
    args = ap.parse_args()

    try:
        code = build_exact_code(args.q)
    except (ExactCodeError, GaloisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_exact_code(code)

    print(f"explicit code over GF({args.q})")
    print("coefficients " + " ".join(f"{k}={v}" for k, v in parity_pairs(code).items()))
    for i, qm in enumerate(code.Q, start=1):
        rows = matrix_to_dict(qm)["entries"]
        print(f"  node {i} stores columns {rows[0::2]} | {rows[1::2]}")
    print()
    for failed in range(1, 7):
        unavailable = 1 if failed != 1 else 4
        rule = repair_rule(code, failed, unavailable)
        sends = {h: list(v) for h, v in sorted(rule.helper_sends.items())}
        print(f"  failed={failed} unavailable={unavailable} "
              f"helpers={rule.helpers} sends={sends}")
    print()
    counts = (len(report.mds_subsets), len(report.family_pairs),
              len(report.reconstructions), len(report.exact_repairs))
    print(f"verification: passed={report.passed} entries={counts}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
