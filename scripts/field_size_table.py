#!/usr/bin/env python3
"""Construction success versus field size.

For each parameter point: the admissible-set size, the sufficient field
bound, the recommended prime, and measured first-attempt construction
rates at that prime and at a few deliberately undersized primes.  The
sufficient bound is loose in practice; this table shows by how much.
"""

from __future__ import annotations

import argparse
import logging

from lrrc.code_core import construct, required_field_size, ConstructionFailed
from lrrc.galois import field_new, next_prime
from lrrc.mfhs import h_enumerate, params_new

# undersized fields are the whole point here, skip the per-call warning
logging.getLogger("lrrc.code_core").setLevel(logging.ERROR)

POINTS = ((6, 4, 3, 1), (6, 3, 2, 1), (4, 2, 1, 1), (6, 5, 3, 1))


def success_rate(params, field, hset, trials: int) -> tuple[float, float]:
    first = done = 0
    for seed in range(trials):
        try:
            state = construct(params, field, hset, rng_seed=seed, max_attempts=8)
        except ConstructionFailed:
            continue
        done += 1
        if state.attempts == 1:
            first += 1
    return first / trials, done / trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be at least 1, got {args.trials}")

    header = f"{'params':>14} {'|H|':>6} {'bound':>8} {'prime':>8} {'q':>8} {'first-try':>10} {'done':>6}"
    print(header)
    print("-" * len(header))
    for nkdr in POINTS:
        params = params_new(*nkdr)
        hset = h_enumerate(params)
        bound = required_field_size(params, hset)
        prime = next_prime(bound)
        tried = []
        for q in (prime, next_prime(bound // 16), next_prime(max(2, bound // 256)), 7):
            if q in tried:
                continue
            tried.append(q)
            rate1, rated = success_rate(params, field_new(q), hset, args.trials)
            print(f"{str(nkdr):>14} {len(hset):>6} {bound:>8} {prime:>8} "
                  f"{q:>8} {rate1:>10.2f} {rated:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
