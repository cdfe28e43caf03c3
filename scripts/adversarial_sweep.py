#!/usr/bin/env python3
"""Sweep random markets through exhaustive adversarial simulation.

For every generated instance the driver explores every arrival order and every
utility-maximizing tie-break, and compares each completed run against the
brute-force optimum.  An instance fails when a run ends below the optimum,
when the search is incomplete, or when the engine reports an internal error
(printed, and the sweep goes on).  Prints a per-regime summary with its own
failure count; exits non-zero on any failure.

Usage:
    python scripts/adversarial_sweep.py [--count 50] [--seed 0]
"""

import argparse
import random
import sys
import time

from dynprice import generate_instance, run_exhaustive
from dynprice.errors import InternalConsistencyError


REGIMES = [
    ("unit |T|<=6", lambda rng: (rng.randint(2, 6), 1, (1, rng.choice([4, 20])))),
    ("three-buyer b<=4", lambda rng: (3, [rng.randint(1, 4) for _ in range(3)],
                                      (1, rng.choice([3, 8])))),
    ("bi-demand |T|<=5", lambda rng: (rng.randint(2, 5), 2, (1, rng.choice([2, 3, 6])))),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=50, help="instances per regime")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    total_failures = 0
    for name, sample in REGIMES:
        rng = random.Random(args.seed)
        runs = 0
        failures = 0
        t0 = time.perf_counter()
        for k in range(args.count):
            buyers, profile, value_range = sample(rng)
            m = generate_instance(args.seed * 100003 + k, buyers, profile, value_range)
            try:
                verdict = run_exhaustive(m)
            except InternalConsistencyError as exc:
                failures += 1
                print(f"  !! internal error: regime={name} k={k}: {exc}")
                continue
            runs += verdict.runs_checked
            if not (verdict.all_optimal and verdict.complete):
                failures += 1
                print(f"  !! suboptimal or incomplete: regime={name} k={k}")
        dt = time.perf_counter() - t0
        print(f"{name}: {args.count} instances, {runs} runs, {dt:.1f}s "
              f"-> {'all optimal' if failures == 0 else f'{failures} FAILURES'}")
        total_failures += failures
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
