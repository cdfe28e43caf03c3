#!/usr/bin/env python3
"""Walk one dynamic run round by round and print everything the seller posts.

Shows the structured dual, the tight graph, the adequate ordering with the
case trace, the posted prices, and the arriving buyer's unique best bundle.
Exits 1 when the run's final welfare differs from the optimum, 2 with one
`error:` line on a market it cannot walk (one the engine refuses, or one past
the oracle's 12 items, which the optimum needs), and 3 with one
`internal error:` line on an engine fault, as `dynprice` does.

Usage:
    python scripts/price_walkthrough.py [--seed 3] [--buyers 3] [--demand 2]
"""

import argparse
import sys

from dynprice import (best_bundles, generate_instance, multi_round, oracle_opt_value,
                      restrict_market)
from dynprice.cli import exit_code
from dynprice.pricing import dispatch_ordering


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--buyers", type=int, default=3)
    ap.add_argument("--demand", type=int, default=2)
    ap.add_argument("--value-hi", type=int, default=4)
    return exit_code(walk, ap.parse_args())


def walk(args) -> int:
    m = generate_instance(args.seed, args.buyers, args.demand, (1, args.value_hi))
    optimum = oracle_opt_value(m)
    print(f"market: {len(m.items)} items, {len(m.buyers)} buyers, "
          f"optimum welfare {optimum}")
    for t in m.buyers:
        print(f"  {t} (b={m.demand[t]}): "
              + " ".join(f"{s}={m.value[(t, s)]}" for s in m.items))

    residual = m
    total = 0
    for round_no, t in enumerate(m.buyers, start=1):
        trace = []
        rp = multi_round(residual, lambda gpi: dispatch_ordering(gpi, trace))
        print(f"\nround {round_no}: pi = "
              + " ".join(f"{v}={rp.pi.pi[v]}" for v in rp.trimmed.items + rp.trimmed.buyers))
        print(f"  sigma = {list(rp.sigma)}, delta = {rp.prices.delta}")
        if trace:
            print("  case trace:", [e["case"] for e in trace])
        print("  prices:", {s: str(p) for s, p in rp.prices.price.items()})
        bundle = best_bundles(residual, t, rp.prices)[0]
        gain = sum(residual.value[(t, s)] for s in bundle)
        total += gain
        print(f"  {t} arrives, buys {sorted(bundle)} for "
              f"{sum(rp.prices.price[s] for s in bundle)} (welfare +{gain})")
        residual = restrict_market(residual, t, bundle)

    print(f"\nfinal welfare {total} (optimum {optimum})")
    return 0 if total == optimum else 1


if __name__ == "__main__":
    sys.exit(main())
