"""Command-line surface: instance (de)serialization, generation, and the
solve/dual/order/price/simulate/verify verbs.

Markets travel as JSON with rationals encoded as decimal integer strings or
"p/q" strings; the value matrix must be complete.  Each value crosses once, in
its buyer's column for `Market.from_columns`: ASCII digits become an int with no
regex, other values go through `rational_from_str`.  Outputs are JSON (``--pretty``
for humans).  Each verb in `VERBS` maps a market to its JSON object, and
`exit_code` alone maps failures to exit codes, here and in the walkthrough: 0
success / all-optimal, 1 verified-false, 2 usage or model error, 3 internal
error (a failed self-check or any other engine bug).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import traceback
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from . import sets
from .dual import refine_covering
from .errors import (ContractViolationError, InternalConsistencyError, ModelError,
                     OracleCapError, UnsupportedMarketError)
from .matching import solve_with_covering
from .model import Market, market_graph
from .pricing import (dispatch_ordering, infer_mode, multi_round, ordering_method,
                      tight_market, unit_round)
from .simulation import (STATE_BUDGET, RunTrace, reversed_ordering_strategy, run_exhaustive,
                         run_sampled)

_USAGE_ERROR = 2
_INTERNAL_ERROR = 3
# Largest value matrix (buyers x items) `generate_instance` builds.
GENERATE_CELL_CAP = 100_000


def rational_to_str(x: Fraction | int, d: int = 1) -> str:
    """x / d in lowest terms, as "p" or "p/q"."""
    n, q = x.numerator, x.denominator * d
    common = math.gcd(n, q)
    return str(n // common) if common == q else f"{n // common}/{q // common}"


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?$")


def rational_from_str(raw: object, path: str = "value") -> int | Fraction:
    """The rational a "p" or "p/q" string spells: an int for "p", a Fraction for "p/q"."""
    if not isinstance(raw, str):
        raise ModelError(f"{path}: rationals must be strings, got {type(raw).__name__}")
    if not _RATIONAL_RE.fullmatch(raw):
        raise ModelError(f"{path}: malformed rational {raw!r}")
    num, slash, den = raw.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError as exc:     # past the interpreter's limit on integer digits
        raise ModelError(f"{path}: {exc}") from None
    if d == 0:
        raise ModelError(f"{path}: denominator must be positive in {raw!r}")
    return Fraction(n, d) if slash else n


def parse_instance(raw: bytes | str) -> Market:
    """Validated market from JSON; errors pinpoint field paths."""
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError, TypeError) as exc:  # also long numbers, deep nests, no text
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError("top level must be an object")
    items = data.get("items")
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise ModelError("items: must be a list of strings")
    buyers_raw = data.get("buyers")
    if not isinstance(buyers_raw, list):
        raise ModelError("buyers: must be a list")
    known = set(items)
    buyers: list[str] = []
    demand: dict[str, int] = {}
    columns: list[list[int | Fraction]] = []
    for k, entry in enumerate(buyers_raw):
        path = f"buyers[{k}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{path}: must be an object")
        bid = entry.get("id")
        if not isinstance(bid, str):
            raise ModelError(f"{path}.id: must be a string")
        dem = entry.get("demand")
        if not isinstance(dem, int) or isinstance(dem, bool) or dem < 1:
            raise ModelError(f"{path}.demand: must be a positive integer")
        values = entry.get("values")
        if not isinstance(values, dict):
            raise ModelError(f"{path}.values: must be an object")
        extra = values.keys() - known
        if extra:
            raise ModelError(f"{path}.values: unknown items {sorted(extra)!r}")
        column: list[int | Fraction] = []
        for s in items:
            if s not in values:
                raise ModelError(f"{path}.values.{s}: missing (value matrix is complete)")
            v = values[s]
            if type(v) is str and v.isascii() and v.isdigit() and len(v) <= 640:
                v = int(v)      # 640 digits are within any limit on `int`
            elif (v := rational_from_str(v, f"{path}.values.{s}")) < 0:
                raise ModelError(f"{path}.values.{s}: must be non-negative")
            column.append(v)
        buyers.append(bid)
        demand[bid] = dem
        columns.append(column)
    return Market.from_columns(items, buyers, demand, columns)


def serialize_market(m: Market) -> dict:
    d, n = m.denominator, len(m.buyers)
    columns = (m.weight[k::n] for k in range(n))
    return {
        "items": list(m.items),
        "buyers": [{"id": t, "demand": m.demand[t], "values": dict(zip(
                        m.items, map(str, w) if d == 1 else [rational_to_str(x, d) for x in w]))}
                   for t, w in zip(m.buyers, columns)],
    }


def generate_instance(seed: int, buyers: int, demand_profile: int | Sequence[int],
                      value_range: tuple[int, int] = (1, 20)) -> Market:
    """Deterministic random market with |S| = total demand and positive values,
    refused (ModelError) beyond GENERATE_CELL_CAP values, before anything is built,
    for a negative buyer count, and for a seed, buyer count, demand or value bound
    that is not an int (bool included).

    Such a market always has the saturation property: an optimum that left a
    buyer short would leave an item unsold, since |S| = b(T), and giving that
    item to the buyer would raise welfare, since every value is at least one.
    """
    if type(seed) is not int:
        raise ModelError("seed must be an int")
    if type(buyers) is not int or buyers < 0:
        raise ModelError("buyers must be an int >= 0")
    uniform = type(demand_profile) is int
    if not uniform and (not isinstance(demand_profile, Sequence)
                        or any(type(d) is not int for d in demand_profile)):
        raise ModelError("demand profile must be an int or a sequence of ints")
    if (not isinstance(value_range, Sequence) or len(value_range) != 2
            or any(type(x) is not int for x in value_range)):
        raise ModelError("value range must be two ints")
    lo, hi = value_range
    if lo < 1 or hi < lo:
        raise ModelError("value range must satisfy 1 <= lo <= hi")
    n_items = demand_profile * buyers if uniform else sum(demand_profile)
    if buyers * n_items > GENERATE_CELL_CAP:
        raise ModelError(f"{buyers} buyers x {n_items} items is over the limit of "
                         f"{GENERATE_CELL_CAP} values for a generated market")
    demands = [demand_profile] * buyers if uniform else list(demand_profile)
    if len(demands) != buyers or any(d < 1 for d in demands):
        raise ModelError("demand profile must list a positive demand per buyer")
    names_t = [f"t{k + 1}" for k in range(buyers)]
    names_s = [f"s{k + 1}" for k in range(sum(demands))]
    draw = random.Random(seed).randrange       # randint(lo, hi) is randrange(lo, hi + 1)
    columns = [[draw(lo, hi + 1) for _ in names_s] for _ in names_t]
    return Market.from_columns(names_s, names_t, dict(zip(names_t, demands)), columns)


def _pi_json(pi) -> dict:
    return {v: rational_to_str(x) for v, x in pi.pi.items()}


def _trace_json(trace: RunTrace) -> dict:
    return {
        "steps": [
            {"buyer": st.buyer,
             "prices": {s: rational_to_str(p) for s, p in st.prices.price.items()},
             "delta": rational_to_str(st.prices.delta),
             "bundle": sorted(st.bundle),
             "paid": rational_to_str(st.paid),
             "trimmed_away": sorted(st.trimmed_away)}
            for st in trace.steps
        ],
        "final_welfare": rational_to_str(trace.final_welfare),
        "leftover_items": sorted(trace.leftover_items),
    }


def _generate(args) -> Market:
    try:
        demands = [int(x) for x in args.demands.split(",")]
    except ValueError:
        raise ModelError(f"--demands: not an integer or comma list: {args.demands!r}") from None
    if "," not in args.demands:
        demands = demands[0]
    return generate_instance(args.seed, args.buyers, demands, (args.value_lo, args.value_hi))


def _solve(m: Market, args) -> dict:
    res = solve_with_covering(market_graph(m))
    return {
        "welfare": rational_to_str(res.value),
        "matching": sorted([s, t] for s, t in res.matching),
        "allocation": {t: sorted(s for s, u in res.matching if u == t) for t in m.buyers},
        "pi": _pi_json(res.covering),
    }


def _dual(m: Market, args) -> dict:
    sc = refine_covering(market_graph(m))
    return {
        "pi": _pi_json(sc.pi),
        "tight_edges": sorted([s, t] for s, t in sc.tight_edges),
        "slack": None if sc.slack is None else rational_to_str(sc.slack),
    }


def _order(m: Market, args) -> dict:
    tm = tight_market(m)
    trace: list = []
    sigma = dispatch_ordering(tm.gpi, trace)
    return {
        "method": ordering_method(tm.gpi),
        "ordering": list(sigma),
        "trimmed_away": sorted(tm.removed),
        "case_trace": trace,
    }


def _price(m: Market, args) -> dict:
    mode = infer_mode(m)
    rp = unit_round(m) if mode == "unit" else multi_round(m)
    return {
        "mode": mode,
        "prices": {s: rational_to_str(p) for s, p in rp.prices.price.items()},
        "pi": _pi_json(rp.pi),
        "sigma": None if rp.sigma is None else list(rp.sigma),
        "delta": rational_to_str(rp.prices.delta),
        "trimmed_away": sorted(rp.removed),
    }


def _simulate(m: Market, args) -> dict:
    strategy = reversed_ordering_strategy if args.sabotage == "reversed" else None
    if args.orders and args.budget is not None:
        raise ModelError("--budget bounds the exhaustive search and cannot go with --orders")
    if args.orders:
        verdict = run_sampled(m, args.orders, args.seed, ordering_strategy=strategy)
    else:
        verdict = run_exhaustive(m, STATE_BUDGET if args.budget is None else args.budget,
                                 ordering_strategy=strategy)
    if verdict.runs_checked == 0:
        raise ModelError("--budget: the search stopped before any run finished")
    return {
        "instance": args.input,
        "mode": infer_mode(m),
        "runs_checked": verdict.runs_checked,
        "all_optimal": verdict.all_optimal,
        "complete": verdict.complete,
        "optimum": rational_to_str(verdict.optimum),
        "counterexample": None if verdict.counterexample is None
        else _trace_json(verdict.counterexample),
    }


def _verify(m: Market, args) -> dict:
    tm = tight_market(m)
    gpi = tm.gpi
    out: dict = {"trimmed_away": sorted(tm.removed)}
    ms = sets.min_surplus_set(gpi)
    out["min_surplus"] = None if ms is None else ms[1]
    out["dangerous_sets"] = (None if len(gpi.buyers) > sets.DANGEROUS_SETS_BUYER_CAP
                             else [sorted(Y) for Y in sets.all_dangerous_sets(gpi)])
    out["maximal_dangerous"] = (sorted(sets.grow_dangerous_set(gpi, ms[0]))
                                if ms is not None and ms[1] == 1 else None)
    feas: dict[str, dict[str, bool]] = {}
    for t in gpi.buyers:
        nbrs = gpi.buyer_adj[t]
        table: dict[str, bool] = {}
        if math.comb(len(nbrs), gpi.capacity[t]) <= 512:
            for F in combinations(nbrs, gpi.capacity[t]):
                table[",".join(F)] = sets.feasible_bundle(gpi, t, F)
        feas[t] = table
    out["feasibility"] = feas
    return out


# verb -> (market, args) -> JSON object, and its help line; `generate`'s market
# is the generated one.  The parser lists the verbs in this order.
VERBS = {
    "generate": (lambda m, args: serialize_market(m), "deterministic random market"),
    "solve": (_solve, "max-weight allocation and dual"),
    "dual": (_dual, "structured covering"),
    "order": (_order, "adequate item ordering"),
    "price": (_price, "one round of posted prices"),
    "simulate": (_simulate, "adversarial dynamic runs"),
    "verify": (_verify, "dangerous sets and feasibility tables"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dynprice",
                                  description="dynamic pricing for multi-demand markets")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (_, text) in VERBS.items():
        p = sub.add_parser(verb, help=text)
        if verb == "generate":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--buyers", type=int, required=True)
            p.add_argument("--demands", default="1",
                           help="single demand or comma list, e.g. 2 or 2,2,1")
            p.add_argument("--value-lo", type=int, default=1)
            p.add_argument("--value-hi", type=int, default=20)
        else:
            p.add_argument("--input", required=True, help="market JSON file")
        p.add_argument("--pretty", action="store_true")
        if verb == "simulate":
            p.add_argument("--orders", type=int, default=0,
                           help="sample this many random orders instead")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--budget", type=int, default=None,
                           help=f"rounds the exhaustive search may price (default {STATE_BUDGET}); "
                                "not with --orders")
            p.add_argument("--sabotage", choices=["none", "reversed"], default="none",
                           help="negative control: price with a reversed ordering")
    return top


def exit_code(run: Callable[..., int], *args) -> int:
    """run(*args), or 2 with one `error:` line for a typed error or an OSError, or 3
    with one `internal error:` line for an engine fault, never a verdict's 1."""
    try:
        return run(*args)
    except (ModelError, ContractViolationError, UnsupportedMarketError,
            OracleCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except Exception as exc:    # a failed self-check or any other bug: never exit 1
        kind = "" if isinstance(exc, InternalConsistencyError) else f"{type(exc).__name__}: "
        if kind:                # no self-check named it, so the traceback locates it
            traceback.print_exc()
        print(f"internal error: {kind}{exc}", file=sys.stderr)
        return _INTERNAL_ERROR


def _run(args) -> int:
    if args.verb == "generate":
        m = _generate(args)
    else:
        with open(args.input, "rb") as fh:
            m = parse_instance(fh.read())
    out = VERBS[args.verb][0](m, args)
    print(json.dumps(out, indent=2 if args.pretty else None, sort_keys=True))
    return 1 if out.get("all_optimal") is False else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return exit_code(_run, _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
