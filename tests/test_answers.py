"""Answer digests: the engine's answers on fixed markets, hashed into constants.

Each round of a dynamic run writes one canonical JSON line: the structured
dual pi, its tight edges and slack, delta, the ordering and its case trace,
the prices, the items trimmed away and the buyer's choice.  Exhaustive
verdicts and the reversed-ordering counterexample write one line each.  A
change that keeps every answer keeps every digest; a change to an answer on
purpose updates the constant in the same change and says why.

`python tests/test_answers.py` prints the current digests.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import dynprice.pricing as pricing
from dynprice import generate_instance, run_exhaustive, run_once
from dynprice.simulation import reversed_ordering_strategy

UNIT = [(seed, buyers, 1, (1, 3)) for seed, buyers in
        ((1, 16), (2, 16), (3, 17), (4, 17), (5, 18), (6, 18))]
BIDEMAND = [(seed, buyers, 2, values) for seed, buyers, values in
            ((1, 8, (1, 3)), (2, 9, (1, 3)), (3, 10, (1, 3)), (4, 11, (1, 3)),
             (5, 9, (1, 12)), (6, 10, (1, 12)), (7, 11, (1, 12)), (8, 12, (1, 12)))]
THREE = [(seed, 3, [3, 2, 1], (1, hi)) for seed in (1, 2, 3) for hi in (3, 8)]
# Two bi-demand markets whose seeded runs each reach all six cases.
CASES = [(7, 10, 2, (1, 3)), (32, 8, 2, (1, 2))]
BIDEMAND_CASES = {"base", "1", "2.1", "2.2.1", "2.2.2", "3"}
VERDICTS = [(seed, buyers, 1, (1, hi)) for seed, buyers, hi in
            ((1, 4, 4), (2, 5, 20), (3, 6, 4), (4, 6, 20))] + \
           [(seed, 3, demands, (1, 3)) for seed, demands in
            ((1, [3, 2, 1]), (2, [4, 2, 3]), (3, [1, 4, 2]), (4, [2, 2, 2]))] + \
           [(seed, buyers, 2, (1, hi)) for seed, buyers, hi in
            ((1, 4, 2), (2, 4, 6), (3, 5, 3), (4, 5, 6))]

DIGESTS = {
    "unit": "863b10cf70bb15d3da77d593a592c35b55235e4ea29faae9aef0c8aa5647c8ff",
    "bidemand": "b29b7b1a1c46a04c8f9ca3424379b546239e1db7cbad7694e7f573c759634073",
    "cases": "a5bb68f0f9ad76c1ebca5cb698ab58b40d8b687b8a1d36c321b7b434adb83aae",
    "three": "9b98a32e312b5c92780f634c7f84278b856807989728727810d371fdb97abb87",
    "verdicts": "54676255366fdf6bcd507ed709c9a411350a259b4942075d7a24c8f03f63dae3",
    "sabotage": "a5d8510a0514d5f8204af564bd078a5ba9afe1bf263b9769a7a7cd72a9953b04",
}


def plain(x):
    """x as JSON data: Fractions as strings, sets sorted, tuples as lists."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (set, frozenset)):
        return sorted(plain(y) for y in x)
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    return x


def line(record: dict) -> str:
    return json.dumps(plain(record), sort_keys=True, separators=(",", ":"))


def round_lines(params) -> list[str]:
    """One line per round of a seeded dynamic run on each generated market."""
    real_refine, real_dispatch = pricing.refine_covering, pricing.dispatch_ordering
    duals: list = []
    orderings: dict = {}            # id of a round's dual -> (ordering, case trace)

    def refine(g, m=None):
        sc = real_refine(g, m)
        duals.append(sc)
        return sc

    def dispatch(trimmed, gpi, sc, trace=None):
        trace = []
        sigma = real_dispatch(trimmed, gpi, sc, trace)
        orderings[id(sc)] = (sigma.items_in_order(), trace)
        return sigma

    lines = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pricing, "refine_covering", refine)
        mp.setattr(pricing, "dispatch_ordering", dispatch)
        for seed, buyers, demands, values in params:
            m = generate_instance(seed, buyers, demands, values)
            rng = random.Random(seed)
            order = list(m.buyers)
            rng.shuffle(order)
            duals.clear()
            orderings.clear()
            trace = run_once(m, order, lambda t, bundles, k: rng.choice(bundles))
            assert len(duals) == len(trace.steps)
            for step, sc in zip(trace.steps, duals):
                seq, cases = orderings.get(id(sc), (None, None))
                lines.append(line({
                    "buyer": step.buyer, "pi": sc.pi.pi, "tight": sc.tight_edges,
                    "slack": sc.slack, "delta": step.prices.delta, "ordering": seq,
                    "case_trace": cases, "prices": step.prices.price,
                    "removed": step.trimmed_away, "choice": step.bundle}))
            lines.append(line({"welfare": trace.final_welfare,
                               "leftover": trace.leftover_items}))
    return lines


def verdict_lines() -> list[str]:
    out = []
    for params in VERDICTS:
        v = run_exhaustive(generate_instance(*params))
        out.append(line({"market": params, "runs": v.runs_checked, "all_optimal": v.all_optimal,
                         "complete": v.complete, "optimum": v.optimum}))
    return out


def sabotage_lines() -> list[str]:
    """The counterexample the reversed ordering yields on the CLI's sabotage market."""
    v = run_exhaustive(generate_instance(500001, 3, 2, (1, 3)),
                       ordering_strategy=reversed_ordering_strategy)
    assert not v.all_optimal and v.counterexample is not None
    ce = v.counterexample
    return [line({"buyer": st.buyer, "prices": st.prices.price, "delta": st.prices.delta,
                  "bundle": st.bundle, "paid": st.paid, "removed": st.trimmed_away})
            for st in ce.steps] + [line({"welfare": ce.final_welfare, "optimum": v.optimum,
                                         "runs": v.runs_checked})]


RECORDS = {
    "unit": lambda: round_lines(UNIT),
    "bidemand": lambda: round_lines(BIDEMAND),
    "cases": lambda: round_lines(CASES),
    "three": lambda: round_lines(THREE),
    "verdicts": verdict_lines,
    "sabotage": sabotage_lines,
}


def digest(name: str) -> str:
    return hashlib.sha256("\n".join(RECORDS[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_answers_keep_their_digest(name):
    assert digest(name) == DIGESTS[name]


@pytest.mark.parametrize("params", CASES)
def test_cases_record_reaches_every_case(params):
    seen = {entry["case"] for ln in round_lines([params])
            for entry in json.loads(ln).get("case_trace") or ()}
    assert seen == BIDEMAND_CASES


if __name__ == "__main__":
    for name in DIGESTS:
        print(f'    "{name}": "{digest(name)}",')
