import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import (Market, PriceVector, best_bundles, generate_instance, market_graph,
                      oracle_feasible, oracle_opt, oracle_opt_value, run_exhaustive,
                      run_once, run_sampled, simulation, verify_adequate)
from dynprice.cli import main
from dynprice.errors import ContractViolationError, ModelError, OracleCapError
from dynprice.matching import solve_with_covering
from dynprice.model import restrict_market, submarket
from dynprice.simulation import oracle_structure, reversed_ordering_strategy

from conftest import (benchmark_workloads, naive_opt_value, reference_best_bundles,
                      reference_run_exhaustive)


# ---------------------------------------------------------------------------
# Oracle

def test_oracle_examples(e1, e2):
    opt1, allocs1 = oracle_opt(e1)
    assert opt1 == 5 and len(allocs1) == 1
    assert allocs1[0]["t1"] == frozenset({"s1"})
    opt2, allocs2 = oracle_opt(e2)
    assert opt2 == 14 and len(allocs2) == 1


def test_oracle_symmetric_market():
    items = ["s1", "s2", "s3"]
    buyers = ["t1", "t2", "t3"]
    m = Market.build(items, buyers, {t: 1 for t in buyers},
                     {(t, s): 2 for t in buyers for s in items})
    opt, allocs = oracle_opt(m)
    assert opt == 2 * len(items)
    assert len(allocs) == 6  # all item permutations across the three buyers


def _mixed_denominators(rng):
    # one market's values over 1, 2, 3 and 6: the DP's integer scale is their lcm
    return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 6)))


def test_oracle_matches_naive_recursion():
    for value in (lambda rng: Fraction(rng.randint(0, 4)), _mixed_denominators):
        rng = random.Random(201)
        for _ in range(30):
            nb = rng.randint(1, 3)
            ns = rng.randint(1, 5)
            buyers = [f"t{i}" for i in range(nb)]
            items = [f"s{i}" for i in range(ns)]
            m = Market.build(items, buyers, {t: rng.randint(1, 2) for t in buyers},
                             {(t, s): value(rng) for t in buyers for s in items})
            assert oracle_opt_value(m) == naive_opt_value(m)
            opt, allocs = oracle_opt(m)
            from dynprice import welfare
            assert all(welfare(m, a) == opt for a in allocs)


def _lowered(m, item=None, buyer=None):
    """m without `item` and with `buyer`'s demand lowered by one (gone at zero)."""
    items = [s for s in m.items if s != item]
    demand = {t: m.demand[t] - (t == buyer) for t in m.buyers}
    buyers = [t for t in m.buyers if demand[t] > 0]
    return Market.build(items, buyers, {t: demand[t] for t in buyers},
                        {(t, s): m.value[(t, s)] for t in buyers for s in items})


def test_oracle_structure_matches_naive_recursion():
    # empty sides, zero and fractional values, and |S| != b(T) all occur
    fractional = (lambda rng: rng.choice([Fraction(0), Fraction(rng.randint(1, 3)),
                                          Fraction(rng.randint(1, 7), rng.randint(2, 3))]))
    for value in (fractional, _mixed_denominators):
        rng = random.Random(202)
        for _ in range(300):
            buyers = [f"t{i}" for i in range(rng.randint(0, 3))]
            items = [f"s{i}" for i in range(rng.randint(0, 5))]
            vals = {(t, s): value(rng) for t in buyers for s in items}
            m = Market.build(items, buyers, {t: rng.randint(1, 3) for t in buyers}, vals)
            opt = naive_opt_value(m)
            legal, short, unused = oracle_structure(m)
            assert legal == {(s, t) for s in items for t in buyers
                             if m.value[(t, s)] + naive_opt_value(_lowered(m, s, t)) == opt}
            assert short == {t for t in buyers
                             if naive_opt_value(_lowered(m, buyer=t)) == opt}
            assert unused == {s for s in items if naive_opt_value(_lowered(m, item=s)) == opt}


def test_oracle_cap():
    items = [f"s{i}" for i in range(13)]
    m = Market.build(items, ["t1"], {"t1": 1}, {("t1", s): 1 for s in items})
    with pytest.raises(OracleCapError):
        oracle_opt_value(m)


def test_oracle_edge_legal_and_feasible(fig1):
    legal, _, _ = oracle_structure(fig1)
    assert ("s1", "t1") in legal
    assert ("s3", "t1") in legal
    assert ("s2", "t1") not in legal
    assert oracle_feasible(fig1, "t1", {"s1", "s3"})
    assert not oracle_feasible(fig1, "t1", {"s3", "s4"})
    assert not oracle_feasible(fig1, "t1", {"s1", "s3", "s4"})   # past t1's demand of 2
    with pytest.raises(ModelError):
        oracle_feasible(fig1, "nobody", {"s1"})
    with pytest.raises(ModelError):
        oracle_feasible(fig1, "t1", ["nope"])
    with pytest.raises(ModelError):
        oracle_feasible(fig1, "t1", ["s1", "s3", "nope"])


# ---------------------------------------------------------------------------
# Buyer behavior

def test_best_bundles_zero_utility_freedom():
    m = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 0})
    zero = PriceVector({"s1": Fraction(0)}, Fraction(0))
    assert best_bundles(m, "t1", zero) == [frozenset(), frozenset({"s1"})]


def test_best_bundles_all_priced_out(e1):
    high = PriceVector({"s1": Fraction(10), "s2": Fraction(10)}, Fraction(0))
    assert best_bundles(e1, "t1", high) == [frozenset()]


def test_best_bundles_refuses_a_price_vector_missing_items():
    m = generate_instance(1, 2, 1)
    with pytest.raises(ModelError, match=r"no price for items \['s2'\]"):
        best_bundles(m, "t1", PriceVector({"s1": Fraction(1)}, Fraction(0)))


def test_best_bundles_refuses_inexact_prices():
    # 1/10 - 0.1 is the float 0.0, though the exact margin of the float price is negative
    m = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): Fraction(1, 10)})
    for price in (Fraction(1, 10), 0):
        assert frozenset({"s1"}) in best_bundles(m, "t1", PriceVector({"s1": price}, Fraction(0)))
    for price in (0.1, True, "1/10"):
        with pytest.raises(ModelError, match="^prices must be ints or Fractions$"):
            best_bundles(m, "t1", PriceVector({"s1": price}, Fraction(0)))


# Few distinct values and prices make zero margins, tie classes at the cut and
# more positive margins than b(t) common; ints and Fractions are mixed.
_TIE_VALUES = (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 7))
_TIE_PRICES = (0, 1, 2, Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2),
               Fraction(1, 3), Fraction(5, 7))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_best_bundles_matches_the_full_enumeration(data):
    # b(t) runs past |S|, and the items are listed out of name order, so the
    # canonical order must come from positions in m.items
    n = data.draw(st.integers(0, 9))
    items = data.draw(st.permutations([f"s{k}" for k in range(n)]))
    buyers = ["t1", "t2"]
    demand = {t: data.draw(st.integers(1, 5)) for t in buyers}
    value = {(t, s): data.draw(st.sampled_from(_TIE_VALUES)) for t in buyers for s in items}
    m = Market.build(items, buyers, demand, value)
    p = PriceVector({s: data.draw(st.sampled_from(_TIE_PRICES)) for s in items}, Fraction(0))
    for t in buyers:
        assert best_bundles(m, t, p) == reference_best_bundles(m, t, p)


def test_best_bundles_answers_up_to_the_bundle_cap_and_refuses_past_it(monkeypatch):
    # margin 1 on s0 and s1, 0 on the next `zeros` items and -1 on the rest:
    # b(t) = 3 leaves one slot for a zero-margin item, so there are zeros + 1 bundles
    items = [f"s{k}" for k in range(24)]
    m = Market.build(items, ["t1"], {"t1": 3}, {("t1", s): 1 for s in items})

    def prices(zeros):
        return PriceVector({s: 0 if k < 2 else 1 if k < 2 + zeros else 2
                            for k, s in enumerate(items)}, Fraction(0))

    for zeros in (20, 21, 22):      # 22 to 24 candidates: the count, not the candidates, is capped
        got = best_bundles(m, "t1", prices(zeros))
        assert got == reference_best_bundles(m, "t1", prices(zeros)) and len(got) == zeros + 1
    monkeypatch.setattr(simulation, "BUNDLE_CAP", 21)
    assert len(best_bundles(m, "t1", prices(20))) == 21
    with pytest.raises(ContractViolationError, match="^bundle enumeration beyond desk scale$"):
        best_bundles(m, "t1", prices(21))
    monkeypatch.undo()
    # 23 zero-margin items and b(t) = 23 would list 2^23 bundles: refused before listing any
    wide = Market.build(items[:23], ["t1"], {"t1": 23}, {("t1", s): 1 for s in items[:23]})
    monkeypatch.setattr(simulation, "combinations", None)
    with pytest.raises(ContractViolationError, match="^bundle enumeration beyond desk scale$"):
        best_bundles(wide, "t1", PriceVector(dict.fromkeys(items[:23], 1), Fraction(0)))


@pytest.mark.parametrize("n, b, value, price", [
    (30, 3, lambda k: k + 1, lambda k: 0),     # 30 distinct positive margins
    (25, 2, lambda k: 2, lambda k: 1),         # 25 items tied at a positive cut
], ids=["distinct", "tied"])
def test_best_bundles_answers_past_22_candidates(n, b, value, price):
    items = [f"s{k}" for k in range(n)]
    m = Market.build(items, ["t1"], {"t1": b}, {("t1", s): value(k) for k, s in enumerate(items)})
    p = PriceVector({s: price(k) for k, s in enumerate(items)}, Fraction(0))
    assert best_bundles(m, "t1", p) == reference_best_bundles(m, "t1", p)


def test_best_bundles_unique_under_multi_prices(e2):
    from dynprice import multi_round
    rp = multi_round(e2)
    for t in e2.buyers:
        assert len(best_bundles(e2, t, rp.prices)) == 1


# ---------------------------------------------------------------------------
# Dynamic runs

def test_no_market_a_run_touches_holds_more_than_its_fields(monkeypatch):
    # every market that run_once, run_sampled, run_exhaustive and oracle_feasible
    # are handed, price, restrict to or get back from a round holds its fields and
    # at most its cached values, nothing a round could hand the next one.  The
    # price pools run dynamically; the calls that need the oracle run on the
    # sweep's markets, which are within its item cap.
    import dataclasses

    from dynprice.simulation import ORACLE_ITEM_CAP
    from conftest import benchmark_workloads
    workloads = benchmark_workloads()
    seen: dict[int, Market] = {}

    def keep(x):
        if isinstance(x, Market):
            seen[id(x)] = x

    def spy(call):
        def spying(*args, **kwargs):
            for x in args:
                keep(x)
            out = call(*args, **kwargs)
            keep(out)
            keep(getattr(out, "trimmed", None))
            return out
        return spying

    for name in ("restrict_market", "submarket", "unit_round", "multi_round"):
        monkeypatch.setattr(simulation, name, spy(getattr(simulation, name)))
    for workload in ("price-unit", "price-bidemand"):
        for case in workloads.set_up(workload, 3):
            keep(case.market)
            run_once(case.market, case.order)
    sweep = [case.market for case in workloads.set_up("sweep-exhaustive", 3)]
    assert max(len(m.items) for m in sweep) <= ORACLE_ITEM_CAP
    for k, m in enumerate(sweep):
        keep(m)
        assert run_exhaustive(m).all_optimal and run_sampled(m, 2, k).all_optimal
        rp = simulation._price_round(m, simulation.infer_mode(m), None)
        t = m.buyers[k % len(m.buyers)]
        assert oracle_feasible(m, t, best_bundles(m, t, rp.prices)[0])
    fields = {f.name for f in dataclasses.fields(Market)}
    assert len(seen) > 5000
    for m in seen.values():
        assert set(vars(m)) <= fields | {"value"}, set(vars(m)) - fields


def test_run_once_e2_both_orders(e2):
    for order in (["t1", "t2"], ["t2", "t1"]):
        trace = run_once(e2, order)
        assert trace.final_welfare == 14
        assert trace.leftover_items == frozenset()
        assert [s.buyer for s in trace.steps] == order


def test_run_once_e1_all_orders_and_ties(e1):
    for order in (["t1", "t2"], ["t2", "t1"]):
        for pick in (0, -1):
            trace = run_once(e1, order, tiebreak=lambda t, bs, i: bs[pick])
            assert trace.final_welfare == 5


def test_run_once_empty_market():
    m = Market.build([], [], {}, {})
    trace = run_once(m, [])
    assert trace.steps == () and trace.final_welfare == 0


def test_run_once_validates_order(e1):
    with pytest.raises(ModelError):
        run_once(e1, ["t1"])


def test_run_once_reads_an_iterator_order_once():
    # the permutation check must not use an iterator up before the run
    m = generate_instance(3, 3, 2, (1, 4))
    order = ["t3", "t1", "t2"]
    trace = run_once(m, order)
    assert len(trace.steps) == 3 and trace.final_welfare == naive_opt_value(m)
    assert run_once(m, iter(order)) == trace
    assert run_once(m, (t for t in order)) == trace


@pytest.mark.parametrize("order", [["t1", 2, "t3"], 5, ["t1", "t1", "t2"],
                                   [["t1"], "t2", "t3"], "t1t2t3"])
def test_run_once_refuses_an_order_that_is_not_a_permutation(order):
    m = generate_instance(3, 3, 2, (1, 4))
    with pytest.raises(ModelError, match="^order must be a permutation of the buyers$"):
        run_once(m, order)


@pytest.mark.parametrize("args", [(2, 30, 1, (1, 2)), (2, 16, 2, (1, 2))],
                         ids=["unit-30", "bidemand-16"])
def test_run_once_past_22_candidates_ends_at_the_optimum(args):
    # in buyer order the second arrival sees more than 22 items of non-negative margin
    m = generate_instance(*args)
    opt = solve_with_covering(market_graph(m)).value
    for order in (m.buyers, m.buyers[::-1]):
        assert run_once(m, order).final_welfare == opt


def test_run_once_welfare_accounting(e2):
    trace = run_once(e2, ["t2", "t1"])
    total = sum((sum((e2.value[(st.buyer, s)] for s in st.bundle), Fraction(0))
                 for st in trace.steps), Fraction(0))
    assert total == trace.final_welfare
    # leftovers are exactly the items trimmed away at some round
    trimmed_union = frozenset().union(*(st.trimmed_away for st in trace.steps))
    assert trace.leftover_items <= trimmed_union


def test_run_exhaustive_e1(e1):
    v = run_exhaustive(e1)
    assert v.all_optimal and v.complete and v.runs_checked >= 2
    assert v.optimum == 5 and v.counterexample is None


def test_run_exhaustive_figure_market(fig1):
    from dynprice import multi_round
    rp = multi_round(fig1)
    assert frozenset({"s3", "s4"}) not in best_bundles(fig1, "t1", rp.prices)
    v = run_exhaustive(fig1)
    assert v.all_optimal and v.complete and v.runs_checked == 6


def test_run_exhaustive_budget(e2):
    v = run_exhaustive(e2, budget=1)
    assert not v.complete
    assert v.counterexample is None


def test_run_exhaustive_takes_its_optimum_from_the_oracle(e2, monkeypatch):
    # the optimum comes through the module's `oracle_opt_value`, so a traced
    # run times the oracle's DP there; a refused mode still comes before the cap
    calls = []
    monkeypatch.setattr(simulation, "oracle_opt_value",
                        lambda m: calls.append(m) or oracle_opt_value(m))
    v = run_exhaustive(e2)
    assert calls == [e2] and v.optimum == 14 and v.all_optimal and v.complete
    items = [f"s{i}" for i in range(13)]
    m = Market.build(items, ["t1"], {"t1": 1}, {("t1", s): 1 for s in items})
    with pytest.raises(ModelError, match="^a unit-demand market takes no ordering strategy$"):
        run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
    with pytest.raises(OracleCapError, match="^oracle limited to 12 items$"):
        run_exhaustive(m)
    assert calls == [e2, m]


def _divided(m, denominators):
    """m with buyer j's values divided by denominators[j]."""
    return Market.build(m.items, m.buyers, dict(m.demand),
                        {(t, s): m.value[(t, s)] / d
                         for t, d in zip(m.buyers, denominators) for s in m.items})


@pytest.mark.parametrize("seed, buyers, profile, hi, runs, caught", [
    (500001, 3, 2, 3, 6, True), (7, 4, 1, 3, 48, False), (11, 3, [3, 2, 1], 4, 6, True)],
    ids=["bi-demand", "unit", "three-buyer"])
def test_run_exhaustive_on_fractional_values(seed, buyers, profile, hi, runs, caught):
    # values over 3 and 7, so D = 21: the search sums welfare in the oracle's
    # integer units, and none of them may reach the verdict
    m = _divided(generate_instance(seed, buyers, profile, (1, hi)), (3, 7, 1, 3))
    v = run_exhaustive(m)
    assert type(v.optimum) is Fraction and v.optimum == naive_opt_value(m)
    assert v.optimum.denominator > 1
    assert v.all_optimal and v.complete and v.runs_checked == runs
    if not caught:      # unit prices have no ordering, so the control is refused
        with pytest.raises(ModelError, match="^a unit-demand market takes no ordering strategy$"):
            run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
    else:
        bad = run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
        assert bad.complete and bad.runs_checked == runs and bad.optimum == v.optimum
        assert not bad.all_optimal
        cx = bad.counterexample
        assert type(cx.final_welfare) is Fraction and cx.final_welfare < bad.optimum
        assert cx.final_welfare == sum((m.value[(st.buyer, s)] for st in cx.steps
                                        for s in st.bundle), Fraction(0))
    partial = run_exhaustive(m, budget=1)
    assert not partial.complete and partial.counterexample is None
    assert type(partial.optimum) is Fraction and partial.optimum == v.optimum


def test_negative_counts_are_model_errors(e2):
    with pytest.raises(ModelError, match="budget"):
        run_exhaustive(e2, budget=-1)
    with pytest.raises(ModelError, match="n_orders"):
        run_sampled(e2, -3, seed=0)
    assert run_sampled(e2, 0, seed=0).runs_checked == 0


@pytest.mark.parametrize("count", ["5", 1.5, True, None])
def test_counts_that_are_not_ints_are_model_errors(e2, count):
    with pytest.raises(ModelError, match="^budget must be a non-negative int$"):
        run_exhaustive(e2, budget=count)
    with pytest.raises(ModelError, match="^n_orders must be a non-negative int$"):
        run_sampled(e2, count, seed=0)


@pytest.mark.parametrize("seed", [1.5, "1", True, None, [1]],
                         ids=["float", "str", "bool", "none", "list"])
def test_run_sampled_refuses_a_seed_that_is_not_an_int(e2, seed):
    with pytest.raises(ModelError, match="^seed must be an int$"):
        run_sampled(e2, 2, seed)


def test_unit_runs_refuse_an_ordering_strategy(tmp_path, capsys, monkeypatch):
    # unit prices have no ordering, so a strategy there would test nothing: it
    # is refused before the first round, so `simulate --sabotage reversed` exits 2
    message = "a unit-demand market takes no ordering strategy"
    assert main(["generate", "--seed", "1", "--buyers", "3"]) == 0
    path = tmp_path / "unit.json"
    path.write_text(capsys.readouterr().out)
    for extra in ([], ["--orders", "3"], ["--budget", "0"]):
        assert main(["simulate", "--input", str(path), "--sabotage", "reversed", *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    m = generate_instance(1, 3, 1)
    monkeypatch.setattr(simulation, "unit_round", None)     # no round may be priced
    for strategy in (reversed_ordering_strategy, 5):
        for call in (lambda: run_once(m, m.buyers, ordering_strategy=strategy),
                     lambda: run_exhaustive(m, ordering_strategy=strategy),
                     lambda: run_exhaustive(m, budget=0, ordering_strategy=strategy),
                     lambda: run_sampled(m, 2, 1, ordering_strategy=strategy),
                     lambda: run_sampled(m, 0, 1, ordering_strategy=strategy)):
            with pytest.raises(ModelError, match=f"^{message}$"):
                call()


def test_negative_control_d1(d1_market, d1_graph):
    # the reversed ordering must actually be inadequate on this instance
    from dynprice import market_graph, refine_covering, tight_subgraph
    g = market_graph(d1_market)
    sc = refine_covering(g)
    gpi = tight_subgraph(sc, g)
    bad = reversed_ordering_strategy(gpi)
    assert not verify_adequate(gpi, bad)
    v = run_exhaustive(d1_market, ordering_strategy=reversed_ordering_strategy)
    assert not v.all_optimal
    cx = v.counterexample
    assert cx is not None and cx.final_welfare < v.optimum
    # the trace replays: disjoint best bundles within demand, welfare adds up
    seen = set()
    residual = d1_market
    for st in cx.steps:
        assert len(st.bundle) <= d1_market.demand[st.buyer]
        assert not (st.bundle & seen)
        assert st.bundle in best_bundles(residual, st.buyer, st.prices)
        seen |= st.bundle
        residual = restrict_market(residual, st.buyer, st.bundle)
    total = sum((sum((d1_market.value[(st.buyer, s)] for s in st.bundle), Fraction(0))
                 for st in cx.steps), Fraction(0))
    assert total == cx.final_welfare


def test_a_default_run_below_the_optimum_is_an_internal_error(monkeypatch):
    # A bug past the ordering certificate (here multi_round's default ordering
    # reversed after it) must not read as a counterexample: complete, partial
    # and sampled verdicts all refuse it.  Only an explicit strategy gets one.
    from dynprice import pricing
    from dynprice.errors import InternalConsistencyError
    m = generate_instance(500001, 3, 2, (1, 3))     # the CLI's sabotage market
    assert not run_exhaustive(m, ordering_strategy=reversed_ordering_strategy).all_optimal
    monkeypatch.setattr(pricing, "dispatch_ordering", reversed_ordering_strategy)
    for run in (lambda: run_exhaustive(m), lambda: run_exhaustive(m, budget=3),
                lambda: run_sampled(m, 5, seed=0)):
        with pytest.raises(InternalConsistencyError,
                           match="^a run with the default orderings ended below the optimum$"):
            run()


def test_sabotage_always_caught():
    # whenever the reversed ordering is inadequate, the sweep finds a counterexample
    from dynprice import market_graph, refine_covering, tight_subgraph
    caught = 0
    for k in range(20):
        m = generate_instance(500000 + k, 2 + k % 4, 2, (1, (2, 3)[k % 2]))
        g = market_graph(m)
        sc = refine_covering(g)
        gpi = tight_subgraph(sc, g)
        bad = reversed_ordering_strategy(gpi)
        if verify_adequate(gpi, bad):
            continue
        v = run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
        assert not v.all_optimal and v.counterexample is not None
        assert v.counterexample.final_welfare < v.optimum
        caught += 1
    assert caught >= 5


def _counting_rounds(monkeypatch):
    """A list that grows by one for each round `_price_round` prices."""
    rounds, real = [], simulation._price_round
    monkeypatch.setattr(simulation, "_price_round",
                        lambda *args, **kwargs: rounds.append(1) or real(*args, **kwargs))
    return rounds


def test_run_exhaustive_matches_the_reference_search(monkeypatch):
    # Sharing one subtree between residual markets equal up to renaming keeps
    # every verdict of the search that memoizes on (buyers, items) alone: the
    # sweep-exhaustive pool's three regimes, and symmetric and tie-rich markets
    # where most residuals are twins.  It never prices more rounds.  Halved
    # values give twins in weights over other denominators, and two markets of
    # mixed demands give residuals equal in weights but not in demands.
    workloads = benchmark_workloads()
    markets = [case.market for case in workloads.set_up("sweep-exhaustive", 5)]
    for seed in range(20):
        for values in ((1, 1), (1, 2)):
            markets += [generate_instance(seed, 2 + seed % 5, 1, values),
                        generate_instance(seed, 3, [1 + seed % 4, 1 + seed // 4 % 4, 2], values),
                        generate_instance(seed, 2 + seed % 3, 2, values)]
    for seed in range(10):
        for m in (generate_instance(seed, 2 + seed % 4, 1, (1, 2)),
                  generate_instance(seed, 2 + seed % 3, 2, (1, 2))):
            markets.append(_divided(m, [2] * len(m.buyers)))
    markets += [generate_instance(22, 4, [1, 2, 1, 2], (1, 2)),
                generate_instance(48, 4, [2, 1, 2, 1], (1, 2))]
    rounds = _counting_rounds(monkeypatch)
    fewer = 0
    for m in markets:
        start = len(rounds)
        v = run_exhaustive(m)
        mid = len(rounds)
        assert v == reference_run_exhaustive(m)
        assert v.complete and v.all_optimal and v.counterexample is None
        assert mid - start <= len(rounds) - mid
        fewer += mid - start < len(rounds) - mid
    assert len(markets) >= 300 and fewer >= 100


def test_a_tie_rich_market_prices_each_positional_market_once(monkeypatch):
    # seven unit buyers who value every item at 1: each residual size is one
    # positional market, so seven rounds price all 7!^2 runs, and a budget of 50
    # rounds, far below the 3431 distinct states, completes the verdict
    m = generate_instance(1, 7, 1, (1, 1))
    rounds = _counting_rounds(monkeypatch)
    v = run_exhaustive(m)
    assert len(rounds) <= 7
    assert (v.runs_checked, v.all_optimal, v.complete) == (25401600, True, True)
    shared = len(rounds)
    assert reference_run_exhaustive(m) == v and len(rounds) - shared == 3431
    assert run_exhaustive(m, budget=50) == v
    partial = reference_run_exhaustive(m, budget=50)
    assert (partial.runs_checked, partial.all_optimal, partial.complete) == (15, True, False)


# CI's `simulate --sabotage reversed` markets, as generate_instance's arguments, and the
# sha256 of the verdict it prints, without the input path, as the unshared reference
# search gives it: a strategy's search shares no subtree
SABOTAGE = {
    "labels19": ((19, 3, [4, 3, 2], (1, 2)),
                 "a316541f8a6025960f3461f0976b00b0cd975d713c4afa58fca4e585ac0fb02f"),
    "labels14": ((14, 3, [4, 3, 2], (1, 3)),
                 "d50e32b5427089ab54b1092cda29cfd373e9641195a04da38ba1a01a8666c347"),
    "bi5": ((1, 5, 2, (1, 3)),
            "af06aa48777aa646b5242b6e734e3eaea9a872c9cec0092145b797c264e6b16b"),
    "sabotage": ((500001, 3, 2, (1, 3)),
                 "b02888fe0f0439975ee826f7b07a894e477a6a7ae995137b29a5a0bb565949c0"),
}


@pytest.mark.parametrize("market", sorted(SABOTAGE))
def test_sabotage_counterexamples_are_the_reference_traces(market, tmp_path, capsys):
    params, digest = SABOTAGE[market]
    seed, buyers, demands, (_, hi) = params
    demands = ",".join(map(str, demands)) if isinstance(demands, list) else str(demands)
    assert main(["generate", "--seed", str(seed), "--buyers", str(buyers),
                 "--demands", demands, "--value-hi", str(hi)]) == 0
    path = tmp_path / f"{market}.json"
    path.write_text(capsys.readouterr().out)
    assert main(["simulate", "--sabotage", "reversed", "--input", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out.pop("instance") == str(path)
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == digest
    m = generate_instance(*params)
    v = run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
    assert v == reference_run_exhaustive(m, ordering_strategy=reversed_ordering_strategy)
    assert not v.all_optimal and v.counterexample is not None


def test_a_strategy_that_reads_ids_shares_no_subtree(monkeypatch):
    # A caller's strategy sees the tight graph's ids and may read them, as this
    # one does: under it, twins need not price alike, so the search is the
    # reference's, round for round, on markets where the default one shares
    def by_id(gpi):
        return sorted(gpi.items)

    markets = [generate_instance(*params) for params, _ in SABOTAGE.values()]
    markets += [generate_instance(seed, n, 2, (1, 1 + seed % 2))
                for seed in range(6) for n in (3, 4)]
    rounds = _counting_rounds(monkeypatch)
    fewer = 0
    for m in markets:
        start = len(rounds)
        v = run_exhaustive(m, ordering_strategy=by_id)
        mid = len(rounds)
        assert v == reference_run_exhaustive(m, ordering_strategy=by_id)
        assert mid - start == len(rounds) - mid
        end = len(rounds)
        assert run_exhaustive(m).all_optimal
        fewer += len(rounds) - end < mid - start
    assert fewer >= 5


def test_healthy_run_chooses_feasible_bundles():
    # every step's bundle is feasible for the residual market (oracle check)
    rng = random.Random(301)
    for _ in range(10):
        nb = rng.randint(2, 3)
        m = generate_instance(rng.randint(0, 10**6), nb, 2, (1, 3))
        order = list(m.buyers)
        rng.shuffle(order)
        trace = run_once(m, order)
        residual = m
        for st in trace.steps:
            assert oracle_feasible(residual, st.buyer, st.bundle)
            from dynprice import restrict_market
            residual = restrict_market(residual, st.buyer, st.bundle)
        assert trace.final_welfare == oracle_opt_value(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       st.data())
def test_every_arrival_order_is_optimal_property(nb, data):
    # soundness of the whole engine on arbitrary saturated bi-demand markets
    demands = data.draw(st.lists(st.integers(1, 2), min_size=nb, max_size=nb))
    n_items = sum(demands)
    values = data.draw(st.lists(st.integers(1, 3), min_size=nb * n_items,
                                max_size=nb * n_items))
    buyers = [f"t{i}" for i in range(nb)]
    items = [f"s{i}" for i in range(n_items)]
    vals = {(t, s): Fraction(values[a * n_items + b])
            for a, t in enumerate(buyers) for b, s in enumerate(items)}
    m = Market.build(items, buyers, dict(zip(buyers, demands)), vals)
    v = run_exhaustive(m)
    assert v.all_optimal and v.complete


def test_oversupplied_market_leftovers_are_trimmed():
    # more items than total demand: the unsold items are exactly the trimmed ones
    items = ["s1", "s2", "s3", "s4"]
    m = Market.build(items, ["t1", "t2"], {"t1": 1, "t2": 1},
                     {("t1", "s1"): 7, ("t1", "s2"): 1, ("t1", "s3"): 1, ("t1", "s4"): 2,
                      ("t2", "s1"): 6, ("t2", "s2"): 5, ("t2", "s3"): 1, ("t2", "s4"): 2})
    for order in (["t1", "t2"], ["t2", "t1"]):
        trace = run_once(m, order)
        assert trace.final_welfare == oracle_opt_value(m) == 12
        trimmed_union = frozenset().union(*(step.trimmed_away for step in trace.steps))
        assert trace.leftover_items == trimmed_union == frozenset({"s3", "s4"})


def test_run_sampled_deterministic(e2):
    a = run_sampled(e2, 5, seed=3)
    b = run_sampled(e2, 5, seed=3)
    assert a.all_optimal and b.all_optimal
    assert a.runs_checked == b.runs_checked == 5
    assert not a.complete


def test_submarket_preserves_order(e2):
    sub = submarket(e2, frozenset({"s3", "s1"}), frozenset({"t2"}))
    assert sub.items == ("s1", "s3") and sub.buyers == ("t2",)


@pytest.mark.parametrize("call, message", [
    (lambda m: best_bundles(m, "nobody", PriceVector(dict.fromkeys(m.items, Fraction(0)),
                                                     Fraction(0))),
     "unknown buyer 'nobody'"),
    (lambda m: best_bundles(m, ["t1"], PriceVector(dict.fromkeys(m.items, Fraction(0)),
                                                   Fraction(0))),
     "unknown buyer ['t1']"),
    (lambda m: best_bundles(m, "t1", dict.fromkeys(m.items, Fraction(0))),
     "prices must be a PriceVector"),
    (lambda m: best_bundles(m, "t1", PriceVector(5, Fraction(0))),
     "prices must map items to prices"),
    (lambda m: run_once(m, m.buyers, lambda t, bundles, k: frozenset({"s1", "s2", "s3"})),
     "tiebreak selected a non-maximizing bundle"),
    (lambda m: run_once(m, m.buyers, 5), "the tiebreak must be callable"),
])
def test_simulation_refusals_are_model_errors(call, message):
    m = generate_instance(1, 3, 1, (1, 3))
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        call(m)


def test_sampled_runs_catch_the_reversed_ordering():
    # the sampled negative control: on the CLI's sabotage market the reversed
    # ordering ends below the optimum within 20 orders, and the trace shows it
    m = generate_instance(500001, 3, 2, (1, 3))
    assert run_sampled(m, 20, 0).all_optimal
    v = run_sampled(m, 20, 0, reversed_ordering_strategy)
    assert (v.runs_checked, v.all_optimal, v.complete) == (20, False, False)
    trace = v.counterexample
    assert trace is not None and trace.final_welfare < v.optimum
    assert trace.final_welfare == sum((m.value[(st.buyer, s)] for st in trace.steps
                                       for s in st.bundle), Fraction(0))
