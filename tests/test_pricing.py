import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from dynprice import (BipartiteGraph, Market, best_bundles, dual, feasible_bundle,
                      generate_instance, market_graph, model, multi_round, orderings, pricing,
                      refine_covering, run_exhaustive, run_once, run_sampled, tight_subgraph,
                      trim_items, unit_round, verify_adequate)
from dynprice.errors import ContractViolationError, ModelError, UnsupportedMarketError
from dynprice.simulation import oracle_feasible

from conftest import (benchmark_workloads, graph_fields, reference_components,
                      reference_feasible_bundle, reference_tight_subgraph,
                      reference_verify_adequate)


def test_unit_prices_e1(e1):
    rp = unit_round(e1)
    pi = rp.pi.pi
    u11 = e1.value[("t1", "s1")] - rp.prices.price["s1"]
    u12 = e1.value[("t1", "s2")] - rp.prices.price["s2"]
    assert u11 == pi["t1"]       # legal edge attains the dual value
    assert u12 < pi["t1"]        # non-legal edge falls strictly short
    assert rp.prices.delta == 0


def test_unit_prices_trivial():
    m = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 2})
    rp = unit_round(m)
    assert rp.prices.price["s1"] == rp.pi.pi["s1"]
    assert m.value[("t1", "s1")] - rp.prices.price["s1"] == rp.pi.pi["t1"] >= 0


def test_unit_prices_zero_market():
    empty = Market.build([], ["t1"], {"t1": 1}, {})
    assert unit_round(empty).prices.price == {}
    zero = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 0})
    rp = unit_round(zero)
    # the worthless item is trimmed away and priced out of reach
    assert rp.removed == frozenset({"s1"})
    assert rp.prices.price["s1"] > 0


def test_unit_rejects_multi(e2):
    with pytest.raises(ContractViolationError):
        unit_round(e2).prices


def test_unit_zero_slack_choices_feasible():
    # every utility-maximizing single choice is a feasible set, ties included
    rng = random.Random(101)
    for _ in range(20):
        nb = rng.randint(1, 4)
        m = generate_instance(rng.randint(0, 10**6), nb, 1, (1, 3))
        rp = unit_round(m)
        for t in m.buyers:
            for bundle in best_bundles(m, t, rp.prices):
                assert oracle_feasible(m, t, bundle)


def test_multi_prices_e2(e2):
    rp = multi_round(e2)
    assert best_bundles(e2, "t1", rp.prices) == [frozenset({"s1", "s2"})]
    assert best_bundles(e2, "t2", rp.prices) == [frozenset({"s3", "s4"})]
    assert rp.prices.delta > 0
    vec = multi_round(e2).prices
    assert vec.price == rp.prices.price


def test_multi_prices_d1_market(d1_market):
    rp = multi_round(d1_market)
    gpi_first = best_bundles(d1_market, d1_market.buyers[0], rp.prices)
    assert len(gpi_first) == 1
    assert oracle_feasible(d1_market, d1_market.buyers[0], gpi_first[0])


def test_multi_prices_single_buyer():
    m = Market.build(["s1", "s2"], ["t1"], {"t1": 2},
                     {("t1", "s1"): 3, ("t1", "s2"): 1})
    rp = multi_round(m)
    assert best_bundles(m, "t1", rp.prices) == [frozenset({"s1", "s2"})]


def test_multi_utility_invariants():
    rng = random.Random(111)
    for _ in range(15):
        nb = rng.randint(2, 4)
        m = generate_instance(rng.randint(0, 10**6), nb, 2, (1, 4))
        rp = multi_round(m)
        g = market_graph(rp.trimmed)
        sc = refine_covering(g)
        delta = rp.prices.delta
        for t in m.buyers:
            tight = [s for s in rp.trimmed.items
                     if (s, t) in sc.tight_edges]
            others = [s for s in rp.trimmed.items if s not in tight]
            u = {s: m.value[(t, s)] - rp.prices.price[s] for s in rp.trimmed.items}
            for s in tight:
                assert u[s] > 0                      # tight items stay attractive
            for s in tight:
                for s2 in others:
                    assert u[s2] < u[s]              # tight beats non-tight strictly
            # the winning bundle is the first b(t) tight neighbors by sigma
            want = frozenset([s for s in rp.sigma if s in tight][:m.demand[t]])
            got = best_bundles(m, t, rp.prices)
            assert got == [want]


def test_multi_refuses_without_saturation():
    for items, demand, values in [
        # a zero-value item makes the single buyer's saturation fail after trimming
        (["s1", "s2"], {"t1": 2}, {("t1", "s1"): 3, ("t1", "s2"): 0}),
        # no items at all, and only zero values: |S| = 0 after trimming
        ([], {"t1": 2}, {}),
        (["s1", "s2"], {"t1": 2}, {("t1", "s1"): 0, ("t1", "s2"): 0}),
        # three items for a total demand of four: an optimum leaves t2 short
        (["s1", "s2", "s3"], {"t1": 2, "t2": 2},
         {("t1", "s1"): 3, ("t1", "s2"): 1, ("t1", "s3"): 1,
          ("t2", "s1"): 1, ("t2", "s2"): 0, ("t2", "s3"): 0}),
    ]:
        with pytest.raises(UnsupportedMarketError, match="saturation property fails"):
            multi_round(Market.build(items, list(demand), demand, values))


def test_multi_refuses_unsupported_regime():
    m = generate_instance(5, 4, 3, (1, 4))  # four buyers, demand three
    with pytest.raises(UnsupportedMarketError):
        multi_round(m)


@pytest.mark.parametrize("params", [(500001, 4, 2, (1, 3)), (1, 3, [3, 2, 1], (1, 3))],
                         ids=["bi-demand", "three-buyer"])
def test_a_strategy_receives_the_round_tight_graph(params):
    m = generate_instance(*params)
    seen = []

    def strategy(gpi):
        seen.append(gpi)
        return pricing.dispatch_ordering(gpi)

    assert multi_round(m, strategy).sigma == multi_round(m).sigma
    assert [graph_fields(g) for g in seen] == [graph_fields(pricing.tight_market(m).gpi)]


@pytest.mark.parametrize("caps, method", [
    ((1, 1), "three-buyer"), ((5, 1, 3), "three-buyer"), ((3, 3, 3), "three-buyer"),
    ((2, 1, 2, 2), "bi-demand"), ((1, 1, 1, 1, 1), "bi-demand"), ((2, 2, 3, 1), None)])
def test_ordering_method_reads_the_graph_alone(caps, method):
    buyers = [f"t{k + 1}" for k in range(len(caps))]
    items = [f"s{k + 1}" for k in range(sum(caps))]
    g = BipartiteGraph.build(items, buyers, {(s, t): 1 for s in items for t in buyers},
                             dict(zip(buyers, caps)))
    if method is None:
        with pytest.raises(UnsupportedMarketError, match="demands above two"):
            pricing.ordering_method(g)
    else:
        assert pricing.ordering_method(g) == method


@pytest.mark.parametrize("foreign, message", [
    # one trimmed item left out, and an item the trimmed market lacks
    (lambda items: items[:-1], "ordering domain does not match graph items"),
    (lambda items: items + ("s99",), "ordering domain does not match graph items"),
    # no sequence at all, in every entry point that takes a strategy
    (lambda items: None, "ordering must be hashable ids"),
], ids=["missing-item", "extra-item", "none"])
def test_multi_refuses_an_ordering_of_other_items(foreign, message):
    m = generate_instance(500001, 3, 2, (1, 3))

    def strategy(gpi):
        return foreign(gpi.items)

    for call in (lambda: multi_round(m, strategy),
                 lambda: run_once(m, m.buyers, ordering_strategy=strategy),
                 lambda: run_exhaustive(m, ordering_strategy=strategy),
                 lambda: run_sampled(m, 2, 1, ordering_strategy=strategy)):
        with pytest.raises(ModelError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("shape", [list, lambda seq: (s for s in seq)],
                         ids=["list", "generator"])
def test_a_strategy_may_return_any_sequence_of_the_items(shape):
    # a list or a generator prices exactly as the tuple it lists, in every
    # entry point that takes a strategy
    m = generate_instance(500001, 3, 2, (1, 3))

    def strategy(gpi):
        return shape(pricing.dispatch_ordering(gpi))

    want, got = multi_round(m), multi_round(m, strategy)
    assert got.sigma == want.sigma and type(got.sigma) is tuple
    assert got.prices == want.prices
    assert run_once(m, m.buyers, ordering_strategy=strategy) == run_once(m, m.buyers)
    assert run_exhaustive(m, ordering_strategy=strategy) == run_exhaustive(m)
    assert run_sampled(m, 2, 1, ordering_strategy=strategy) == run_sampled(m, 2, 1)


@pytest.mark.parametrize("strategy", ["x", 5])
def test_multi_refuses_a_strategy_that_is_not_callable(strategy, monkeypatch):
    # refused before any pricing, in every entry point that takes a strategy
    m = generate_instance(500001, 3, 2, (1, 3))
    monkeypatch.setattr(pricing, "tight_market", None)
    for call in (lambda: multi_round(m, strategy),
                 lambda: run_once(m, m.buyers, ordering_strategy=strategy),
                 lambda: run_exhaustive(m, ordering_strategy=strategy),
                 lambda: run_sampled(m, 2, 1, ordering_strategy=strategy)):
        with pytest.raises(ModelError, match="^the ordering strategy must be callable$"):
            call()


def test_multi_handles_untrimmed_input():
    # saturation holds but an extra item must be trimmed before pricing
    m = Market.build(["s1", "s2", "s3"], ["t1"], {"t1": 1},
                     {("t1", "s1"): 5, ("t1", "s2"): 5, ("t1", "s3"): 1})
    rp = multi_round(m)
    assert rp.removed and len(rp.trimmed.items) == 1
    bundle = best_bundles(m, "t1", rp.prices)
    assert len(bundle) == 1 and len(bundle[0]) == 1
    chosen = next(iter(bundle[0]))
    assert m.value[("t1", chosen)] == 5


def test_multi_trivial_round_without_buyers():
    # no buyer means no item survives trimming: price everything out of reach
    m = Market.build(["s1", "s2"], [], {}, {})
    rp = multi_round(m)
    assert rp.removed == frozenset({"s1", "s2"})
    assert rp.prices.delta == 0
    assert all(p > 0 for p in rp.prices.price.values())
    assert set(rp.prices.price) == {"s1", "s2"}
    assert multi_round(Market.build([], [], {}, {})).prices.price == {}


@pytest.mark.parametrize("workload", ["price-bidemand", "price-unit"])
def test_rounds_refine_the_trimmed_graph_on_price_pools(monkeypatch, workload):
    # Every round refines the graph trim_items returns, which equals
    # market_graph of the trimmed market field for field, starting from trim's
    # optimum; every tight graph equals the from-scratch reference; and the
    # components of every graph the bi-demand recursion cuts are the connected
    # components of the from-scratch tight graph of its own refined dual.
    workloads = benchmark_workloads()
    last_trim: list = []
    counts = {"refine": 0, "tight": 0, "split": 0}

    def trim(m):
        trimmed, g, removed, best = model.trim_items(m)
        assert graph_fields(g) == graph_fields(market_graph(trimmed))
        last_trim[:] = [g, best]
        return trimmed, g, removed, best

    def refine(g, m):
        assert g is last_trim[0] and m is last_trim[1]
        counts["refine"] += 1
        return dual.refine_covering(g, m)

    def tight(sc, g):
        gpi = dual.tight_subgraph(sc, g)
        assert graph_fields(gpi) == graph_fields(reference_tight_subgraph(sc, g))
        counts["tight"] += 1
        return gpi

    real_wrapper = orderings._bidemand_wrapper

    def wrapper(h, trace, depth):
        sc = dual.refine_covering(h, frozenset(h.max_cardinality_bmatching[0].items()))
        comps = orderings._components(h)
        assert comps == reference_components(reference_tight_subgraph(sc, h))
        counts["split"] += len(comps) > 1
        return real_wrapper(h, trace, depth)

    monkeypatch.setattr(workloads, "probe", lambda: workloads.REFERENCE_S)  # no timing here
    monkeypatch.setattr(pricing, "trim_items", trim)
    monkeypatch.setattr(pricing, "refine_covering", refine)
    monkeypatch.setattr(pricing, "tight_subgraph", tight)
    monkeypatch.setattr(orderings, "_bidemand_wrapper", wrapper)
    mode = "unit" if workload == "price-unit" else "multi"
    rounds = 0
    for seed in (3, 41):
        for case in workloads.set_up(workload, seed):
            out = workloads.dynamic_run(case, mode)
            assert out.error is None
            rounds += len(out.rounds)
    assert counts["refine"] == rounds
    assert counts["tight"] == (rounds if mode == "multi" else 0)
    assert (counts["split"] > 0) == (mode == "multi")


def test_one_hungarian_solve_per_round(monkeypatch):
    # each round's trim makes the round's one weighted solve: the structured
    # duals, the bi-demand recursion's included, start from optima their callers
    # hold, and no round reads anything an earlier round left
    import dynprice.matching as matching_mod
    solves = []                 # per solve: was it made inside trim?
    hungarian, trim = matching_mod._hungarian, pricing.trim_items
    inside = [False]
    refines, recursions = [], []

    def counting(*args, **kwargs):
        solves.append(inside[0])
        return hungarian(*args, **kwargs)

    def trimming(m):
        inside[0] = True
        try:
            return trim(m)
        finally:
            inside[0] = False

    def solves_in(call, sink):          # the solves each call of `call` makes
        def spy(*args):
            before = len(solves)
            out = call(*args)
            sink.append(len(solves) - before)
            return out
        return spy

    monkeypatch.setattr(matching_mod, "_hungarian", counting)
    monkeypatch.setattr(pricing, "trim_items", trimming)
    monkeypatch.setattr(pricing, "refine_covering", solves_in(pricing.refine_covering, refines))
    monkeypatch.setattr(pricing, "adequate_bidemand",
                        solves_in(orderings.adequate_bidemand, recursions))
    rounds = 0
    for seed in range(24):
        for m, price in ((generate_instance(seed, 4 + seed % 5, 2, (1, 3)), multi_round),
                         (generate_instance(seed, 3, [1, 2, 3], (1, 4)), multi_round),
                         (generate_instance(seed, 6 + seed % 4, 1, (1, 3)), unit_round)):
            while m.buyers:
                before = len(solves)
                rp = price(m)
                assert solves[before:] == [True]
                rounds += 1
                t = m.buyers[seed % len(m.buyers)]
                m = model.restrict_market(m, t, best_bundles(m, t, rp.prices)[0])
    assert rounds > 350 and len(refines) == rounds and set(refines) == {0}
    assert len(recursions) > 50 and set(recursions) == {0}


def _round_fields(rp):
    return (rp.prices.price, rp.prices.delta, rp.sigma, rp.pi.pi, rp.removed, rp.trimmed)


def _run_against_fresh_copies(m, price, pick, rng):
    """Price a run on m in a random order, the buyer taking `pick` of its best bundles.
    Every round equals the round on a fresh `Market.build` copy of the same values.
    Returns the number of rounds after the first."""
    rounds = 0
    for k, t in enumerate(rng.sample(m.buyers, len(m.buyers))):
        fresh = Market.build(m.items, m.buyers, m.demand, dict(m.value))
        rp = price(m)
        rounds += k > 0
        assert _round_fields(rp) == _round_fields(price(fresh))
        m = model.restrict_market(m, t, pick(best_bundles(m, t, rp.prices)))
    return rounds


def _market_corpus(seed):
    """(kind, market, pricing) for the runs of the round tests: unit, three-buyer
    and bi-demand markets, with a zero-valued or surplus item, crowded with more
    buyers than items, and under the reversed ordering."""
    from dynprice.simulation import reversed_ordering_strategy
    reversed_round = lambda m: multi_round(m, reversed_ordering_strategy)

    def with_items(m, extra, value):
        values = dict(m.value) | {(t, x): value(j, k) for j, t in enumerate(m.buyers)
                                  for k, x in enumerate(extra)}
        return Market.build(m.items + extra, m.buyers, m.demand, values)

    r = random.Random(seed)         # six unit buyers, four items, values 0..2
    items, buyers = [f"s{k}" for k in range(4)], [f"t{j}" for j in range(6)]
    crowded = Market.build(items, buyers, dict.fromkeys(buyers, 1),
                           {(t, s): r.randint(0, 2) for t in buyers for s in items})
    return [("unit", generate_instance(seed, 6 + seed % 7, 1, (1, 3)), unit_round),
            ("three", generate_instance(seed, 3, [3, 2, 1], (1, 4)), multi_round),
            ("bidemand", generate_instance(seed, 4 + seed % 5, 2, (1, 3)), multi_round),
            ("zero", with_items(generate_instance(seed, 6, 1, (1, 3)), ("z",),
                                lambda j, k: 0), unit_round),
            ("surplus", with_items(generate_instance(seed, 5, 2, (1, 4)), ("x1", "x2"),
                                   lambda j, k: Fraction((j + k) % 3, 5)), multi_round),
            ("empty", crowded, unit_round),
            ("reversed", generate_instance(500001 + seed, 3, 2, (1, 3)), reversed_round),
            ("reversed", generate_instance(seed, 5, 2, (1, 3)), reversed_round)]


def test_every_round_of_a_run_is_the_round_of_a_fresh_copy():
    # every price, delta, ordering, dual, trimmed item and trimmed market of a
    # run's rounds is the one a fresh copy of the residual gets: the markets
    # that trim, that sell a bundle in no optimum or that an empty-handed buyer
    # leaves included
    rng = random.Random(34)
    empties = []

    def take_empty(bundles):        # the empty bundle wherever it is a best one
        empties.append(min(bundles, key=len))
        return empties[-1]

    rounds = dict.fromkeys(("unit", "three", "bidemand", "zero", "surplus", "empty",
                            "reversed"), 0)
    for seed in range(12):
        for kind, m, price in _market_corpus(seed):
            pick = take_empty if kind == "empty" else (lambda bundles: bundles[0])
            rounds[kind] += _run_against_fresh_copies(m, price, pick, rng)
    for kind in ("unit", "three", "bidemand"):
        assert rounds[kind] >= 24, kind
    for kind in ("zero", "surplus", "empty", "reversed"):
        assert rounds[kind] > 30, kind
    assert empties.count(frozenset()) > 10


def test_trim_starts_greedily_only_where_every_optimum_uses_every_item(monkeypatch):
    # each round's one solve takes the greedy start exactly on the markets whose
    # values are all positive and whose demands total at least the items, and
    # never on the markets with a zero-valued or a surplus item
    import dynprice.matching as matching_mod
    hungarian, starts = matching_mod._hungarian, []

    def spying(n_rows, n_cols, weight, greedy=False):
        starts.append(greedy)
        return hungarian(n_rows, n_cols, weight, greedy)

    def recording(price):
        def priced(m):
            before = len(starts)
            rp = price(m)
            guarded = min(m.weight, default=1) > 0 and sum(m.demand.values()) >= len(m.items)
            assert starts[before:] == [guarded]
            rounds[kind, guarded] += 1
            return rp
        return priced

    monkeypatch.setattr(matching_mod, "_hungarian", spying)
    rounds = Counter()              # (kind, start taken) -> rounds
    rng = random.Random(41)
    for seed in range(12):
        for kind, m, price in _market_corpus(seed):
            _run_against_fresh_copies(m, recording(price), lambda bundles: bundles[0], rng)
    assert rounds["zero", True] == rounds["surplus", True] == 0
    assert min(rounds["zero", False], rounds["surplus", False]) >= 60
    assert min(rounds[kind, True] for kind in ("unit", "three", "bidemand", "reversed")) >= 60


def test_a_market_priced_twice_gives_the_same_round_and_keeps_its_vars():
    # a round writes nothing on the market it prices, so the second pricing of
    # a market is the first one again
    priced = 0
    for seed in range(12):
        for _, m, price in _market_corpus(seed):
            m.value                 # the one cached property a round may read
            before = dict(vars(m))
            first = price(m)
            assert _round_fields(price(m)) == _round_fields(first)
            assert vars(m) == before
            priced += 1
    assert priced == 96


def test_restrict_market_leaves_its_input_as_it_was():
    # restricted twice, a market gives equal residuals and stays equal to a fresh
    # copy with the same vars; a residual restricted again prices as a fresh copy
    restricted = 0
    for seed in range(24):
        for m, price in ((generate_instance(seed, 5 + seed % 5, 1, (1, 3)), unit_round),
                         (generate_instance(seed, 4 + seed % 4, 2, (1, 3)), multi_round)):
            rp = price(m)
            fresh = Market.build(m.items, m.buyers, m.demand, dict(m.value))
            before = dict(vars(m))
            best = trim_items(m)[3]
            t1, t2 = m.buyers[:2]
            first = best_bundles(m, t1, rp.prices)[0]
            r = model.restrict_market(m, t1, first)
            assert r == model.restrict_market(m, t1, first)
            assert m == fresh and vars(m) == before
            # t2 takes its items in trim's optimum, or leaves with nothing
            second = [frozenset(s for s, t in best if t == t2 and s not in first), frozenset()]
            r = model.restrict_market(r, t2, second[seed % 2])
            again = Market.build(r.items, r.buyers, r.demand, dict(r.value))
            assert _round_fields(price(r)) == _round_fields(price(again))
            restricted += 1
    assert restricted == 48


def _renamed(m, rng):
    """m under fresh ids in the same positions, and the map from old ids to new.  The
    new ids are drawn at random, so their sorted order and hashes follow no position."""
    draws = rng.sample(range(10 ** 6), len(m.items) + len(m.buyers))
    name = {v: f"{'sb'[k >= len(m.items)]}{x}" for k, (v, x) in
            enumerate(zip(m.items + m.buyers, draws))}
    return Market.build([name[s] for s in m.items], [name[t] for t in m.buyers],
                        {name[t]: m.demand[t] for t in m.buyers},
                        {(name[t], name[s]): x for (t, s), x in m.value.items()}), name


def test_a_round_is_a_function_of_its_positional_market():
    # Ids are labels: under fresh names in the same positions, every round of a run
    # posts the same prices, delta, ordering, removed items and pi by position, and
    # every buyer's best bundles are the same by position.  `run_exhaustive` shares
    # one subtree between residual markets equal up to renaming on this ground.
    workloads = benchmark_workloads()
    rng = random.Random(43)
    regime_of = dict(zip((name for name, _ in workloads.SWEEP_REGIMES),
                         ("unit", "three", "bidemand")))
    runs = [(regime_of[case.label.split("#")[0]], case.market, case.order)
            for case in workloads.set_up("sweep-exhaustive", 3)]
    for seed in range(60):
        for regime, m in (("unit", generate_instance(seed, 2 + seed % 6, 1, (1, 1 + seed % 3))),
                          ("three", generate_instance(seed, 3, [4, 3, 2], (1, 1 + seed % 3))),
                          ("bidemand", generate_instance(seed, 2 + seed % 5, 2,
                                                         (1, 1 + seed % 3)))):
            runs.append((regime, m, tuple(rng.sample(m.buyers, len(m.buyers)))))
    markets, rounds = Counter(), 0
    for regime, m, order in runs:
        price = unit_round if pricing.infer_mode(m) == "unit" else multi_round
        twin, name = _renamed(m, rng)
        markets[regime] += 1
        for t in order:
            rp, rq = price(m), price(twin)
            assert [rq.prices.price[name[s]] for s in m.items] == \
                [rp.prices.price[s] for s in m.items]
            assert rq.prices.delta == rp.prices.delta
            assert rq.sigma == (None if rp.sigma is None else tuple(name[s] for s in rp.sigma))
            assert rq.removed == {name[s] for s in rp.removed}
            assert [rq.pi.pi[name[v]] for v in m.items + m.buyers] == \
                [rp.pi.pi[v] for v in m.items + m.buyers]
            bundles = best_bundles(m, t, rp.prices)
            assert best_bundles(twin, name[t], rq.prices) == \
                [{name[s] for s in bundle} for bundle in bundles]
            pick = rng.randrange(len(bundles))
            m = model.restrict_market(m, t, bundles[pick])
            twin = model.restrict_market(twin, name[t], {name[s] for s in bundles[pick]})
            rounds += 1
    assert sum(markets.values()) >= 300 and min(markets.values()) >= 50, markets
    assert rounds > 1000


def test_no_round_grows_the_same_bmatching_twice(monkeypatch):
    # every graph of a round, the tight graph and the bi-demand recursion's
    # graphs included, grows its maximum b-matching at most once: no copy
    # regrows it, and the tight graph grows none, holding trim's optimum
    from dynprice import BipartiteGraph
    workloads = benchmark_workloads()
    name = "max_cardinality_bmatching"
    grow = getattr(BipartiteGraph, name).func
    grown: list = []
    read: dict = {}             # id -> each graph whose b-matching the round reads
    tight: list = []            # each round's tight graph
    rounds, tight_read = [], 0
    price, cut = pricing.multi_round, pricing.tight_subgraph

    class Reading:
        # a data descriptor: it sees every read, of a grown or a seeded b-matching
        def __get__(self, g, cls=None):
            if g is None:
                return self
            read[id(g)] = g
            if name not in g.__dict__:
                grown.append(g)
                g.__dict__[name] = grow(g)
            return g.__dict__[name]

        def __set__(self, g, value):
            raise AttributeError(name)

    def tight_subgraph(sc, g):
        tight.append(cut(sc, g))
        return tight[-1]

    def round_(m, strategy=None):
        nonlocal tight_read
        grown.clear()
        read.clear()
        rp = price(m, strategy)
        rounds.append(len(read))
        keys = [(g.edges, frozenset(g.capacity.items())) for g in grown]
        assert len(set(keys)) == len(keys)
        assert not any(g is tight[-1] for g in grown)
        tight_read += id(tight[-1]) in read
        return rp

    monkeypatch.setattr(BipartiteGraph, name, Reading())
    monkeypatch.setattr(workloads, "probe", lambda: workloads.REFERENCE_S)  # no timing here
    monkeypatch.setattr(pricing, "multi_round", round_)
    monkeypatch.setattr(pricing, "tight_subgraph", tight_subgraph)
    for case in workloads.set_up("price-bidemand", 3):
        assert workloads.dynamic_run(case, "multi").error is None
    assert len(rounds) == 240 and sum(rounds) >= 600 and tight_read == len(rounds)


def test_adequacy_certificate_matches_the_cold_reference_on_price_pools(monkeypatch):
    # verify_adequate and the warm-started feasible_bundle against the cold
    # graph-copy reference: every ordering the bi-demand pool's rounds certify,
    # its reverse and random permutations, and every bundle of the tight graph
    workloads = benchmark_workloads()
    monkeypatch.setattr(workloads, "probe", lambda: workloads.REFERENCE_S)  # no timing here
    seen = []

    def recording(gpi):
        sigma = pricing.dispatch_ordering(gpi)
        seen.append((gpi, sigma))
        return sigma

    for case in workloads.set_up("price-bidemand", 3):
        assert workloads.dynamic_run(case, "multi", recording).error is None
    rng = random.Random(12)
    checked = rejected = bundles = 0
    for gpi, sigma in seen:
        seqs = [sigma, sigma[::-1]] + [rng.sample(gpi.items, len(gpi.items)) for _ in range(7)]
        for seq in seqs:
            got = verify_adequate(gpi, seq)
            assert got == reference_verify_adequate(gpi, seq)
            checked += 1
            rejected += not got
        for t in gpi.buyers:
            for F in combinations(gpi.buyer_adj[t], gpi.capacity[t]):
                assert feasible_bundle(gpi, t, F) == reference_feasible_bundle(gpi, t, F)
                bundles += 1
    assert checked >= 2000 and 0 < rejected < checked and bundles >= 2000


def test_an_inadequate_construction_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # Both default constructions return their ordering reversed.  The
    # certificate must refuse it: unchecked, `price` posts wrong prices
    # (exit 0) and `simulate` reads the bug as a counterexample (exit 1).
    import json

    from dynprice.cli import main, serialize_market

    def reversing(fn):
        return lambda gpi, *rest: fn(gpi, *rest)[::-1]

    for name in ("adequate_three_buyers", "adequate_bidemand"):
        monkeypatch.setattr(pricing, name, reversing(getattr(pricing, name)))
    for seed, buyers in ((500001, 3), (500000, 4)):   # three-buyer, then bi-demand
        path = tmp_path / f"m{buyers}.json"
        path.write_text(json.dumps(serialize_market(generate_instance(seed, buyers, 2, (1, 3)))))
        for verb in ("price", "simulate"):
            assert main([verb, "--input", str(path)]) == 3
            assert capsys.readouterr().err.strip() == (
                "internal error: constructed ordering is not adequate")


def test_trimmed_and_tight_graphs_match_references_on_trimmed_markets():
    # |S| > b(T) and zero-rich values: trimming removes an item every time
    rng = random.Random(4242)
    for _ in range(3000):
        buyers = [f"t{k}" for k in range(rng.randint(0, 4))]
        demand = {t: rng.randint(1, 2) for t in buyers}
        items = [f"s{k}" for k in range(sum(demand.values()) + rng.randint(1, 2))]
        rng.shuffle(items)
        rng.shuffle(buyers)
        vals = {(t, s): 0 if rng.random() < 0.4 else Fraction(rng.randint(1, 4), rng.randint(1, 2))
                for t in buyers for s in items}
        trimmed, g, removed, best = trim_items(Market.build(items, buyers, demand, vals))
        assert removed
        assert graph_fields(g) == graph_fields(market_graph(trimmed))
        sc = refine_covering(g, best)
        assert graph_fields(tight_subgraph(sc, g)) == graph_fields(reference_tight_subgraph(sc, g))
