import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import (BipartiteGraph, Market, check_opt_property, combine,
                      feasible_bundle, generate_instance, is_legal_edge, market_graph,
                      max_weight_forced_edge, max_weight_reduced_capacity, min_surplus_set,
                      minimal_dangerous_disjoint, oracle_feasible, restrict_market, trim_items,
                      verify_adequate, welfare)
from dynprice.errors import ModelError
from dynprice.matching import Covering
from dynprice.sets import grow_dangerous_set
from dynprice.simulation import oracle_opt, oracle_opt_value, oracle_structure

from conftest import graph_fields, naive_opt_value


def test_welfare_empty(e1):
    assert welfare(e1, {}) == 0


def test_welfare_examples(e1, e2):
    assert welfare(e1, {"t1": {"s1"}, "t2": {"s2"}}) == 5
    assert welfare(e2, {"t1": {"s1", "s2"}, "t2": {"s3", "s4"}}) == 14
    assert welfare(e1, {"t1": ["s1"], "t2": ("s2",)}) == 5


def test_welfare_rejects_bad_bundles(e1):
    with pytest.raises(ModelError, match="^allocation references unknown buyer 't9'$"):
        welfare(e1, {"t9": {"s1"}})
    with pytest.raises(ModelError, match="^allocation references unknown item 'nope'$"):
        welfare(e1, {"t1": {"nope"}})
    with pytest.raises(ModelError, match="^item s1 allocated twice$"):
        welfare(e1, {"t1": {"s1"}, "t2": {"s1"}})
    with pytest.raises(ModelError, match="^item s1 allocated twice$"):
        welfare(e1, {"t1": ["s1", "s1"]})                   # twice in one bundle
    with pytest.raises(ModelError, match="^bundle of t1 exceeds demand$"):
        welfare(e1, {"t1": {"s1", "s2"}})
    with pytest.raises(ModelError, match="^an allocation must map buyers to bundles$"):
        welfare(e1, [("t1", {"s1"})])


def test_market_build_validation():
    with pytest.raises(ModelError):
        Market.build(["s1"], ["t1"], {"t1": 0}, {("t1", "s1"): 1})
    with pytest.raises(ModelError):
        Market.build(["s1"], ["t1"], {"t1": 1}, {})  # incomplete value matrix
    with pytest.raises(ModelError):
        Market.build(["s1", "s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 1})
    with pytest.raises(ModelError):
        Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): -1})


@pytest.mark.parametrize("demand, value, unknown", [
    ({"t1": 1, "tX": 7}, {}, "'tX'"),                          # a demand of an unknown buyer
    ({"t1": 1}, {("t1", "sTYPO"): 5}, "('t1', 'sTYPO')"),      # a value of an unknown item
    ({"t1": 1}, {("tX", "s1"): 9}, "('tX', 's1')"),            # a value of an unknown buyer
    ({"t1": 1}, {("s1", "t1"): 9}, "('s1', 't1')"),            # a pair the wrong way round
    ({"t1": 1}, {"t1": 9}, "'t1'"),                            # a key that is not a pair
    ({"t1": 1, "tX": 7}, {("t1", "sTYPO"): 5, ("tX", "s1"): 9},
     "'tX', ('t1', 'sTYPO'), ('tX', 's1')"),
])
def test_market_build_refuses_entries_for_unknown_ids(demand, value, unknown):
    message = f"demands or values for unknown ids: [{unknown}]"
    with pytest.raises(ModelError, match=re.escape(message)):
        Market.build(["s1"], ["t1"], demand, {("t1", "s1"): 3, **value})


def build_market(count, value):
    return Market.build(["s1"], ["t1"], {"t1": count}, {("t1", "s1"): value})


def build_graph(count, value):
    return BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): value}, {"t1": count})


@pytest.mark.parametrize("build", [build_market, build_graph], ids=["market", "graph"])
@pytest.mark.parametrize("count, value", [
    (1.5, 1), ("2", 1), (True, 1),                                      # demand or capacity
    (1, "x"), (1, float("nan")), (1, "1/3"), (1, 1.5), (1, True),       # value or weight
])
def test_constructors_refuse_counts_and_values_of_other_types(build, count, value):
    build(2, Fraction(1, 3))
    with pytest.raises(ModelError):
        build(count, value)


def test_check_opt_property_examples(e1, e2):
    assert check_opt_property(e1).opt_property_holds
    assert check_opt_property(e2).opt_property_holds
    zero = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 0})
    rep = check_opt_property(zero)
    assert not rep.opt_property_holds
    t, witness = rep.witness
    assert t == "t1"
    assert welfare(zero, witness) == rep.opt_welfare
    assert len(witness["t1"]) < 1


def test_check_opt_property_against_oracle():
    rng = random.Random(5)
    for _ in range(40):
        nb = rng.randint(1, 4)
        ns = rng.randint(1, 8)
        buyers = [f"t{i}" for i in range(nb)]
        items = [f"s{i}" for i in range(ns)]
        demands = {t: rng.randint(1, 3) for t in buyers}
        vals = {(t, s): Fraction(rng.randint(0, 4)) for t in buyers for s in items}
        m = Market.build(items, buyers, demands, vals)
        rep = check_opt_property(m)
        assert rep.opt_welfare == oracle_opt_value(m)
        _, sometimes_short, _ = oracle_structure(m)
        short = [t for t in buyers if t in sometimes_short]
        assert rep.opt_property_holds == (not short)
        if short:
            t, witness = rep.witness
            assert t == short[0]
            assert len(witness[t]) < m.demand[t]
            assert welfare(m, witness) == rep.opt_welfare


def test_trim_identity(e2):
    trimmed, g, removed, _ = trim_items(e2)
    assert removed == frozenset()
    assert trimmed is e2
    assert g == market_graph(e2)


def test_trim_drops_useless_item(e1):
    vals = dict(e1.value)
    vals[("t1", "s3")] = Fraction(0)
    vals[("t2", "s3")] = Fraction(0)
    m = Market.build(["s1", "s2", "s3"], ["t1", "t2"], dict(e1.demand), vals)
    trimmed, g, removed, best = trim_items(m)
    assert removed == frozenset({"s3"})
    assert best <= g.edge_set
    assert trimmed.items == ("s1", "s2")
    assert g == market_graph(trimmed)
    assert oracle_opt_value(trimmed) == oracle_opt_value(m)


def test_trim_no_buyers():
    m = Market.build(["s1", "s2"], [], {}, {})
    trimmed, g, removed, best = trim_items(m)
    assert removed == frozenset({"s1", "s2"}) and best == frozenset()
    assert g.items == () and g.edges == ()
    assert trimmed.items == ()


def test_trim_preserves_optimum_and_min_cardinality():
    rng = random.Random(9)
    for _ in range(30):
        nb = rng.randint(1, 3)
        ns = rng.randint(1, 6)
        buyers = [f"t{i}" for i in range(nb)]
        items = [f"s{i}" for i in range(ns)]
        demands = {t: rng.randint(1, 2) for t in buyers}
        vals = {(t, s): Fraction(rng.randint(0, 3)) for t in buyers for s in items}
        m = Market.build(items, buyers, demands, vals)
        trimmed, _, removed, best = trim_items(m)
        opt, optima = oracle_opt(m)
        assert oracle_opt_value(trimmed) == opt
        assert sum(m.value[(t, s)] for s, t in best) == opt
        assert {s for s, _ in best} == set(trimmed.items)
        min_items = min(sum(len(b) for b in a.values()) for a in optima)
        assert len(trimmed.items) == min_items
        # idempotent
        again, _, removed2, _ = trim_items(trimmed)
        assert removed2 == frozenset()


def test_trim_leaves_all_items_used():
    # after trimming, no remaining item is skippable in every optimum
    rng = random.Random(13)
    for _ in range(20):
        nb = rng.randint(1, 3)
        ns = rng.randint(1, 5)
        buyers = [f"t{i}" for i in range(nb)]
        items = [f"s{i}" for i in range(ns)]
        vals = {(t, s): Fraction(rng.randint(0, 3)) for t in buyers for s in items}
        m = Market.build(items, buyers, {t: rng.randint(1, 2) for t in buyers}, vals)
        trimmed, _, _, _ = trim_items(m)
        _, optima = oracle_opt(trimmed)
        for a in optima:
            used = set().union(*a.values())
            assert used == set(trimmed.items)


def tied_surplus_market(rng, max_buyers, max_demand):
    """A market with 1-4 surplus items, at most 12 items, in which some items
    repeat another's values and some are worth the same to every buyer."""
    buyers = [f"t{j}" for j in range(rng.randint(1, max_buyers))]
    demand = {t: rng.randint(1, max_demand) for t in buyers}
    hi = rng.choice((1, 2, 3))
    columns = []
    while len(columns) < min(12, sum(demand.values()) + rng.randint(1, 4)):
        kind = rng.random()
        if columns and kind < 0.3:
            columns.append(rng.choice(columns))
        elif kind < 0.5:
            columns.append([rng.randint(0, hi)] * len(buyers))
        else:
            columns.append([rng.randint(0, hi) for _ in buyers])
    items = [f"s{k}" for k in range(len(columns))]
    return Market.build(items, buyers, demand, {(t, s): column[j] for s, column in zip(items, columns)
                                                for j, t in enumerate(buyers)})


def fewest_edge_item_sets(m):
    """The item sets of m's fewest-edge optima, each as its sorted item positions,
    by brute force."""
    _, optima = oracle_opt(m)
    fewest = min(sum(map(len, a.values())) for a in optima)
    position = {s: k for k, s in enumerate(m.items)}
    return {tuple(sorted(position[s] for bundle in a.values() for s in bundle))
            for a in optima if sum(map(len, a.values())) == fewest}


def kept_positions(m):
    kept = trim_items(m)[0].items
    return tuple(k for k, s in enumerate(m.items) if s in kept)


def test_trim_tie_rule_against_brute_force():
    # at unit demand, on 2000 markets whose fewest-edge optima use more than one
    # item set, trim keeps the earliest of those sets by item position
    rng = random.Random(1201)
    tied = 0
    while tied < 2000:
        m = tied_surplus_market(rng, 4, 1)
        sets = fewest_edge_item_sets(m)
        tied += len(sets) > 1
        assert kept_positions(m) == min(sets)
    # with demands above one it keeps one of those sets, not always the earliest
    for _ in range(500):
        m = tied_surplus_market(rng, 3, 2)
        assert kept_positions(m) in fewest_edge_item_sets(m)
    m = Market.build(["s1", "s2", "s3", "s4"], ["t1", "t2"], {"t1": 2, "t2": 1},
                     {("t1", "s1"): 1, ("t1", "s2"): 1, ("t1", "s3"): 0, ("t1", "s4"): 2,
                      ("t2", "s1"): 0, ("t2", "s2"): 0, ("t2", "s3"): 1, ("t2", "s4"): 2})
    assert fewest_edge_item_sets(m) == {(0, 1, 3), (0, 2, 3), (1, 2, 3)}
    assert kept_positions(m) == (0, 2, 3)


def test_a_wrong_trim_optimum_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # For trim's objective only, the solver answers g without its last item,
    # with a dual on every vertex.  Its certificate must refuse the answer:
    # unchecked, the trimmed market prices below the optimum and the wrong
    # answer reads as a verified counterexample (exit 1).
    import json

    import dynprice.matching as matching_mod
    from dynprice.cli import generate_instance, main, serialize_market
    from dynprice.errors import InternalConsistencyError
    from dynprice.simulation import run_exhaustive
    real = matching_mod._solve

    def wrong(g, weights):
        if weights is g.table.weight or not g.items:
            return real(g, weights)
        # the last item's edges come last in edge order: sub's edges are a prefix of g's
        sub = g.without([g.items[-1]])
        matched, value, pi = real(sub, weights[:len(sub.edges)])
        n = len(sub.items)
        return matched, value, pi[:n] + [0] + pi[n:]

    m = generate_instance(7, 3, 1, (1, 9))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serialize_market(m)))
    assert run_exhaustive(m).all_optimal
    monkeypatch.setattr(matching_mod, "_solve", wrong)
    with pytest.raises(InternalConsistencyError, match="^dual is not a covering$"):
        run_exhaustive(m)
    assert main(["simulate", "--input", str(path)]) == 3
    assert capsys.readouterr().err.strip() == "internal error: dual is not a covering"


def test_restrict_market(e1, e2):
    r = restrict_market(e1, "t1", {"s1"})
    assert r.buyers == ("t2",) and r.items == ("s2",)
    r = restrict_market(e2, "t2", {"s3", "s4"})
    assert r.buyers == ("t1",) and r.items == ("s1", "s2")
    r = restrict_market(e1, "t2", set())
    assert r.buyers == ("t1",) and r.items == ("s1", "s2")
    with pytest.raises(ModelError):
        restrict_market(e1, "t9", set())
    with pytest.raises(ModelError):
        restrict_market(e1, "t1", {"zzz"})
    with pytest.raises(ModelError, match=r"^unknown items \['x', 1\]$"):
        restrict_market(e1, "t1", [1, "x"])             # ids of mixed types
    m = generate_instance(1, 3, 2, (1, 3))
    assert restrict_market(m, "t1", ["s1", "s2"]).buyers == ("t2", "t3")
    with pytest.raises(ModelError, match="^bundle of t1 exceeds demand$"):
        restrict_market(m, "t1", ["s1", "s2", "s3"])


@pytest.mark.parametrize("call", [
    lambda m, g: oracle_feasible(m, ["t1"], []),
    lambda m, g: oracle_feasible(m, "t1", [["s1"]]),
    lambda m, g: restrict_market(m, ["t1"], []),
    lambda m, g: restrict_market(m, "t1", [["s1"]]),
    lambda m, g: welfare(m, {"t1": [["s1"]]}),
    lambda m, g: feasible_bundle(g, ["t1"], []),
    lambda m, g: min_surplus_set(g, include=[["t1"]]),
    lambda m, g: verify_adequate(g, [["s1"]]),
    lambda m, g: verify_adequate(g, 5),
    lambda m, g: combine(Covering({}), None),
    lambda m, g: Market.build(5, [], {}, {}),
    lambda m, g: Market.build([["s1"]], [], {}, {}),
    lambda m, g: Market.build(["s1"], ["t1"], None, {}),
    lambda m, g: Market.build(["s1"], ["t1"], {"t1": 1}, None),
    lambda m, g: BipartiteGraph.build(5, ["t1"], {}, {"t1": 1}),
    lambda m, g: BipartiteGraph.build(["s1"], ["t1"], None, {"t1": 1}),
    lambda m, g: max_weight_forced_edge(g, ["s1", "t1"]),
    lambda m, g: is_legal_edge(g, ["s1", "t1"]),
    lambda m, g: max_weight_reduced_capacity(g, ["t1"]),
    lambda m, g: g.with_capacity(["t1"], 1),
    lambda m, g: g.induced([["s1"]], []),
    lambda m, g: g.without([["s1"]]),
    lambda m, g: grow_dangerous_set(g, [["t1"]]),
    lambda m, g: minimal_dangerous_disjoint(g, [["t1"]]),
    lambda m, g: m.column(["t1"]),
], ids=["oracle-buyer", "oracle-items", "restrict-buyer", "restrict-items", "welfare",
        "feasible-buyer", "surplus-buyers", "ordering-items", "ordering-int", "ordering-none",
        "market-items-int", "market-items-unhashable", "market-demand-none",
        "market-values-none", "graph-items-int", "graph-weights-none", "forced-edge",
        "legal-edge", "reduced-capacity", "with-capacity", "induced", "without",
        "grow-dangerous", "minimal-dangerous", "column"])
def test_unhashable_ids_are_model_errors(call):
    # a list where an id belongs is bad input, not an engine fault
    m = generate_instance(500001, 3, 2, (1, 3))
    with pytest.raises(ModelError):
        call(m, market_graph(m))


@pytest.mark.parametrize("call, what", [
    (lambda m, g: Market.build("ab", ["t1"], {"t1": 1}, {("t1", "a"): 1, ("t1", "b"): 1}),
     "items"),
    (lambda m, g: Market.build(["s1"], "t1", {"t1": 1}, {("t1", "s1"): 1}), "buyers"),
    (lambda m, g: restrict_market(m, "t1", "s1"), "items"),
    (lambda m, g: welfare(m, {"t1": "s1"}), "items"),
    (lambda m, g: feasible_bundle(g, "t1", "s1"), "items"),
    (lambda m, g: verify_adequate(g, "s1"), "ordering"),
    (lambda m, g: g.induced("s1s2", g.buyers), "items"),
    (lambda m, g: g.induced(g.items, "t1"), "buyers"),
    (lambda m, g: g.without("t1"), "vertices"),
    (lambda m, g: grow_dangerous_set(g, "t1"), "buyers"),
    (lambda m, g: minimal_dangerous_disjoint(g, "t1"), "buyers"),
], ids=["market-items", "market-buyers", "restrict", "welfare", "feasible", "ordering",
        "induced-items", "induced-buyers", "without", "grow-dangerous", "minimal-dangerous"])
def test_a_string_where_ids_belong_is_refused(call, what):
    # read as its characters, "s1" would be the items "s" and "1"
    m = generate_instance(500001, 3, 2, (1, 3))
    with pytest.raises(ModelError, match=f"^{what} must be a collection of ids, not a string$"):
        call(m, market_graph(m))


def reference_market_graph(m: Market) -> BipartiteGraph:
    """The market's graph through `BipartiteGraph.build`, weights listed buyer by buyer."""
    weight = {(s, t): m.value[(t, s)] for t in m.buyers for s in m.items}
    return BipartiteGraph.build(m.items, m.buyers, weight,
                                {s: 1 for s in m.items} | {t: m.demand[t] for t in m.buyers})


@pytest.mark.parametrize("fractional", [False, True], ids=["int", "pq"])
@pytest.mark.parametrize("demands", ["unit", "bi", "mixed"])
def test_market_graph_is_the_built_graph(demands, fractional):
    # market_graph assembles the graph itself; it must be build's, field for
    # field and in order, down every restrict_market chain to no buyers
    rng = random.Random(f"{demands}-{fractional}")
    for _ in range(12):
        buyers = [f"t{i}" for i in range(rng.randint(1, 6))]
        demand = {t: {"unit": 1, "bi": 2}.get(demands) or rng.randint(1, 3) for t in buyers}
        items = [f"s{i}" for i in range(rng.randint(1, sum(demand.values()) + 2))]
        rng.shuffle(items)
        rng.shuffle(buyers)
        vals = {(t, s): Fraction(rng.randint(0, 6), rng.randint(1, 4)) if fractional
                else rng.randint(0, 6) for t in buyers for s in items}
        m = Market.build(items, buyers, demand, vals)
        while True:
            assert graph_fields(market_graph(m)) == graph_fields(reference_market_graph(m))
            if not m.buyers:
                break
            t = rng.choice(m.buyers)
            m = restrict_market(m, t, rng.sample(m.items, min(len(m.items),
                                                              rng.randint(0, m.demand[t]))))


@pytest.mark.parametrize("buyer", ["zz", ["t1"], None, "s1"])
def test_a_column_of_an_unknown_buyer_is_refused(buyer):
    m = generate_instance(500001, 3, 2, (1, 3))
    with pytest.raises(ModelError, match=re.escape(f"unknown buyer {buyer!r}")):
        m.column(buyer)
    assert m.column("t2") == tuple(m.weight[1::3])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=6, max_size=6),
       st.integers(min_value=1, max_value=2))
def test_welfare_additive_under_bundle_growth(vals, demand):
    items = ["s1", "s2", "s3"]
    m = Market.build(items, ["t1", "t2"], {"t1": demand, "t2": demand},
                     {("t1", "s1"): vals[0], ("t1", "s2"): vals[1], ("t1", "s3"): vals[2],
                      ("t2", "s1"): vals[3], ("t2", "s2"): vals[4], ("t2", "s3"): vals[5]})
    base = welfare(m, {"t1": {"s1"}})
    if demand >= 2:
        grown = welfare(m, {"t1": {"s1", "s2"}})
        assert grown == base + m.value[("t1", "s2")]
        assert grown >= base


def test_solver_agrees_with_naive(e1, e2):
    for m in (e1, e2):
        assert check_opt_property(m).opt_welfare == naive_opt_value(m)


def test_market_refuses_an_id_that_is_both_item_and_buyer():
    with pytest.raises(ModelError, match="^item and buyer ids must be distinct$"):
        Market.build(["s1"], ["s1"], {"s1": 1}, {("s1", "s1"): 1})
