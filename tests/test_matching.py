import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import (BipartiteGraph, bfactor_exists, market_graph,
                      max_weight_bmatching, max_weight_forced_edge,
                      max_weight_reduced_capacity, optimal_covering)
from dynprice.errors import ContractViolationError, ModelError
from dynprice.matching import lexicographic_min_edge_optimum, solve_with_covering

from conftest import (brute_bfactor_exists, brute_hall_witness, naive_opt_value,
                      reference_hungarian)


def graph_of(items, buyers, caps, weights):
    cap = {s: 1 for s in items}
    cap.update(caps)
    return BipartiteGraph.build(items, buyers, weights, cap)


def random_market_graph(rng, max_items=6, max_buyers=3, max_demand=3, hi=6):
    from dynprice import Market
    nb = rng.randint(1, max_buyers)
    ns = rng.randint(1, max_items)
    items = [f"s{i}" for i in range(ns)]
    buyers = [f"t{i}" for i in range(nb)]
    demands = {t: rng.randint(1, max_demand) for t in buyers}
    vals = {(t, s): Fraction(rng.randint(0, hi)) for t in buyers for s in items}
    m = Market.build(items, buyers, demands, vals)
    return m, market_graph(m)


def test_build_sorts_edges_and_wraps_only_non_fractions():
    half = Fraction(3, 2)
    g = graph_of(["s1", "s2"], ["t1"], {"t1": 1}, {("s2", "t1"): 2, ("s1", "t1"): half})
    assert g.edges == (("s1", "t1"), ("s2", "t1"))
    assert g.weight[("s1", "t1")] is half
    assert type(g.weight[("s2", "t1")]) is Fraction and g.weight[("s2", "t1")] == 2


@pytest.mark.parametrize("key", ["at", ("a", "t", "x"), ("a",)])
def test_build_refuses_an_edge_key_that_is_not_an_item_buyer_pair(key):
    # a two-letter string would unpack as a pair; the other two would fail
    # later, in the solve or inside build, with a bare error
    with pytest.raises(ModelError, match="^edge keys must be \\(item, buyer\\) pairs$"):
        BipartiteGraph.build(["a"], ["t"], {key: 1}, {"a": 1, "t": 1})


def test_empty_edge_set():
    g = graph_of(["s1"], ["t1"], {"t1": 1}, {})
    bm, value = max_weight_bmatching(g)
    assert value == 0 and not bm


def test_e1_optimum(e1):
    bm, value = max_weight_bmatching(market_graph(e1))
    assert value == 5
    assert bm == frozenset({("s1", "t1"), ("s2", "t2")})


def test_e2_optimum(e2):
    bm, value = max_weight_bmatching(market_graph(e2))
    assert value == 14
    assert bm == frozenset(
        {("s1", "t1"), ("s2", "t1"), ("s3", "t2"), ("s4", "t2")})


def test_covering_single_pair():
    g = graph_of(["s1"], ["t1"], {"t1": 1}, {("s1", "t1"): Fraction(2)})
    pi = optimal_covering(g)
    assert pi.pi["s1"] + pi.pi["t1"] == 2
    assert pi.total_value(g) == 2


def test_covering_examples(e1, e2):
    for m, opt in [(e1, 5), (e2, 14)]:
        g = market_graph(m)
        assert optimal_covering(g).total_value(g) == opt


def test_forced_edge_examples(e1):
    g = market_graph(e1)
    assert max_weight_forced_edge(g, ("s1", "t1")) == 5
    assert max_weight_forced_edge(g, ("s2", "t1")) == 3
    single = graph_of(["s1"], ["t1"], {"t1": 1}, {("s1", "t1"): Fraction(7)})
    assert max_weight_forced_edge(single, ("s1", "t1")) == 7
    with pytest.raises(ModelError):
        max_weight_forced_edge(single, ("s1", "t9"))


def test_forced_edge_of_a_buyer_without_capacity_is_refused():
    # no b-matching holds an edge of a capacity-0 buyer: refused before any solve
    g = graph_of(["s1", "s2"], ["t1", "t2"], {"t1": 0, "t2": 1},
                 {("s1", "t1"): 3, ("s2", "t2"): 1})
    with pytest.raises(ContractViolationError, match=re.escape(
            "edge ('s1', 't1') is in no b-matching: buyer t1 has capacity 0")):
        max_weight_forced_edge(g, ("s1", "t1"))
    assert max_weight_forced_edge(g, ("s2", "t2")) == 1


def test_reduced_capacity_examples(e1, e2):
    # both expected values frozen from the brute-force oracle
    assert max_weight_reduced_capacity(market_graph(e2), "t1") == 10
    assert max_weight_reduced_capacity(market_graph(e1), "s1") == 2
    # lowering capacity at an untouched vertex leaves the optimum alone
    g = graph_of(["s1", "s2"], ["t1"], {"t1": 1}, {("s1", "t1"): Fraction(5)})
    assert max_weight_reduced_capacity(g, "s2") == 5


def test_against_naive_enumeration():
    rng = random.Random(42)
    for _ in range(50):
        m, g = random_market_graph(rng)
        _, value = max_weight_bmatching(g)
        assert value == naive_opt_value(m)


def test_duality_and_slackness():
    rng = random.Random(7)
    for _ in range(40):
        m, g = random_market_graph(rng)
        res = solve_with_covering(g)  # runs the internal optimal-pair checks
        assert res.covering.total_value(g) == res.value
        assert res.matching <= res.covering.tight_edges(g)
        for v in g.items + g.buyers:
            degree = sum(1 for e in res.matching if v in e)
            assert degree <= g.capacity[v]
            if res.covering.pi[v] > 0:
                assert degree == g.capacity[v]


def test_buyer_copy_expansion_equivalence():
    # solving the explicit unit-capacity expansion gives the same optimum
    rng = random.Random(3)
    for _ in range(20):
        m, g = random_market_graph(rng, max_items=5)
        copies = []
        weights = {}
        for t in g.buyers:
            for k in range(g.capacity[t]):
                c = f"{t}#{k}"
                copies.append(c)
                for s in g.buyer_adj[t]:
                    weights[(s, c)] = g.weight[(s, t)]
        expanded = graph_of(g.items, copies, {c: 1 for c in copies}, weights)
        _, v_orig = max_weight_bmatching(g)
        _, v_exp = max_weight_bmatching(expanded)
        assert v_orig == v_exp


def test_expansion_caps_copies_at_items_plus_one(monkeypatch):
    # a buyer holds at most |S| items, so |S| + 1 copies answer any larger demand
    import dynprice.matching as matching_mod
    rows = []
    hungarian = matching_mod._hungarian

    def counting(n_rows, n_cols, adj):
        rows.append(n_rows)
        return hungarian(n_rows, n_cols, adj)

    monkeypatch.setattr(matching_mod, "_hungarian", counting)
    g = graph_of(["s1", "s2"], ["t1", "t2"], {"t1": 50, "t2": 2},
                 {("s1", "t1"): 3, ("s2", "t1"): 1, ("s1", "t2"): 2, ("s2", "t2"): 2})
    res = solve_with_covering(g)
    assert rows == [3 + 2]
    assert res.value == 5 and res.covering.pi["t1"] == 0
    assert res.matching == {("s1", "t1"), ("s2", "t2")}


def test_hungarian_is_the_per_row_dummy_reference():
    # (match_row, u, v[:n_cols]) on 3000 random expansions: each buyer's copies
    # share one row; weights negative, zero or past float range; rows dense,
    # sparse or empty; no rows or no columns.  A non-edge weighs -1 - 3W in the
    # dense rows, W the largest weight magnitude, as `_solve` gives it.
    import dynprice.matching as matching_mod
    rng = random.Random(2101)
    for _ in range(3000):
        n_cols = rng.randint(0, 7)
        scale = rng.choice([1, 1, 1, 10 ** 400])
        lo = rng.choice([0, -3, -10])
        density = rng.choice([0.0, 0.3, 0.7, 1.0])
        buyers = [([(j, scale * rng.randint(lo, 6)) for j in range(n_cols) if rng.random() < density],
                   rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
        top = max((abs(w) for edges, _ in buyers for _, w in edges), default=0)
        adj, dense = [], []
        for edges, copies in buyers:
            row = [-1 - 3 * top] * n_cols
            for j, w in edges:
                row[j] = w
            adj += [edges] * copies
            dense += [row] * copies
        match_row, u, v = matching_mod._hungarian(len(adj), n_cols, dense)
        want_row, want_u, want_v = reference_hungarian(len(adj), n_cols, adj)
        assert (match_row, u, v[:n_cols]) == (want_row, want_u, want_v[:n_cols])


def test_zero_capacity_buyers_change_no_value_and_refine_certifies():
    # a buyer of capacity 0 gets no copy in the expansion, yet needs a covering dual
    from dynprice import refine_covering
    g = BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): 1}, {"t1": 0})
    assert solve_with_covering(g).value == 0
    assert refine_covering(g).tight_edges == frozenset()
    rng = random.Random(17)
    for _ in range(150):
        items = [f"s{i}" for i in range(rng.randint(1, 5))]
        buyers = [f"t{i}" for i in range(rng.randint(1, 4))]
        weights = {(s, t): Fraction(rng.randint(0, 4), rng.randint(1, 2))
                   for s in items for t in buyers if rng.random() < 0.7}
        g = graph_of(items, buyers, {t: rng.choice((0, 0, 1, 2)) for t in buyers}, weights)
        rest = g.without(t for t in buyers if g.capacity[t] == 0)
        assert solve_with_covering(g).value == solve_with_covering(rest).value
        assert lexicographic_min_edge_optimum(g) == lexicographic_min_edge_optimum(rest)
        sc, sc_rest = refine_covering(g), refine_covering(rest)
        assert sc.tight_edges == sc_rest.tight_edges
        assert all((sc.pi.pi[v] == 0) == (sc_rest.pi.pi[v] == 0) for v in rest.items + rest.buyers)


def test_determinism(e2):
    g = market_graph(e2)
    a = solve_with_covering(g)
    b = solve_with_covering(g)
    assert a.matching == b.matching
    assert a.covering.pi == b.covering.pi


def test_bfactor_examples(e2):
    g = market_graph(e2)
    ok, _ = bfactor_exists(g)
    assert ok
    # |S| != b(T): counting failure, no witness set
    g2 = graph_of(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 2},
                  {(s, t): Fraction(1) for s in ["s1", "s2", "s3"] for t in ["t1", "t2"]})
    ok, witness = bfactor_exists(g2)
    assert not ok and witness is None
    # Hall violation: two bi-demand buyers share only three neighbors
    weights = {(s, t): Fraction(1) for s in ["s1", "s2", "s3"] for t in ["t1", "t2"]}
    g3 = graph_of(["s1", "s2", "s3", "s4"], ["t1", "t2"], {"t1": 2, "t2": 2}, weights)
    ok, witness = bfactor_exists(g3)
    assert not ok and witness == frozenset({"t1", "t2"})


def test_bfactor_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        ns = rng.randint(1, 6)
        nb = rng.randint(1, 3)
        items = [f"s{i}" for i in range(ns)]
        buyers = [f"t{i}" for i in range(nb)]
        caps = {t: rng.randint(1, 3) for t in buyers}
        weights = {(s, t): Fraction(1) for s in items for t in buyers
                   if rng.random() < 0.6}
        g = graph_of(items, buyers, caps, weights)
        ok, witness = bfactor_exists(g)
        assert ok == brute_bfactor_exists(g)
        if not ok and witness is not None:
            assert len(g.neighbors(witness)) < sum(g.capacity[t] for t in witness)


def test_bfactor_witness_is_the_smallest_most_deficient_set():
    rng = random.Random(29)
    failures = 0
    for k in range(300):
        buyers = [f"t{i}" for i in range(rng.randint(1, 7))]
        caps = {t: rng.randint(0, 3) for t in buyers}
        items = [f"s{i}" for i in range(sum(caps.values()))]
        density = 0.15 if k % 2 else 0.7
        weights = {(s, t): Fraction(1) for s in items for t in buyers
                   if rng.random() < density}
        g = graph_of(items, buyers, caps, weights)
        ok, witness = bfactor_exists(g)
        assert ok == brute_bfactor_exists(g)
        if ok:
            assert witness is None and brute_hall_witness(g) == frozenset()
        else:
            assert witness == brute_hall_witness(g), g
            failures += 1
    assert 50 <= failures <= 250


def test_lexicographic_prefers_fewer_edges():
    # optima: {t1s1} alone (6), {t1s1,t2s2} (6, padded zero), {t1s2,t2s1} (6)
    g = graph_of(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                 {("s1", "t1"): Fraction(6), ("s2", "t1"): Fraction(4),
                  ("s1", "t2"): Fraction(2), ("s2", "t2"): Fraction(0)})
    bm, value = lexicographic_min_edge_optimum(g)
    assert value == 6
    assert bm == frozenset({("s1", "t1")})


def test_lexicographic_matches_oracle_min_edge_count():
    from dynprice import Market, oracle_opt
    rng = random.Random(10)
    # Integer values, then fractional ones on up to 8 items: more items than
    # total demand, so the integer trim objective w * D * K - 1 must rank a
    # weight gap of 1/D above any difference in edge count.
    integral = (6, lambda: Fraction(rng.randint(0, 3)))
    fractional = (8, lambda: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 6))))
    for max_items, value in (integral, fractional):
        for _ in range(30):
            nb = rng.randint(1, 3)
            ns = rng.randint(1, max_items)
            buyers = [f"t{i}" for i in range(nb)]
            items = [f"s{i}" for i in range(ns)]
            vals = {(t, s): value() for t in buyers for s in items}
            m = Market.build(items, buyers, {t: rng.randint(1, 2) for t in buyers}, vals)
            bm, val = lexicographic_min_edge_optimum(market_graph(m))
            opt, allocs = oracle_opt(m)
            assert val == opt
            assert len(bm) == min(
                sum(len(b) for b in a.values()) for a in allocs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4))
def test_weak_duality_property(vals):
    items = ["s1", "s2"]
    buyers = ["t1", "t2"]
    weights = {("s1", "t1"): Fraction(vals[0]), ("s2", "t1"): Fraction(vals[1]),
               ("s1", "t2"): Fraction(vals[2]), ("s2", "t2"): Fraction(vals[3])}
    g = graph_of(items, buyers, {"t1": 1, "t2": 2}, weights)
    res = solve_with_covering(g)
    assert res.covering.is_covering(g)
    assert sum(g.weight[e] for e in res.matching) == res.covering.total_value(g)


def _drop_one_matched_edge(edges, value, pi):
    # the value stays w(M), so only complementary slackness can see the loss
    return edges - {min(edges)}, value, pi


def _sell_s1_twice(edges, value, pi):
    # s1 (dual 0) goes to both buyers and s2 to none: every edge stays tight,
    # each buyer keeps one item and w(M) is unchanged, only s1's capacity breaks
    return edges - {("s2", "t2")} | {("s1", "t2")}, value, pi


@pytest.mark.parametrize("perturb, message", [
    (lambda edges, value, pi: (edges, value, pi | {"t1": -1}), "negative dual value"),
    (lambda edges, value, pi: (edges, value, dict.fromkeys(pi, 0)), "dual is not a covering"),
    (lambda edges, value, pi: (edges, value, pi | {"s1": pi["s1"] + 1}),
     "matched edge not tight"),
    (lambda edges, value, pi: (edges, value + 1, pi), "strong duality gap"),
    (_drop_one_matched_edge, "complementary slackness violated"),
    (_sell_s1_twice, "optimal matching is not a b-matching of the graph"),
])
def test_optimal_pair_check_trips_on_a_perturbed_solve(monkeypatch, perturb, message):
    # each mutant breaks exactly one of the six checks, in units of 1/D (D = 2)
    import dynprice.matching as matching_mod
    from dynprice.errors import InternalConsistencyError
    g = graph_of(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                 {("s1", "t1"): Fraction(3), ("s2", "t1"): Fraction(1, 2),
                  ("s1", "t2"): Fraction(2), ("s2", "t2"): Fraction(2)})
    assert g.scaled[1] == 2
    assert solve_with_covering(g).matching == {("s1", "t1"), ("s2", "t2")}
    real = matching_mod._solve

    def perturbed(g, weights):
        return perturb(*real(g, weights))

    monkeypatch.setattr(matching_mod, "_solve", perturbed)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        solve_with_covering(g)


@pytest.mark.parametrize("call, message", [
    (lambda g: BipartiteGraph.build(["s1", "s1"], ["t1"], {}, {"t1": 1}), "duplicate vertex ids"),
    (lambda g: BipartiteGraph.build(["s1"], ["s1"], {}, {"s1": 1}),
     "item and buyer ids must be distinct"),
    (lambda g: BipartiteGraph.build(["s1"], ["t1"], {("s2", "t1"): 1}, {"t1": 1}),
     "edge references unknown vertex 's2'"),
    (lambda g: BipartiteGraph.build(["s1"], ["t1"], {}, {"s1": 2, "t1": 1}),
     "item s1 must have capacity 1"),
    (lambda g: g.with_capacity("nobody", 1), "unknown vertex 'nobody'"),
    (lambda g: g.with_capacity("t1", -1), "buyer t1 needs a non-negative int capacity"),
    (lambda g: g.with_capacity("t1", 1.5), "buyer t1 needs a non-negative int capacity"),
    (lambda g: graph_of(["s2"], ["t1"], {"t1": 1}, {}).with_capacity("s2", 2),
     "item s2 must have capacity 1"),
    (lambda g: max_weight_reduced_capacity(g, "nobody"), "unknown vertex 'nobody'"),
])
def test_graph_refusals_are_model_errors(call, message):
    g = graph_of(["s1"], ["t1"], {"t1": 1}, {("s1", "t1"): 1})
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        call(g)
