import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import (BipartiteGraph, bfactor_exists, check_opt_property, compute_slack,
                      market_graph, max_weight_bmatching, max_weight_forced_edge,
                      max_weight_reduced_capacity, optimal_covering, restrict_market,
                      tight_subgraph, trim_items)
from dynprice.errors import ContractViolationError, ModelError
from dynprice.matching import (Covering, integer_weights, lexicographic_min_edge_optimum,
                               solve_with_covering)

from conftest import (brute_bfactor_exists, brute_hall_witness, naive_opt_value,
                      reference_hungarian, reference_table)


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


def test_every_graph_holds_the_reference_edge_table(monkeypatch):
    # the table, positions included, is the one that Fractions from outside the
    # graph give: the dict handed to Market.build for market_graph, the dict
    # handed to build for build and with_capacity, the parent's for without and
    # induced, and 1 for unit_subgraph; over values with denominators 1, 2, 3
    # and 7 and some zeros
    from dynprice import Market
    rng = random.Random(3007)
    checked = 0
    for _ in range(300):
        items = [f"s{i}" for i in range(rng.randint(0, 6))]
        buyers = [f"t{i}" for i in range(rng.randint(0, 4))]
        vals = {(t, s): Fraction(rng.choice((0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))
                for t in buyers for s in items}
        m = Market.build(items, buyers, {t: rng.randint(1, 3) for t in buyers}, vals)
        g = market_graph(m)
        value = {(s, t): vals[(t, s)] for s in items for t in buyers}
        given = {e: w for e, w in value.items() if rng.random() < 0.6}
        sparse = graph_of(rng.sample(items, len(items)), rng.sample(buyers, len(buyers)),
                          {t: rng.randint(0, 3) for t in buyers}, given)
        unit = g.unit_subgraph({e for e in g.edges if rng.random() < 0.5})
        graphs = [(g, value), (sparse, given), (unit, dict.fromkeys(unit.edges, 1)),
                  (g.without(rng.sample(items + buyers, rng.randint(0, len(items + buyers)))),
                   value),
                  (g.induced(rng.sample(items, rng.randint(0, len(items))), buyers), value)]
        if buyers:
            graphs.append((sparse.with_capacity(buyers[0], 2), given))
        for h, weight in graphs + [(h.without(h.items[:1]), weight) for h, weight in graphs]:
            assert h.table == reference_table(h, weight)
            checked += h.table.denominator > 1
    assert checked >= 500
    # s2 is the only item with a denominator of 3: without it the table's
    # denominator falls from 6 to 2, and every integer weight with it
    vals = {("t1", "s1"): Fraction(1, 2), ("t1", "s2"): Fraction(2, 3), ("t1", "s3"): 1,
            ("t2", "s1"): 2, ("t2", "s2"): 0, ("t2", "s3"): Fraction(3, 2)}
    m = Market.build(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 1, "t2": 1}, vals)
    g = market_graph(m)
    h = g.induced(["s1", "s3"], g.buyers)
    assert (g.table.denominator, h.table.denominator) == (6, 2)
    assert h.table == reference_table(h, {(s, t): vals[(t, s)] for s, t in h.edges})
    assert h.table.ends == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert h.table.weight == (1, 4, 2, 3)
    # m.value is a read-only Mapping of those Fractions, keyed buyer by buyer,
    # that no non-pair, unknown or unhashable key is in; m holds integers only
    assert len(m.value) == 6 and list(m.value) == list(vals) and dict(m.value) == vals
    assert m.weight == (3, 12, 4, 0, 6, 9) and m.denominator == 6
    for key in [("t1", "s9"), ("t9", "s1"), ("s1", "t1"), ("t1",), ("t1", "s1", "s2"), "t1",
                None, ["t1", "s1"], (["t1"], "s1"), {}]:
        assert key not in m.value and m.value.get(key) is None
        with pytest.raises(KeyError):
            m.value[key]
    with pytest.raises(TypeError):
        m.value[("t1", "s1")] = 1
    # a residual market, and its graph, hold the values handed to Market.build
    # restricted to its items and buyers, over their own least common denominator
    r = restrict_market(m, "t2", ["s2"])
    assert (r.denominator, market_graph(r).table.weight) == (2, (1, 2))
    _check_residual_markets(monkeypatch)


def _holds_the_reference(r, vals) -> bool:
    """Does the residual market r hold `vals`, the Fractions handed to Market.build,
    on its items and buyers, as its values and as its graph's table?"""
    expect = {(t, s): Fraction(vals[(t, s)]) for t in r.buyers for s in r.items}
    g = market_graph(r)
    return (len(r.value) == len(expect) and list(r.value.items()) == list(expect.items())
            and all(type(v) is Fraction for v in r.value.values())
            and g.table == reference_table(g, {(s, t): v for (t, s), v in expect.items()}))


def _check_residual_markets(monkeypatch):
    # restrict_market chains, trim_items' trimmed markets and the states of
    # run_exhaustive, which slices the root market by Python sets; over values with
    # denominators 1, 2, 3 and 7 and some zeros, so that trim removes items and a
    # slice's least common denominator is often below its parent's
    from dynprice import Market, simulation, trim_items
    states = []
    slice_of = simulation.submarket

    def recorded(m, items, buyers):
        states.append(slice_of(m, items, buyers))
        return states[-1]

    monkeypatch.setattr(simulation, "submarket", recorded)
    rng = random.Random(3011)
    seen = {"chain": 0, "trimmed": 0, "state": 0, "lower": 0}
    for _ in range(60):
        items = [f"s{i}" for i in range(rng.randint(1, 5))]
        buyers = [f"t{i}" for i in range(rng.randint(1, 3))]
        vals = {(t, s): Fraction(rng.choice((0, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))
                for t in buyers for s in items}
        unit = rng.random() < 0.5
        m = Market.build(items, buyers, {t: 1 if unit else rng.randint(1, 3) for t in buyers},
                         vals)
        residuals = [("chain", m)]
        r = m
        for t in rng.sample(buyers, len(buyers)):
            sold = rng.sample(r.items, rng.randint(0, min(len(r.items), r.demand[t])))
            r = restrict_market(r, t, sold)
            residuals.append(("chain", r))
        residuals += [("trimmed", trim_items(chained)[0]) for _, chained in residuals]
        if unit:
            states.clear()
            simulation.run_exhaustive(m)
            residuals += [("state", r) for r in states]
        for kind, r in residuals:
            assert _holds_the_reference(r, vals), (kind, r)
            seen[kind] += 1
            seen["lower"] += r.denominator < m.denominator
    assert min(seen.values()) >= 100, seen


def test_build_sorts_edges_and_wraps_only_non_fractions():
    half = Fraction(3, 2)
    g = graph_of(["s1", "s2"], ["t1"], {"t1": 1}, {("s2", "t1"): 2, ("s1", "t1"): half})
    assert g.edges == (("s1", "t1"), ("s2", "t1"))
    assert g.weight[("s1", "t1")] == half and type(g.weight[("s1", "t1")]) is Fraction
    assert type(g.weight[("s2", "t1")]) is Fraction and g.weight[("s2", "t1")] == 2


@pytest.mark.parametrize("values", [[3, 0, 7], [], [0], [10**30, 1, 10**30 + 1]])
def test_integer_weights_take_a_list_of_ints_as_it_is(values):
    # the same integers and denominator as the same values given as Fractions
    as_fractions = integer_weights([Fraction(x) for x in values], "values")
    assert integer_weights(values, "values") == as_fractions == (tuple(values), 1)
    assert all(type(x) is int for x in integer_weights(values, "values")[0])


@pytest.mark.parametrize("values", [[True], [1, True], [1, 2.0], [Fraction(1, 2), 1.5], [1, "2"]])
def test_integer_weights_refuse_a_bool_or_a_float_among_ints(values):
    with pytest.raises(ModelError, match="^values must be ints or Fractions$"):
        integer_weights(values, "values")


def test_integer_weights_scale_a_list_of_ints_and_fractions():
    assert integer_weights([1, Fraction(1, 2), 3], "values") == ((2, 1, 6), 2)
    assert integer_weights([Fraction(4, 2), 3, Fraction(0, 5)], "values") == ((2, 3, 0), 1)
    assert integer_weights([2, Fraction(5, 6), Fraction(1, 4)], "values") == ((24, 10, 3), 12)


def test_weight_is_a_read_only_view_of_the_table():
    # on a graph from every constructor, with table denominators 6 and 2 (a unit
    # subgraph's is 1): each edge's integer weight over the table's denominator
    from dynprice import Market
    value = {("s1", "t1"): Fraction(1, 2), ("s2", "t1"): Fraction(2, 3), ("s3", "t1"): 1,
             ("s1", "t2"): 2, ("s2", "t2"): 0, ("s3", "t2"): Fraction(3, 2)}
    m = Market.build(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 1},
                     {(t, s): w for (s, t), w in value.items()})
    g = market_graph(m)
    given = {e: w for e, w in value.items() if w != 2}
    built = graph_of(["s3", "s1", "s2"], ["t2", "t1"], {"t1": 2, "t2": 1}, given)
    graphs = [g, built, g.induced(["s1", "s3"], ["t1", "t2"]), g.without(["t2"]),
              built.with_capacity("t1", 1), g.unit_subgraph(g.edges[:3])]
    assert [h.table.denominator for h in graphs] == [6, 6, 2, 6, 6, 1]
    assert g.weight == value and built.weight == built.with_capacity("t1", 1).weight == given
    for h in graphs:
        assert h.weight == {e: Fraction(w, h.table.denominator)
                            for e, w in zip(h.edges, h.table.weight)}
        assert all(type(w) is Fraction for w in h.weight.values())
        with pytest.raises(TypeError):
            h.weight[h.edges[0]] = Fraction(0)


def test_unit_subgraph_reads_a_list_of_edges_as_its_set():
    # as induced and without read theirs: a repeated edge is named once
    g = graph_of(["s1", "s2"], ["t1"], {"t1": 1}, {("s1", "t1"): 2, ("s2", "t1"): 3})
    assert g.unit_subgraph([("s2", "t1"), ("s2", "t1")]) == g.unit_subgraph({("s2", "t1")})


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

    def counting(n_rows, n_cols, adj, greedy=False):
        rows.append(n_rows)
        return hungarian(n_rows, n_cols, adj, greedy)

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


def test_the_greedy_start_reaches_the_reference_optimum():
    # on 1500 random graphs, dense or sparse, capacities 0-3, with the plain and
    # the trim weights: the solve from the greedy start passes the certificate
    # and weighs what the start-free reference does, some at another optimum
    import dynprice.matching as matching_mod
    rng = random.Random(4101)
    other = 0
    for _ in range(1500):
        items = [f"s{i}" for i in range(rng.randint(0, 7))]
        buyers = [f"t{i}" for i in range(rng.randint(0, 4))]
        density = rng.choice([0.5, 1.0])
        weights = {(s, t): Fraction(rng.randint(0, 2), rng.choice((1, 1, 2)))
                   for s in items for t in buyers if rng.random() < density}
        g = graph_of(items, buyers, {t: rng.randint(0, 3) for t in buyers}, weights)
        n = len(items)
        rows = [b for b, t in enumerate(buyers) for _ in range(min(g.capacity[t], n + 1))]
        for w in (list(g.table.weight), [x * (n + 1) - 1 for x in g.table.weight]):
            matched, value, pi = matching_mod._solve(g, w, greedy=True)
            matching_mod._check_optimal_pair(g, w, matched, value, pi)
            adj = [[(a, x) for (a, c), x in zip(g.table.ends, w) if c == n + b] for b in rows]
            want, _, _ = reference_hungarian(len(adj), n, adj)
            assert value == sum(dict(r)[j] for r, j in zip(adj, want) if j >= 0)
            other += set(matched) != set(matching_mod._solve(g, w)[0])
    assert other >= 40


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


# The solve returns M by edge index and pi by position in items + buyers.  The
# graph below has positions s1 = 0, s2 = 1, t1 = 2, t2 = 3 and, in canonical
# order, edges (s1, t1) = 0, (s1, t2) = 1, (s2, t1) = 2, (s2, t2) = 3.
def _drop_one_matched_edge(matched, value, pi):
    # the value stays w(M), so only complementary slackness can see the loss
    return [k for k in matched if k != min(matched)], value, pi


def _sell_s1_twice(matched, value, pi):
    # s1 (dual 0) goes to both buyers and s2 to none: every edge stays tight,
    # each buyer keeps one item and w(M) is unchanged, only s1's capacity breaks
    return [k for k in matched if k != 3] + [1], value, pi   # (s2, t2) out, (s1, t2) in


@pytest.mark.parametrize("perturb, message", [
    (lambda matched, value, pi: (matched, value, [*pi[:2], -1, *pi[3:]]),   # pi(t1) = -1
     "negative dual value"),
    (lambda matched, value, pi: (matched, value, [0] * len(pi)), "dual is not a covering"),
    (lambda matched, value, pi: (matched, value, [pi[0] + 1, *pi[1:]]),     # pi(s1) + 1
     "matched edge not tight"),
    (lambda matched, value, pi: (matched, value + 1, pi), "strong duality gap"),
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
    assert g.table.denominator == 2
    assert g.edges == (("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2"))
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
    (lambda g: BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): 2}, {"t1": 1, "x": 5}),
     "capacity for unknown vertex 'x'"),
    (lambda g: g.with_capacity("nobody", 1), "unknown vertex 'nobody'"),
    (lambda g: g.with_capacity("t1", -1), "buyer t1 needs a non-negative int capacity"),
    (lambda g: g.with_capacity("t1", 1.5), "buyer t1 needs a non-negative int capacity"),
    (lambda g: graph_of(["s2"], ["t1"], {"t1": 1}, {}).with_capacity("s2", 2),
     "item s2 must have capacity 1"),
    (lambda g: max_weight_reduced_capacity(g, "nobody"), "unknown vertex 'nobody'"),
    (lambda g: g.unit_subgraph({("s1", "t1"), ("s2", "t1"), (1, 2)}),
     "edges not in graph: [('s2', 't1'), (1, 2)]"),
    (lambda g: g.unit_subgraph([("s1", "t9")]), "edges not in graph: [('s1', 't9')]"),
    (lambda g: g.unit_subgraph([[1]]), "edges must be hashable ids"),
    (lambda g: g.unit_subgraph("s1"), "edges must be a collection of ids, not a string"),
    (lambda g: g.neighbors("t1"), "buyers must be a collection of ids, not a string"),
    (lambda g: g.neighbors(["x"]), "unknown buyers ['x']"),
    (lambda g: Covering({}).tight_edges(g), "pi not defined on 's1'"),
    (lambda g: Covering({}).total_value(g), "pi not defined on 's1'"),
    (lambda g: Covering({"s1": 1}).is_covering(g), "pi not defined on 't1'"),
    (lambda g: Covering(None).tight_edges(g), "pi must be a mapping"),
    (lambda g: compute_slack(g, Covering({})), "pi not defined on 's1'"),
    (lambda g: compute_slack(g, {"s1": 1}), "pi must be a Covering"),
    # a graph where a market belongs, and no structured covering
    (lambda g: trim_items(g), "the market must be a Market"),
    (lambda g: check_opt_property(g), "the market must be a Market"),
    (lambda g: market_graph(g), "the market must be a Market"),
    (lambda g: tight_subgraph(None, g), "sc must be a StructuredCovering"),
])
def test_graph_refusals_are_model_errors(call, message):
    g = graph_of(["s1"], ["t1"], {"t1": 1}, {("s1", "t1"): 1})
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        call(g)
