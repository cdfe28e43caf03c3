import random
from fractions import Fraction

import pytest

from dynprice import (BipartiteGraph, Market, StructuredCovering, compute_slack,
                      is_legal_edge, market_graph, refine_covering, tight_subgraph)
from dynprice.errors import ModelError
from dynprice.matching import Covering
from dynprice.simulation import oracle_structure


def random_market(rng, max_items=6, max_buyers=3, max_demand=3, hi=5):
    nb = rng.randint(1, max_buyers)
    ns = rng.randint(1, max_items)
    buyers = [f"t{i}" for i in range(nb)]
    items = [f"s{i}" for i in range(ns)]
    vals = {(t, s): Fraction(rng.randint(0, hi)) for t in buyers for s in items}
    return Market.build(items, buyers, {t: rng.randint(1, max_demand) for t in buyers}, vals)


def test_refine_e2_tight_set(e2):
    g = market_graph(e2)
    sc = refine_covering(g)
    assert sc.tight_edges == frozenset(
        {("s1", "t1"), ("s2", "t1"), ("s3", "t2"), ("s4", "t2")})
    # saturation holds everywhere, so every dual value is positive
    assert all(v > 0 for v in sc.pi.pi.values())
    assert sc.slack is not None and sc.slack > 0


def test_refine_e1_tight_set(e1):
    sc = refine_covering(market_graph(e1))
    assert sc.tight_edges == frozenset({("s1", "t1"), ("s2", "t2")})
    assert sc.pi.pi["t1"] > 0 and sc.pi.pi["t2"] > 0


def test_refine_zero_weight_degenerate():
    m = Market.build(["s1"], ["t1"], {"t1": 1}, {("t1", "s1"): 0})
    g = market_graph(m)
    sc = refine_covering(g)
    assert sc.pi.pi == {"s1": 0, "t1": 0}
    assert sc.tight_edges == frozenset({("s1", "t1")})
    assert sc.slack is None  # all tight, all duals zero


def test_refine_matches_oracle_on_corpus():
    rng = random.Random(21)
    for _ in range(40):
        m = random_market(rng)
        g = market_graph(m)
        sc = refine_covering(g)
        legal, short, unused = oracle_structure(m)
        for (s, t) in g.edges:
            assert ((s, t) in sc.tight_edges) == ((s, t) in legal)
        for t in m.buyers:
            assert (sc.pi.pi[t] == 0) == (t in short)
        for s in m.items:
            assert (sc.pi.pi[s] == 0) == (s in unused)


def test_tight_subgraph_shape(e1, e2):
    g = market_graph(e2)
    sc = refine_covering(g)
    gpi = tight_subgraph(sc, g)
    assert set(gpi.edges) == set(sc.tight_edges)
    assert gpi.items == g.items and gpi.buyers == g.buyers
    assert all(w == 1 for w in gpi.weight.values())
    g1 = market_graph(e1)
    gpi1 = tight_subgraph(refine_covering(g1), g1)
    assert set(gpi1.edges) == {("s1", "t1"), ("s2", "t2")}


@pytest.mark.parametrize("foreign", [("s2", "t1"), ("s9", "t1")],
                         ids=["non-edge", "unknown-vertex"])
def test_tight_subgraph_refuses_a_foreign_edge(foreign):
    # ("s2", "t1") joins two vertices of g but is no edge of it
    g = BipartiteGraph.build(["s1", "s2"], ["t1"], {("s1", "t1"): Fraction(2)},
                             {"s1": 1, "s2": 1, "t1": 1})
    sc = StructuredCovering(refine_covering(g).pi, frozenset({("s1", "t1"), foreign}), None)
    with pytest.raises(ModelError):
        tight_subgraph(sc, g)


def test_tight_subgraph_symmetric_market():
    m = Market.build(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                     {(t, s): 3 for t in ["t1", "t2"] for s in ["s1", "s2"]})
    g = market_graph(m)
    sc = refine_covering(g)
    assert sc.tight_edges == frozenset(g.edges)  # full symmetry: all legal


def test_is_legal_edge(e1):
    g = market_graph(e1)
    assert is_legal_edge(g, ("s1", "t1"))
    assert not is_legal_edge(g, ("s1", "t2"))
    single = BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): Fraction(4)},
                                  {"s1": 1, "t1": 1})
    assert is_legal_edge(single, ("s1", "t1"))
    with pytest.raises(ModelError):
        is_legal_edge(single, ("s1", "t7"))


def test_slack_sentinel_and_simple_case():
    g = BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): Fraction(0)},
                             {"s1": 1, "t1": 1})
    assert compute_slack(g, Covering({"s1": Fraction(0), "t1": Fraction(0)})) is None
    g2 = BipartiteGraph.build(["s1"], ["t1"], {("s1", "t1"): Fraction(2)},
                              {"s1": 1, "t1": 1})
    assert compute_slack(g2, Covering({"s1": Fraction(1), "t1": Fraction(1)})) == 1


def test_slack_recomputed_by_definition(e2):
    g = market_graph(e2)
    sc = refine_covering(g)
    gaps = [sc.pi.pi[s] + sc.pi.pi[t] - g.weight[(s, t)]
            for (s, t) in g.edges if (s, t) not in sc.tight_edges]
    positives = [v for v in sc.pi.pi.values() if v > 0]
    assert sc.slack == min(gaps + positives)


def test_refined_total_equals_optimum():
    rng = random.Random(33)
    for _ in range(25):
        m = random_market(rng, max_items=5)
        g = market_graph(m)
        sc = refine_covering(g)
        from dynprice import max_weight_bmatching
        _, opt = max_weight_bmatching(g)
        assert sc.pi.total_value(g) == opt
        assert sc.pi.is_covering(g)


def differential_corpus(seed=2024, count=240):
    """Tie-rich and zero-rich markets plus sparse fractional graphs, with
    empty sides included."""
    rng = random.Random(seed)
    out = [market_graph(Market.build([], [], {}, {})),
           market_graph(Market.build(["s1", "s2"], [], {}, {})),
           market_graph(Market.build([], ["t1"], {"t1": 2}, {}))]
    while len(out) < count:
        kind = len(out) % 3
        if kind < 2:
            nb, ns = rng.randint(0, 4), rng.randint(0, 6)
            buyers = [f"t{i}" for i in range(nb)]
            items = [f"s{i}" for i in range(ns)]
            hi = 2 if kind == 0 else 4
            vals = {(t, s): (0 if rng.random() < 0.35 else rng.randint(1, hi))
                    for t in buyers for s in items}
            demand = {t: rng.randint(1, 3) for t in buyers}
            out.append(market_graph(Market.build(items, buyers, demand, vals)))
        else:
            items = [f"s{i}" for i in range(rng.randint(1, 6))]
            buyers = [f"t{i}" for i in range(rng.randint(1, 4))]
            weight = {(s, t): Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
                      for s in items for t in buyers if rng.random() < 0.6}
            cap = {s: 1 for s in items} | {t: rng.randint(1, 3) for t in buyers}
            out.append(BipartiteGraph.build(items, buyers, weight, cap))
    return out


def test_refine_matches_slow_probes_on_corpus():
    from dynprice import max_weight_bmatching, max_weight_reduced_capacity
    corpus = differential_corpus()
    assert len(corpus) >= 200
    for g in corpus:
        sc = refine_covering(g)
        _, opt = max_weight_bmatching(g)
        assert sc.tight_edges == {e for e in g.edges if is_legal_edge(g, e)}
        for v in g.items + g.buyers:
            assert (sc.pi.pi[v] == 0) == (max_weight_reduced_capacity(g, v) == opt)


def unshifted(shift):
    """`_shift_by_scc` with its tight arcs and components, but p left unshifted."""
    def keep(p, out, z):
        _, _, succ, reach = shift(p, out, z)
        return p, 1, succ, reach
    return keep


def test_verification_trips_without_scc_shift(monkeypatch):
    import dynprice.dual as dual
    from dynprice.errors import InternalConsistencyError
    # t1 likes both items equally; the unique optimum gives s1 to t2, so the
    # tight edge (s1, t1) at the seller-optimal point is not legal
    m = Market.build(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                     {("t1", "s1"): 3, ("t1", "s2"): 3,
                      ("t2", "s1"): 3, ("t2", "s2"): 1})
    g = market_graph(m)
    assert not is_legal_edge(g, ("s1", "t1"))
    refine_covering(g)
    monkeypatch.setattr(dual, "_shift_by_scc", unshifted(dual._shift_by_scc))
    with pytest.raises(InternalConsistencyError):
        refine_covering(g)


@pytest.fixture(scope="module")
def pinning_corpus():
    """The differential corpus plus 200 unit-weight tight graphs that the
    bi-demand recursion refines while pricing bi-demand markets."""
    import dynprice.orderings as orderings
    from dynprice import generate_instance, multi_round
    recursion: list[BipartiteGraph] = []
    real = orderings.refine_covering

    def recording(g, m):
        recursion.append(g)
        return real(g, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orderings, "refine_covering", recording)
        seed = 0
        while len(recursion) < 200:
            multi_round(generate_instance(seed, 4 + seed % 6, 2, (1, 1 + seed % 3)))
            seed += 1
    return differential_corpus() + recursion[:200]


def test_integer_refine_matches_fraction_references(pinning_corpus):
    from dynprice.matching import max_weight_value
    for g in pinning_corpus:
        sc = refine_covering(g)
        assert sc.slack == compute_slack(g, sc.pi)
        assert sc.tight_edges == sc.pi.tight_edges(g)
        assert sc.pi.total_value(g) == max_weight_value(g)
        assert sc.pi.is_covering(g)


def test_solve_value_and_covering_agree_with_the_matching_weight(pinning_corpus):
    from dynprice.matching import solve_with_covering
    for g in pinning_corpus:
        res = solve_with_covering(g)
        assert res.value == sum(g.weight[e] for e in res.matching) == res.covering.total_value(g)
        assert res.covering.is_covering(g)
        assert res.matching <= res.covering.tight_edges(g)


def test_matching_over_a_capacity_trips(monkeypatch):
    # t1 takes both items at zero dual: every other check of the solve passes,
    # so only its b-matching check can refuse it, before refine sees M; an M
    # handed to refine goes through the same check, and is the caller's error
    import dynprice.matching as matching_mod
    from dynprice.errors import ContractViolationError, InternalConsistencyError
    from dynprice.matching import solve_with_covering
    g = BipartiteGraph.build(["s1", "s2"], ["t1"],
                             {("s1", "t1"): Fraction(1), ("s2", "t1"): Fraction(1)},
                             {"s1": 1, "s2": 1, "t1": 1})
    refine_covering(g)
    refine_covering(g, frozenset({("s1", "t1")}))
    over = "^optimal matching is not a b-matching of the graph$"
    with pytest.raises(ContractViolationError, match=over):
        refine_covering(g, frozenset(g.edges))
    monkeypatch.setattr(matching_mod, "_solve", lambda g, weights: (
        frozenset(g.edges), 2, {"s1": 1, "s2": 1, "t1": 0}))
    for call in (solve_with_covering, refine_covering):
        with pytest.raises(InternalConsistencyError, match=over):
            call(g)


@pytest.mark.parametrize("m", [frozenset(), frozenset({("s1", "t1")})],
                         ids=["empty", "lighter"])
def test_a_matching_below_the_optimum_trips_the_negative_cycle(m):
    # the face arcs close a negative cycle: z -> s1 -> t2 -> z (-2) without M,
    # z -> t1 -> s1 -> t2 -> z (-1) with the lighter edge in M; the caller's error
    from dynprice.errors import ContractViolationError
    g = BipartiteGraph.build(["s1"], ["t1", "t2"],
                             {("s1", "t1"): Fraction(1), ("s1", "t2"): Fraction(2)},
                             {"s1": 1, "t1": 1, "t2": 1})
    refine_covering(g, frozenset({("s1", "t2")}))
    with pytest.raises(ContractViolationError,
                       match="^negative cycle on the face arcs: the matching is not maximum$"):
        refine_covering(g, m)


@pytest.mark.parametrize("m", [frozenset({("s1", "t9")}), [("s1", "t2")], frozenset({5}),
                               ("s1", "t2")],
                         ids=["foreign-edge", "list", "not-edges", "one-edge"])
def test_a_callers_m_that_is_not_a_set_of_the_graphs_edges_is_refused(m):
    from dynprice.errors import ContractViolationError
    g = BipartiteGraph.build(["s1"], ["t1", "t2"],
                             {("s1", "t1"): Fraction(1), ("s1", "t2"): Fraction(2)},
                             {"s1": 1, "t1": 1, "t2": 1})
    refine_covering(g, {("s1", "t2")})
    with pytest.raises(ContractViolationError, match="^m is not a set of the graph's edges$"):
        refine_covering(g, m)


@pytest.mark.parametrize("arc, change, message", [
    # the added edge below zero
    ("add", lambda f: -f, "certificate violates an edge bound"),
    # one unit more on the added edge alone: t1 ends one above K * b(t1)
    ("add", lambda f: f + 1, "certificate violates a capacity"),
    # one unit more on the dropped M edge alone: every degree falls, and so does the weight
    ("drop", lambda f: f + 1, "certificate is not a maximum-weight b-matching"),
], ids=["edge-bound", "capacity", "weight"])
def test_certificate_checks_trip_on_a_mutant_circulation(monkeypatch, arc, change, message):
    import dynprice.dual as dual
    from dynprice.errors import InternalConsistencyError
    # t1 values s1 and s2 alike and M gives it s1, so the tight edge (s2, t1) and
    # the zero dual of s1 need the circulation z -> s2 -> t1 -> s1 -> z: the
    # arc s2 -> t1 adds (s2, t1), the arc t1 -> s1 drops (s1, t1)
    g = market_graph(Market.build(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 1, "t2": 1},
                                  {("t1", "s1"): 2, ("t1", "s2"): 2, ("t1", "s3"): 0,
                                   ("t2", "s1"): 0, ("t2", "s2"): 0, ("t2", "s3"): 1}))
    m = frozenset({("s1", "t1"), ("s3", "t2")})
    refine_covering(g, m)
    s1, s2, t1 = 0, 1, 3
    key = (s2, t1) if arc == "add" else (t1, s1)
    real = dual._circulation

    def mutant(heads):
        flow = real(heads)
        flow[key] = change(flow[key])
        return flow

    monkeypatch.setattr(dual, "_circulation", mutant)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        refine_covering(g, m)


def test_circulation_is_positive_exactly_inside_strong_components():
    # random digraphs cut to the arcs inside their strong components, as refine
    # hands over the tight arcs whose ends share a reach set
    from dynprice.dual import _circulation
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 9)
        heads = [[b for b in range(n) if b != a and rng.random() < rng.choice((0.15, 0.3))]
                 for a in range(n)]
        reach = [{a} for a in range(n)]
        for _ in range(n):
            for a in range(n):
                for b in heads[a]:
                    reach[a] |= reach[b]
        inner = [[b for b in heads[a] if a in reach[b]] for a in range(n)]
        flow = _circulation(inner)
        assert set(flow) == {(a, b) for a in range(n) for b in inner[a]}
        assert all(x > 0 for x in flow.values())
        for a in range(n):
            assert (sum(flow[(a, b)] for b in inner[a])
                    == sum(flow[(c, a)] for c in range(n) if a in inner[c]))


def test_m_alone_is_the_degenerate_certificate(monkeypatch, pinning_corpus, bidemand_recursion):
    # X = M with K = 1 accepts exactly what the circulation accepts, on graphs
    # where the circulation path runs often
    import dynprice.dual as dual
    graphs = pinning_corpus + bidemand_recursion
    built = []
    real = dual._circulation
    monkeypatch.setattr(dual, "_circulation", lambda heads: built.append(heads) or real(heads))
    default = [refine_covering(g) for g in graphs]
    assert 100 <= len(built) < len(graphs)
    built.clear()
    monkeypatch.setattr(dual, "_m_alone", lambda *args: False)
    assert [refine_covering(g) for g in graphs] == default
    assert len(built) == len(graphs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_refine_matches_slow_probes_at_pricing_scale(seed):
    # a tie-rich 17-buyer unit market, the size the price-unit rounds refine
    from dynprice import generate_instance, max_weight_bmatching, max_weight_reduced_capacity
    g = market_graph(generate_instance(seed, 17, 1, (1, 3)))
    sc = refine_covering(g)
    _, opt = max_weight_bmatching(g)
    assert sc.tight_edges == {e for e in g.edges if is_legal_edge(g, e)}
    for v in g.items + g.buyers:
        assert (sc.pi.pi[v] == 0) == (max_weight_reduced_capacity(g, v) == opt)


@pytest.mark.parametrize("vertex, nudge, message", [
    (0, -10, "refined dual is not a covering"),
    (0, 1, "refined dual is not optimal"),
    (1, -1, "refined dual has a negative value"),   # s2 has no edge: only the sign check sees it
])
def test_refined_dual_checks_trip_on_a_mutant_shift(monkeypatch, vertex, nudge, message):
    # moving one item off the shifted point breaks the covering, the optimum or the sign
    import dynprice.dual as dual
    from dynprice.errors import InternalConsistencyError
    g = BipartiteGraph.build(["s1", "s2"], ["t1"], {("s1", "t1"): Fraction(2)},
                             {"s1": 1, "s2": 1, "t1": 1})
    real = dual._shift_by_scc

    def mutant(p, out, z):
        p, factor, succ, reach = real(p, out, z)
        p[vertex] += nudge * factor
        return p, factor, succ, reach

    monkeypatch.setattr(dual, "_shift_by_scc", mutant)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        refine_covering(g)


@pytest.mark.parametrize("values, demand, message", [
    # (s0, t1) is tight at the seller-optimal point but in no optimum
    ({("t0", "s0"): 2, ("t0", "s1"): 0, ("t1", "s0"): 2, ("t1", "s1"): 1},
     {"t0": 2, "t1": 1}, "tight/legal mismatch after refinement"),
    # the items take all the surplus, leaving t0 a zero dual, yet every optimum fills t0
    ({("t0", "s0"): 2, ("t0", "s1"): 1, ("t1", "s0"): 0, ("t1", "s1"): 0},
     {"t0": 2, "t1": 1}, "zero-dual/saturation mismatch"),
])
def test_structure_checks_trip_without_scc_shift(monkeypatch, values, demand, message):
    import dynprice.dual as dual
    from dynprice.errors import InternalConsistencyError
    g = market_graph(Market.build(["s0", "s1"], ["t0", "t1"], demand, values))
    refine_covering(g)
    monkeypatch.setattr(dual, "_shift_by_scc", unshifted(dual._shift_by_scc))
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        refine_covering(g)


def random_graph(rng):
    """1-9 items and 1-6 buyers of capacity 1-3, values 0..4 over denominators 1-3."""
    items = [f"s{i}" for i in range(rng.randint(1, 9))]
    buyers = [f"t{i}" for i in range(rng.randint(1, 6))]
    weight = {(s, t): Fraction(rng.randint(0, 4), rng.randint(1, 3))
              for s in items for t in buyers}
    cap = {s: 1 for s in items} | {t: rng.randint(1, 3) for t in buyers}
    return BipartiteGraph.build(items, buyers, weight, cap)


def test_refine_commutes_with_relabelling():
    # shuffling and renaming the vertices renames pi and the tight edges, and keeps the slack
    rng = random.Random(13)
    for _ in range(1500):
        g = random_graph(rng)
        vertices = g.items + g.buyers
        fresh = rng.sample(range(len(vertices)), len(vertices))
        name = {v: f"{v[0]}{k}" for v, k in zip(vertices, fresh)}
        h = BipartiteGraph.build(rng.sample([name[s] for s in g.items], len(g.items)),
                                 rng.sample([name[t] for t in g.buyers], len(g.buyers)),
                                 {(name[s], name[t]): w for (s, t), w in g.weight.items()},
                                 {name[v]: c for v, c in g.capacity.items()})
        sc, renamed = refine_covering(g), refine_covering(h)
        assert renamed.pi.pi == {name[v]: x for v, x in sc.pi.pi.items()}
        assert renamed.tight_edges == {(name[s], name[t]) for s, t in sc.tight_edges}
        assert renamed.slack == sc.slack


def test_refine_is_the_same_from_any_optimal_matching(bidemand_recursion):
    # the fewest-edge optimum, and augment's b-factor of a unit-weight graph the
    # bi-demand ordering receives
    from dynprice.matching import lexicographic_min_edge_optimum, solve_with_covering
    rng = random.Random(17)
    starts = [(g, lexicographic_min_edge_optimum(g)[0])
              for g in (random_graph(rng) for _ in range(3000))]
    starts += [(g, frozenset(g.max_cardinality_bmatching[0].items()))
               for g in bidemand_recursion]
    other = 0
    for g, m in starts:
        sc, given = refine_covering(g), refine_covering(g, m)
        assert (given.pi, given.tight_edges, given.slack) == (sc.pi, sc.tight_edges, sc.slack)
        other += m != solve_with_covering(g).matching
    assert len(bidemand_recursion) >= 300 and other >= 250


def test_all_tight_unit_graphs_with_a_factor_get_the_constant_dual(pinning_corpus,
                                                                    bidemand_recursion):
    # every edge lies in some b-factor (tight = legal): one component per piece
    # of the graph, all at height 0, below z's own component
    from dynprice import bfactor_exists
    checked = 0
    for g in pinning_corpus + bidemand_recursion:
        if not g.edges or set(g.weight.values()) != {1} or not bfactor_exists(g)[0]:
            continue
        sc = refine_covering(g)
        if sc.tight_edges != g.edge_set:
            continue
        assert sc.pi.pi == (dict.fromkeys(g.items, Fraction(2, 3))
                            | dict.fromkeys(g.buyers, Fraction(1, 3)))
        checked += 1
    assert checked >= 400


def arcs_off_cycles(heads):
    """The arcs a -> b, b in heads[a], whose head does not reach their tail."""
    reach = []
    for a in range(len(heads)):
        seen, stack = {a}, [a]
        while stack:
            for b in heads[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach.append(seen)
    return [(a, b) for a, hs in enumerate(heads) for b in hs if a not in reach[b]]


def test_every_tight_arc_lies_on_a_tight_cycle_after_the_shift(monkeypatch, pinning_corpus,
                                                                bidemand_recursion):
    # the circulation gets the arcs tight at the shifted potentials, every one
    # inside a strong component, without a rescan of the face arcs
    import dynprice.dual as dual
    from dynprice.errors import InternalConsistencyError
    graphs = pinning_corpus + bidemand_recursion
    built, rescans = [], []
    real, shift = dual._circulation, dual._shift_by_scc
    monkeypatch.setattr(dual, "_circulation", lambda heads: built.append(heads) or real(heads))
    monkeypatch.setattr(dual, "_m_alone", lambda *args: False)

    def rescanning(shift):
        def scan(p, out, z):
            shifted = shift(p, out, z)
            q, factor = shifted[:2]
            rescans.append([[b for b, length in arcs if length * factor + q[a] - q[b] == 0]
                            for a, arcs in enumerate(out)])
            return shifted
        return scan

    monkeypatch.setattr(dual, "_shift_by_scc", rescanning(shift))
    for g in graphs:
        refine_covering(g)
    assert len(built) == len(graphs)
    assert built == rescans
    assert not any(arcs_off_cycles(heads) for heads in built)
    # without the shift, the tight arc s1 -> t1 of this graph closes no cycle:
    # the rescan has it, the circulation does not
    built.clear()
    rescans.clear()
    g = market_graph(Market.build(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                                  {("t1", "s1"): 3, ("t1", "s2"): 3,
                                   ("t2", "s1"): 3, ("t2", "s2"): 1}))
    monkeypatch.setattr(dual, "_shift_by_scc", rescanning(unshifted(shift)))
    with pytest.raises(InternalConsistencyError):
        refine_covering(g)
    assert len(built) == len(rescans) == 1
    assert (0, 2) in arcs_off_cycles(rescans[0]) and 2 in rescans[0][0]
    assert 2 not in built[0][0]
