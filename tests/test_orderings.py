import random
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

import pytest

from dynprice import (BipartiteGraph, adequate_bidemand, dual, matching,
                      adequate_three_buyers, adequate_two_buyers, combine,
                      generate_instance, market_graph, multi_round, orderings,
                      refine_covering, tight_subgraph, verify_adequate)
from dynprice.pricing import tight_market
from dynprice.errors import ContractViolationError, InternalConsistencyError, ModelError
from dynprice.matching import Covering

from conftest import brute_verify_adequate, reference_bidemand_wrapper, reference_two_buyers


def tight_of(m):
    g = market_graph(m)
    return tight_subgraph(refine_covering(g), g)


def unit_graph(items, buyers, caps, edges):
    cap = {s: 1 for s in items}
    cap.update(caps)
    return BipartiteGraph.build(items, buyers,
                                {e: Fraction(1) for e in edges}, cap)


def random_factor_graph(rng, nb=None):
    """Unit-weight graph built around a planted (1,2)-factor plus noise edges."""
    nb = nb or rng.randint(2, 3)
    buyers = [f"t{i}" for i in range(nb)]
    caps = {t: 2 for t in buyers}
    items = [f"s{i}" for i in range(2 * nb)]
    shuffled = items[:]
    rng.shuffle(shuffled)
    edges = set()
    for k, t in enumerate(buyers):
        edges.add((shuffled[2 * k], t))
        edges.add((shuffled[2 * k + 1], t))
    for s in items:
        for t in buyers:
            if rng.random() < 0.35:
                edges.add((s, t))
    return unit_graph(items, buyers, caps, sorted(edges))


def brute_find_adequate(g):
    for perm in permutations(g.items):
        if brute_verify_adequate(g, perm):
            return perm
    return None


ORDERINGS_FROM_OUTSIDE = {
    "string": lambda items: "".join(items),
    "int": lambda items: 5,
    "none": lambda items: None,
    "mapping": lambda items: {s: k for k, s in enumerate(items, 1)},
    "unhashable": lambda items: ([items[0]],) + items[1:],
    "repeated": lambda items: items + items[:1],
    "missing": lambda items: items[:-1],
    "foreign": lambda items: items + ("s99",),
}


@pytest.mark.parametrize("case", ORDERINGS_FROM_OUTSIDE)
@pytest.mark.parametrize("target", ["multi_round", "verify_adequate", "combine"])
def test_an_ordering_from_outside_is_checked(target, case):
    # every place an ordering comes in from outside refuses all but a
    # sequence of the items, each listed once
    m = generate_instance(500001, 3, 2, (1, 3))
    tm = tight_market(m)
    pi, sigma = tm.sc.pi, ORDERINGS_FROM_OUTSIDE[case](tm.gpi.items)
    if target == "combine" and case == "missing":
        # combine knows the items through pi alone: there the item goes missing from pi
        pi = Covering({v: x for v, x in pi.pi.items() if v != tm.gpi.items[-1]})
        sigma = tm.gpi.items
    call = {"multi_round": lambda: multi_round(m, lambda gpi: sigma),
            "verify_adequate": lambda: verify_adequate(tm.gpi, sigma),
            "combine": lambda: combine(pi, sigma)}[target]
    with pytest.raises(ModelError):
        call()


def test_ordering_validation():
    # a rank map with a gap is no bijection; its sequence form is a repeated item
    m = generate_instance(500001, 3, 2, (1, 3))
    tm = tight_market(m)
    sigma = tm.gpi.items[1:] + tm.gpi.items[1:2]
    for call in (lambda: multi_round(m, lambda gpi: sigma),
                 lambda: verify_adequate(tm.gpi, sigma),
                 lambda: combine(tm.sc.pi, sigma)):
        with pytest.raises(ModelError, match="^ordering lists an item twice$"):
            call()


@pytest.mark.parametrize("to_rank", [float, Fraction, lambda k: k == 1 or k],
                         ids=["float", "fraction", "bool"])
def test_ordering_refuses_ranks_that_are_not_ints(to_rank):
    # a rank map, the former form of an ordering, is refused whatever its
    # ranks: read as its keys, it would silently drop them
    m = generate_instance(1, 3, 2, (1, 5))
    with pytest.raises(ModelError, match="^ordering must be a sequence of items, not a mapping$"):
        multi_round(m, lambda gpi: {s: to_rank(k + 1) for k, s in enumerate(gpi.items)})


def test_combine_constant_pi():
    sigma = ("s2", "s1", "s3")
    pi = Covering({s: Fraction(1) for s in ["s1", "s2", "s3"]})
    assert combine(pi, sigma) == ("s2", "s1", "s3")


def test_combine_pi_dominates():
    sigma = ("s1", "s2")
    pi = Covering({"s1": Fraction(1), "s2": Fraction(0)})
    assert combine(pi, sigma) == ("s2", "s1")
    with pytest.raises(ModelError):
        combine(Covering({"s1": Fraction(0)}), sigma)


def test_combine_lifts_adequacy_through_unit_dual():
    # sigma adequate for the tight subgraph lifts to the full unit graph
    rng = random.Random(51)
    lifted = 0
    for _ in range(12):
        g = random_factor_graph(rng)
        sc = refine_covering(g)
        gpi = tight_subgraph(sc, g)
        sigma = brute_find_adequate(gpi)
        assert sigma is not None  # adequate orderings exist for >=1 factor graphs
        got = combine(sc.pi, sigma)
        assert brute_verify_adequate(g, got)
        if set(gpi.edges) != set(g.edges):
            lifted += 1
    assert lifted > 0  # at least some runs actually pruned edges


def test_two_buyers_disjoint(e2):
    gpi = tight_of(e2)
    sigma = adequate_two_buyers(gpi)
    assert verify_adequate(gpi, sigma)


def test_two_buyers_symmetric():
    g = unit_graph(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                   [(s, t) for s in ["s1", "s2"] for t in ["t1", "t2"]])
    sigma = adequate_two_buyers(g)
    assert verify_adequate(g, sigma)


def test_two_buyers_shared_tail():
    # t1 wants two, t2 wants one and can only use the shared item s3
    g = unit_graph(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 1},
                   [("s1", "t1"), ("s2", "t1"), ("s3", "t1"), ("s3", "t2")])
    sigma = adequate_two_buyers(g)
    assert sigma[-1] == "s3"  # shared item ordered last
    assert verify_adequate(g, sigma)
    first_two = sorted([s for s in sigma if s in g.buyer_adj["t1"]][:2])
    assert first_two == ["s1", "s2"]


def test_two_buyers_contract():
    g = unit_graph(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 1, "t2": 1},
                   [("s1", "t1"), ("s2", "t2"), ("s3", "t1")])
    with pytest.raises(ContractViolationError, match="graph admits no b-factor"):
        adequate_two_buyers(g)  # |S| != b(T)


@pytest.mark.parametrize("items, caps, edges", [
    # |S| = 4 differs from b(T) = 3
    (4, (1, 1, 1), [("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s4", "t3")]),
    # s3 has no tight edge
    (3, (1, 1, 1), [("s1", "t1"), ("s2", "t2"), ("s2", "t3")]),
    # t1 has two exclusive items and demand one
    (3, (1, 1, 1), [("s1", "t1"), ("s2", "t1"), ("s3", "t2"), ("s3", "t3")]),
    # the {t1, t2} class holds three items, their combined demand is two
    (3, (1, 1, 1), [(s, t) for s in ("s1", "s2", "s3") for t in ("t1", "t2")]),
])
def test_three_buyers_refuse_inputs_without_a_factor(items, caps, edges):
    # each input trips one of the labeling's former input checks (item count,
    # an item with no tight edge, too many exclusive items, an oversized pair
    # class); the b-factor test refuses them all
    names = [f"s{k}" for k in range(1, items + 1)]
    g = unit_graph(names, ["t1", "t2", "t3"], dict(zip(("t1", "t2", "t3"), caps)), edges)
    with pytest.raises(ContractViolationError, match="graph admits no b-factor"):
        adequate_three_buyers(g)


@pytest.mark.parametrize("buyers", [["t1"], ["t1", "t2"], ["t1", "t2", "t3"]])
def test_three_buyers_refuse_weights_other_than_one(buyers):
    # a factor exists, so only the weight check can refuse the graph
    items = [f"s{k}" for k in range(1, len(buyers) + 1)]
    weight = {(s, t): Fraction(1) for s, t in zip(items, buyers)}
    weight[("s1", "t1")] = Fraction(2)
    g = BipartiteGraph.build(items, buyers, weight, dict.fromkeys(items + buyers, 1))
    assert matching.bfactor_exists(g)[0]
    with pytest.raises(ContractViolationError, match="^tight graph weights must be one$"):
        adequate_three_buyers(g)


def test_two_buyers_refuse_weights_other_than_one():
    g = BipartiteGraph.build(["s1", "s2"], ["t1", "t2"],
                             {("s1", "t1"): 5, ("s2", "t2"): 1, ("s2", "t1"): Fraction(1, 2)},
                             dict.fromkeys(["s1", "s2", "t1", "t2"], 1))
    assert matching.bfactor_exists(g)[0]
    with pytest.raises(ContractViolationError, match="^tight graph weights must be one$"):
        adequate_two_buyers(g)


def test_three_buyers_on_two_buyers_grows_one_bmatching(monkeypatch):
    # adequate_three_buyers tests for a b-factor once, through the graph's
    # cached maximum b-matching, which it grows from empty only once
    grown = []
    augment = matching.augment

    def counting(adj, cap, owner, load):
        if not owner:
            grown.append(dict(load))
        return augment(adj, cap, owner, load)

    monkeypatch.setattr(matching, "augment", counting)
    g = unit_graph(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 1},
                   [("s1", "t1"), ("s2", "t1"), ("s3", "t1"), ("s3", "t2")])
    sigma = adequate_three_buyers(g)
    assert sigma[-1] == "s3"
    assert len(grown) == 1


def planted_graph(rng, nb):
    """Sparse unit graph around a planted b-factor, demands one to five; item
    names are shuffled, so item order and name order differ."""
    buyers = [f"t{i + 1}" for i in range(nb)]
    caps = {t: rng.randint(1, 5) for t in buyers}
    items = [f"s{i}" for i in range(sum(caps.values()))]
    rng.shuffle(items)
    planted = iter(items)
    edges = {(next(planted), t) for t in buyers for _ in range(caps[t])}
    edges |= {(s, t) for s in items for t in buyers if rng.random() < 0.45}
    return unit_graph(items, buyers, caps, edges)


def test_one_rule_is_the_former_rule_for_one_and_two_buyers():
    # adequate_three_buyers on one buyer is the identity and on two buyers
    # the symmetric difference rule, which adequate_two_buyers also follows
    rng = random.Random(29)
    graphs = []
    for _ in range(60):
        nb = rng.randint(1, 2)
        m = generate_instance(rng.randint(0, 10**6), nb,
                              [rng.randint(1, 4) for _ in range(nb)], (1, 4))
        graphs.extend((tight_of(m), planted_graph(rng, nb)))
    moved = unsorted_shared = 0
    for g in graphs:
        want = reference_two_buyers(g)
        assert adequate_three_buyers(g) == want
        if len(g.buyers) == 2:
            assert adequate_two_buyers(g) == want
            shared = [s for s in g.items if len(g.item_adj[s]) == 2]
            unsorted_shared += shared != sorted(shared)
        moved += want != g.items
    # enough graphs where the shared items move to the end, and where their
    # item order is not their name order
    assert sum(len(g.buyers) == 1 for g in graphs) >= 40
    assert moved >= 25 and unsorted_shared >= 10


def test_three_buyers_figure_market(fig1):
    gpi = tight_of(fig1)
    sigma = adequate_three_buyers(gpi)
    assert verify_adequate(gpi, sigma)
    first_two = sorted([s for s in sigma if s in gpi.buyer_adj["t1"]][:2])
    assert first_two != ["s3", "s4"]  # the infeasible pair never comes first


def test_three_buyers_disjoint_singletons():
    g = unit_graph(["s1", "s2", "s3"], ["t1", "t2", "t3"],
                   {"t1": 1, "t2": 1, "t3": 1},
                   [("s1", "t1"), ("s2", "t2"), ("s3", "t3")])
    sigma = adequate_three_buyers(g)
    assert verify_adequate(g, sigma)


def test_three_buyers_random_corpus():
    rng = random.Random(61)
    for _ in range(25):
        nb = rng.randint(1, 3)
        profile = [rng.randint(1, 3) for _ in range(nb)]
        m = generate_instance(rng.randint(0, 10**6), nb, profile, (1, 4))
        gpi = tight_of(m)
        sigma = adequate_three_buyers(gpi)
        assert verify_adequate(gpi, sigma)
        assert brute_verify_adequate(gpi, sigma)


def test_three_buyers_planted_factor_graphs():
    # sparse tight graphs with demands up to five push the labeling into its
    # overflow branches (labels 3, 2 and 1), unlike complete random markets
    from collections import Counter
    from dynprice.orderings import three_buyer_labeling
    rng = random.Random(12)
    hist = Counter()
    for trial in range(60):
        demands = sorted([rng.randint(1, 5) for _ in range(3)], reverse=True)
        buyers = ["t1", "t2", "t3"]
        caps = dict(zip(buyers, demands))
        items = [f"s{i}" for i in range(sum(demands))]
        shuffled = items[:]
        rng.shuffle(shuffled)
        edges = set()
        pos = 0
        for t in buyers:
            for _ in range(caps[t]):
                edges.add((shuffled[pos], t))
                pos += 1
        for s in items:
            for t in buyers:
                if rng.random() < 0.45:
                    edges.add((s, t))
        cap = {s: 1 for s in items}
        cap.update(caps)
        g = unit_graph(items, buyers, caps, sorted(edges))
        sc = refine_covering(g)
        gpi = tight_subgraph(sc, g)
        sigma = adequate_three_buyers(gpi)
        assert verify_adequate(gpi, sigma)
        hist.update(three_buyer_labeling(gpi).values())
    assert all(hist[label] > 0 for label in (1, 2, 3, 4))


def test_bidemand_d1(d1_graph):
    trace = []
    sigma = adequate_bidemand(d1_graph, trace)
    assert verify_adequate(d1_graph, sigma)
    # deterministic descent: Z={t1} maximal, X={t3} all-pairs-feasible (2.2.1),
    # then the two-buyer residue splits on the blocking pair {s2,s3} (2.2.2)
    assert [e["case"] for e in trace] == ["2.2.1", "2.2.2", "base"]
    assert trace[0]["Z"] == ["t1"] and trace[0]["X"] == ["t3"]
    assert trace[1]["pair"] == ["s2", "s3"]


def test_bidemand_two_components(monkeypatch):
    # the case analysis runs on the tight graph itself, and case 3 recurses
    # into each component as it stands: no wrapper is called
    g = unit_graph(["s1", "s2", "s3", "s4"], ["t1", "t2"], {"t1": 2, "t2": 2},
                   [("s1", "t1"), ("s2", "t1"), ("s3", "t2"), ("s4", "t2")])
    wrapped = []
    real = orderings._bidemand_wrapper
    monkeypatch.setattr(orderings, "_bidemand_wrapper",
                        lambda h, trace, depth: wrapped.append(h) or real(h, trace, depth))
    trace = []
    sigma = adequate_bidemand(g, trace)
    assert verify_adequate(g, sigma)
    assert any(e["case"] == "3" for e in trace)
    assert wrapped == []


def reference_components(g: BipartiteGraph) -> list:
    """g's connected components by closing each first unreached buyer's
    neighborhood until it stops growing, as items and buyers in g's orders."""
    comps, reached = [], set()
    for t in g.buyers:
        if t in reached:
            continue
        buyers, items = {t}, set()
        while items != g.neighbors(buyers):
            items = g.neighbors(buyers)
            buyers |= {u for s in items for u in g.item_adj[s]}
        reached |= buyers
        comps.append(([s for s in g.items if s in items], [u for u in g.buyers if u in buyers]))
    return comps


def test_components_are_the_neighborhood_closures(bidemand_recursion):
    # the breadth-first components, in order of first buyer, on the recursion's
    # graphs and on random graphs; an item on no edge is an internal error
    rng = random.Random(83)
    graphs, isolated = list(bidemand_recursion), 0
    for _ in range(400):
        buyers = [f"t{k}" for k in range(rng.randint(1, 7))]
        items = [f"s{k}" for k in range(rng.randint(0, 10))]
        density = rng.random() * 0.5
        edges = [(s, t) for s in items for t in buyers if rng.random() < density]
        graphs.append(unit_graph(items, buyers, dict.fromkeys(buyers, 2), edges))
    for g in graphs:
        if any(not g.item_adj[s] for s in g.items):
            isolated += 1
            with pytest.raises(InternalConsistencyError, match="^isolated item in tight graph$"):
                orderings._components(g)
        else:
            assert orderings._components(g) == reference_components(g)
    assert isolated >= 100 and len(graphs) - isolated >= 500
    assert sum(len(reference_components(g)) > 1 for g in graphs) >= 100


def test_bidemand_complete_case1():
    items = [f"s{i}" for i in range(6)]
    buyers = ["t1", "t2", "t3"]
    g = unit_graph(items, buyers, {t: 2 for t in buyers},
                   [(s, t) for s in items for t in buyers])
    trace = []
    sigma = adequate_bidemand(g, trace)
    assert verify_adequate(g, sigma)
    assert any(e["case"] == "1" for e in trace)


def test_bidemand_figure_market_blocking_pair(fig1):
    gpi = tight_of(fig1)
    trace = []
    sigma = adequate_bidemand(gpi, trace)
    assert verify_adequate(gpi, sigma)
    cases = [e["case"] for e in trace]
    assert "2.2.2" in cases  # X and Z cover the buyers; pair splits neighborhoods


def test_bidemand_mixed_demands():
    # demand-one buyers ride along with bi-demand buyers
    rng = random.Random(71)
    for _ in range(15):
        nb = rng.randint(2, 4)
        profile = [rng.choice([1, 2]) for _ in range(nb)]
        m = generate_instance(rng.randint(0, 10**6), nb, profile, (1, 3))
        gpi = tight_of(m)
        sigma = adequate_bidemand(gpi)
        assert verify_adequate(gpi, sigma)


def test_bidemand_random_corpus():
    rng = random.Random(81)
    for _ in range(30):
        nb = rng.randint(2, 5)
        m = generate_instance(rng.randint(0, 10**6), nb, 2, (1, 3))
        gpi = tight_of(m)
        sigma = adequate_bidemand(gpi)
        assert verify_adequate(gpi, sigma)
        assert brute_verify_adequate(gpi, sigma)


def test_bidemand_larger_markets():
    # beyond the end-to-end corpus sizes: adequacy only, six and seven buyers
    for k in range(6):
        m = generate_instance(90000 + k, 6 + k % 2, 2, (1, 2 + k % 3))
        gpi = tight_of(m)
        assert verify_adequate(gpi, adequate_bidemand(gpi))


def test_bidemand_rejects_big_demand():
    g = unit_graph(["s1", "s2", "s3"], ["t1"], {"t1": 3},
                   [("s1", "t1"), ("s2", "t1"), ("s3", "t1")])
    with pytest.raises(ContractViolationError):
        adequate_bidemand(g)


def test_bidemand_rejects_graph_without_factor():
    # |S| = 3 differs from b(T) = 4
    uneven = unit_graph(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 2},
                        [("s1", "t1"), ("s2", "t1"), ("s2", "t2"), ("s3", "t2")])
    # |S| = b(T) = 6, but t1 and t2 need four items out of {s1, s2, s3}
    items = [f"s{i}" for i in range(1, 7)]
    hall = unit_graph(items, ["t1", "t2", "t3"], {"t1": 2, "t2": 2, "t3": 2},
                      [(s, t) for s in items[:3] for t in ("t1", "t2")]
                      + [(s, "t3") for s in items[2:]])
    for g in (uneven, hall):
        with pytest.raises(ContractViolationError, match="graph admits no b-factor"):
            adequate_bidemand(g)


def test_bidemand_is_the_refined_pipeline_on_tight_graphs(bidemand_recursion):
    # The former depth-0 pipeline written out: refine, cut the tight subgraph,
    # run the case analysis on it and lift by combine.  Where every edge lies
    # in a b-factor, the case analysis on the graph itself gives the same
    # ordering and trace; a graph with an edge in no b-factor (the recursion
    # refines such graphs before it cuts them) is the caller's error.
    same = refused = 0
    for g in bidemand_recursion:
        sc = refine_covering(g)
        old_trace, trace = [], []
        old = combine(sc.pi, orderings._bidemand_cases(tight_subgraph(sc, g), old_trace, 0))
        if sc.tight_edges == g.edge_set:
            assert adequate_bidemand(g, trace) == old and trace == old_trace
            same += 1
        else:
            with pytest.raises(ContractViolationError):
                adequate_bidemand(g)
            refused += 1
    assert same >= 300 and refused >= 50


def test_bidemand_item_lists_are_the_ordering_returning_wrapper(bidemand_recursion, monkeypatch):
    # The former wrapper refined every graph, ranked each lift by (pi, rank)
    # through a rank map and its callers listed it again; run with it, the
    # recursion gives the same lifts, orderings and traces on every graph the
    # bi-demand ordering receives
    def run(g):
        lift_trace, trace = [], []
        lift = orderings._bidemand_wrapper(g, lift_trace, 0)
        try:
            sigma = adequate_bidemand(g, trace)
        except ContractViolationError:
            sigma = None
        return list(lift), lift_trace, sigma, trace

    new = [run(g) for g in bidemand_recursion]
    monkeypatch.setattr(orderings, "_bidemand_wrapper", reference_bidemand_wrapper)
    old = [run(g) for g in bidemand_recursion]
    assert new == old
    assert sum(sigma is not None for _, _, sigma, _ in new) >= 300
    assert sum(len(lift_trace) > 1 for _, lift_trace, _, _ in new) >= 300


def dense_rank(key: dict) -> dict:
    """Each entry's place among the distinct values of key: the weak order, ties kept."""
    place = {x: k for k, x in enumerate(sorted(set(key.values())))}
    return {v: place[x] for v, x in key.items()}


def test_factor_components_are_the_refined_dual_of_every_recursion_graph(
        bidemand_recursion, wrapper_corpus, monkeypatch):
    # On every graph the bi-demand ordering receives or its recursion cuts, the
    # components of the held b-factor's digraph give refine's structured dual:
    # an item shares its holder's component, an edge is tight iff its buyer
    # shares one with the item's holder, and the holders' heights rank the
    # items as pi does, ties included.
    # The dual is constant exactly where every edge is legal; and the wrapper
    # that reads the components gives the lists and traces of the one that
    # refines every graph
    graphs = bidemand_recursion + wrapper_corpus
    settled = 0
    for g in graphs:
        assert matching.bfactor_exists(g)[0]
        constant = dict.fromkeys(g.items, Fraction(2, 3)) | dict.fromkeys(g.buyers, Fraction(1, 3))
        owner = g.max_cardinality_bmatching[0]
        sc = refine_covering(g, frozenset(owner.items()))
        comp, height = g.factor_components
        assert all(comp[s] == comp[t] for s, t in owner.items())
        legal = frozenset((s, t) for s, t in g.edges if comp[t] == comp[owner[s]])
        assert legal == sc.tight_edges
        assert dense_rank({s: height[comp[owner[s]]] for s in g.items}) == \
            dense_rank({s: sc.pi.pi[s] for s in g.items})
        flat = sc.pi.pi == constant
        assert flat == (legal == g.edge_set)
        settled += flat
    assert len(graphs) >= 600 and settled >= 400 and len(graphs) - settled >= 120

    def run(g):
        trace = []
        return orderings._bidemand_wrapper(g, trace, 0), trace

    new = [run(g) for g in graphs]
    monkeypatch.setattr(orderings, "_bidemand_wrapper", reference_bidemand_wrapper)
    assert [run(g) for g in graphs] == new


def test_the_bidemand_ordering_refines_nothing(bidemand_recursion, monkeypatch):
    # orderings imports nothing from the structured dual, and no refine runs
    # inside adequate_bidemand, its recursion's cut graphs included
    assert all(v is not dual and getattr(v, "__module__", None) != dual.__name__
               for v in vars(orderings).values())

    def no_refine(*args):
        raise AssertionError("the bi-demand ordering refined a graph")

    wrapped = []
    real = orderings._bidemand_wrapper
    monkeypatch.setattr(orderings, "_bidemand_wrapper",
                        lambda h, trace, depth: wrapped.append(h) or real(h, trace, depth))
    monkeypatch.setattr(dual, "refine_covering", no_refine)
    monkeypatch.setattr(dual, "_seller_optimal", no_refine)
    ordered = 0
    for g in bidemand_recursion:
        try:
            ordered += verify_adequate(g, adequate_bidemand(g))
        except ContractViolationError:
            pass
    assert ordered >= 300 and len(wrapped) >= 300


def test_bidemand_refuses_an_edge_in_no_factor():
    # t1 must take s1 and s2, so the edge (s1, t2) lies in no b-factor; the
    # graph is refused whole and with a disconnected third buyer alongside
    edges = [("s1", "t1"), ("s2", "t1"), ("s1", "t2"), ("s3", "t2")]
    connected = unit_graph(["s1", "s2", "s3"], ["t1", "t2"], {"t1": 2, "t2": 1}, edges)
    split = unit_graph(["s1", "s2", "s3", "s4", "s5"], ["t1", "t2", "t3"],
                       {"t1": 2, "t2": 1, "t3": 2}, edges + [("s4", "t3"), ("s5", "t3")])
    for g in (connected, split):
        assert matching.bfactor_exists(g)[0]
        with pytest.raises(ContractViolationError):
            adequate_bidemand(g)


def test_bidemand_refuses_weights_other_than_one():
    items = ["s1", "s2", "s3", "s4"]
    weight = {(s, t): Fraction(1) for s in items for t in ("t1", "t2")}
    weight[("s1", "t1")] = Fraction(2)
    cap = dict.fromkeys(items, 1) | {"t1": 2, "t2": 2}
    g = BipartiteGraph.build(items, ["t1", "t2"], weight, cap)
    with pytest.raises(ContractViolationError, match="weights must be one"):
        adequate_bidemand(g)


def test_an_unpruned_recursion_graph_is_an_internal_error(fig1, monkeypatch):
    # the figure market's recursion cuts a graph with an edge in no b-factor
    # and prunes it to its legal edges; handed on unpruned, the case analysis
    # refuses it, and that is the engine's fault, not the caller's
    gpi = tight_of(fig1)
    pruned = []
    real = BipartiteGraph.unit_subgraph
    monkeypatch.setattr(BipartiteGraph, "unit_subgraph",
                        lambda h, edges: pruned.append(h) or real(h, edges))
    assert verify_adequate(gpi, adequate_bidemand(gpi)) and pruned
    monkeypatch.setattr(BipartiteGraph, "unit_subgraph", lambda h, edges: h)
    with pytest.raises(InternalConsistencyError, match="^cut graph refused: "):
        adequate_bidemand(gpi)


def test_a_non_maximum_matching_in_the_recursion_is_an_internal_error(fig1, monkeypatch):
    # a cut graph whose held matching is no b-factor gives no components to
    # read; in the bi-demand recursion, that is the engine's fault
    gpi = tight_of(fig1)
    real = orderings._bidemand_wrapper

    def starved(h, trace, depth):
        empty = MappingProxyType({}), MappingProxyType(dict.fromkeys(h.buyers, 0))
        h.__dict__["max_cardinality_bmatching"] = (*empty, frozenset(h.buyers))
        return real(h, trace, depth)

    monkeypatch.setattr(orderings, "_bidemand_wrapper", starved)
    with pytest.raises(InternalConsistencyError, match="^graph admits no b-factor$"):
        adequate_bidemand(gpi)


def test_verify_adequate_single_buyer():
    g = unit_graph(["s1", "s2"], ["t1"], {"t1": 2}, [("s1", "t1"), ("s2", "t1")])
    assert verify_adequate(g, ["s1", "s2"])
    assert verify_adequate(g, ["s2", "s1"])


def test_verify_adequate_detects_bad_ordering(d1_graph):
    bad = ("s2", "s3", "s1", "s4", "s5", "s6")
    assert not verify_adequate(d1_graph, bad)
    assert not brute_verify_adequate(d1_graph, bad)


def test_verify_adequate_matches_brute_force():
    rng = random.Random(91)
    agree_false = 0
    for _ in range(25):
        g = random_factor_graph(rng)
        items = list(g.items)
        rng.shuffle(items)
        got = verify_adequate(g, items)
        assert got == brute_verify_adequate(g, items)
        agree_false += not got
    assert agree_false > 0  # random orderings do fail sometimes


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_adequate(tight_of(generate_instance(1, 3, 2, (1, 3))),
                             ["x1", "x2"]),
     ModelError, "ordering domain does not match graph items"),
    (lambda: adequate_three_buyers(tight_of(generate_instance(1, 4, 1, (1, 3)))),
     ContractViolationError, "at most three buyers supported"),
    (lambda: adequate_two_buyers(tight_of(generate_instance(1, 3, 2, (1, 3)))),
     ContractViolationError, "exactly two buyers required"),
    (lambda: verify_adequate(tight_of(generate_instance(1, 3, 2, (1, 3))), [[1]]),
     ModelError, "ordering must be hashable ids"),
    (lambda: combine(Covering({}), None), ModelError, "ordering must be hashable ids"),
    (lambda: adequate_bidemand(tight_of(generate_instance(1, 4, 2, (1, 3))), trace=5),
     ModelError, "trace must be a list"),
    (lambda: combine({"s1": 1}, ["s1"]), ModelError, "pi must be a Covering"),
])
def test_ordering_refusals_are_typed(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
