import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dynprice import (BipartiteGraph, bfactor_exists, feasible_bundle, legal_classes_3,
                      market_graph, maximal_dangerous_set, min_surplus_set,
                      minimal_dangerous_disjoint, refine_covering, tight_subgraph)
from dynprice.errors import ContractViolationError, ModelError
from dynprice.sets import all_dangerous_sets, grow_dangerous_set, is_dangerous, surplus
from dynprice.simulation import oracle_feasible

from conftest import (brute_dangerous_sets, brute_feasible, brute_first_min_surplus,
                      brute_min_surplus, figure_market)


def fig1_tight():
    m = figure_market()
    g = market_graph(m)
    sc = refine_covering(g)
    return m, tight_subgraph(sc, g)


def random_bidemand_tight(rng, max_buyers=4):
    """Tight graph of a random bi-demand market with the saturation property."""
    from dynprice import generate_instance
    nb = rng.randint(2, max_buyers)
    m = generate_instance(rng.randint(0, 10**6), nb, 2, (1, 3))
    g = market_graph(m)
    sc = refine_covering(g)
    return tight_subgraph(sc, g)


def test_feasible_bundle_figure_market():
    m, gpi = fig1_tight()
    assert not feasible_bundle(gpi, "t1", ["s3", "s4"])
    assert feasible_bundle(gpi, "t1", ["s1", "s3"])
    assert feasible_bundle(gpi, "t1", ["s1", "s4"])


def test_feasible_bundle_single_buyer():
    g = BipartiteGraph.build(["s1", "s2"], ["t1"],
                             {("s1", "t1"): Fraction(1), ("s2", "t1"): Fraction(1)},
                             {"s1": 1, "s2": 1, "t1": 2})
    assert feasible_bundle(g, "t1", ["s1", "s2"])


def test_feasible_bundle_contract(d1_graph):
    with pytest.raises(ContractViolationError):
        feasible_bundle(d1_graph, "t1", ["s1"])  # wrong size
    with pytest.raises(ContractViolationError):
        feasible_bundle(d1_graph, "t3", ["s1", "s4"])  # s1 not tight for t3
    with pytest.raises(ModelError):
        feasible_bundle(d1_graph, "s1", ["s2", "s3"])  # an item as the buyer
    with pytest.raises(ModelError):
        feasible_bundle(d1_graph, "t1", ["s1", "nope"])


def test_feasible_matches_brute_and_oracle(d1_market, d1_graph):
    for t in d1_graph.buyers:
        for F in combinations(d1_graph.buyer_adj[t], 2):
            got = feasible_bundle(d1_graph, t, F)
            assert got == brute_feasible(d1_graph, t, F)
            assert got == oracle_feasible(d1_market, t, F)


def test_min_surplus_d1(d1_graph):
    Y, val = min_surplus_set(d1_graph)
    assert val == 1
    assert Y in (frozenset({"t1"}), frozenset({"t3"}), frozenset({"t2", "t3"}))
    Y2, val2 = min_surplus_set(d1_graph, include=["t2"])
    assert (Y2, val2) == (frozenset({"t2", "t3"}), 1)


def test_min_surplus_complete_bipartite():
    items = [f"s{i}" for i in range(6)]
    buyers = ["t1", "t2", "t3"]
    g = BipartiteGraph.build(items, buyers,
                             {(s, t): Fraction(1) for s in items for t in buyers},
                             {**{s: 1 for s in items}, **{t: 2 for t in buyers}})
    Y, val = min_surplus_set(g)
    assert val == 2 and len(Y) == 2  # N(Y) = S always; minimized at |Y| = |T| - 1


def test_min_surplus_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        gpi = random_bidemand_tight(rng)
        got = min_surplus_set(gpi)
        want_val, want_sets = brute_min_surplus(gpi)
        assert got is not None and got[1] == want_val
        assert got[0] in want_sets
        # constrained probes
        buyers = list(gpi.buyers)
        inc = frozenset({rng.choice(buyers)})
        exc_pool = [t for t in buyers if t not in inc]
        exc = frozenset({rng.choice(exc_pool)}) if exc_pool else frozenset()
        got_c = min_surplus_set(gpi, include=inc, exclude=exc)
        want_val_c, want_sets_c = brute_min_surplus(gpi, inc, exc)
        if want_val_c is None:
            assert got_c is None
        else:
            assert got_c[1] == want_val_c and got_c[0] in want_sets_c


def random_capacitated(rng, with_factor):
    """Random graph with 0-8 buyers of capacity 0-3; with a b-factor built in,
    or with a random item count and edges only."""
    buyers = [f"t{k}" for k in range(rng.randint(0, 8))]
    cap = {t: rng.randint(0, 3) for t in buyers}
    edges = set()
    if with_factor:
        items = []
        for t in buyers:
            for _ in range(cap[t]):
                items.append(f"s{len(items)}")
                edges.add((items[-1], t))
    else:
        items = [f"s{k}" for k in range(rng.randint(0, 2 * len(buyers) + 3))]
    density = rng.random() * 0.6
    edges |= {(s, t) for s in items for t in buyers if rng.random() < density}
    rng.shuffle(items)
    return BipartiteGraph.build(items, buyers, {e: Fraction(1) for e in edges},
                                {**{s: 1 for s in items}, **cap})


def full_scan_searches(g: BipartiteGraph, include, exclude) -> int:
    """How many searches `min_surplus_set` runs on the query without its early stop."""
    n = len(g.buyers)
    if include and exclude:
        return 1
    if include or exclude:
        return n - len(include or exclude)
    return 2 * max(n - 1, 0)


def brute_maximal_dangerous(g: BipartiteGraph):
    """`maximal_dangerous_set`'s answer, or its refusal, from the enumerated first minimizers."""
    first = brute_first_min_surplus(g)
    if first is not None and first[1] <= 0:
        return "surplus-zero set exists; graph splits instead"
    if first is None or first[1] >= 2:
        return None
    Y = first[0]
    for t in g.buyers:
        probe = None if t in Y else brute_first_min_surplus(g, Y | {t})
        if probe is not None and probe[1] == 1:
            Y = probe[0]
    return Y


def test_min_surplus_is_the_documented_first_minimizer(wrapper_corpus, monkeypatch):
    # every query shape, on graphs with and without a b-factor, with capacity-0
    # buyers and surplus-zero sets, and on tight graphs: the answer is the full
    # grid's first minimizer, also where the scan stops at its first cut of
    # surplus 1 (the held b-factor's digraph strongly connected), and
    # maximal_dangerous_set gives the same set or the same refusal
    import dynprice.sets as sets
    calls = 0
    real = sets._surplus_cut

    def counting(gpi, include, exclude):
        nonlocal calls
        calls += 1
        return real(gpi, include, exclude)

    monkeypatch.setattr(sets, "_surplus_cut", counting)
    rng = random.Random(43)
    graphs = [random_capacitated(rng, with_factor=k % 2 == 0) for k in range(400)]
    graphs += [random_bidemand_tight(rng, 6) for _ in range(500)]
    graphs += [g for g in wrapper_corpus if len(g.buyers) <= 7]
    shapes = {"none": 0, "include": 0, "exclude": 0, "both": 0}
    early = refused = unfactored = capacity_zero = 0
    for g in graphs:
        buyers = list(g.buyers)
        queries = [("none", (), ())]
        if buyers:
            queries.append(("include", rng.sample(buyers, rng.randint(1, len(buyers))), ()))
            queries.append(("exclude", (), rng.sample(buyers, rng.randint(1, len(buyers)))))
        if len(buyers) >= 2:
            split = rng.randint(1, len(buyers) - 1)
            stop = rng.randint(split + 1, len(buyers))
            perm = rng.sample(buyers, len(buyers))
            queries.append(("both", perm[:split], perm[split:stop]))
        for shape, inc, exc in queries:
            want = brute_first_min_surplus(g, frozenset(inc), frozenset(exc))
            calls = 0
            assert min_surplus_set(g, include=inc, exclude=exc) == want, (g, inc, exc)
            shapes[shape] += want is not None
            early += calls < full_scan_searches(g, inc, exc)
        try:
            answer = maximal_dangerous_set(g)
        except ContractViolationError as exc:
            answer = str(exc)
            refused += 1
        assert answer == brute_maximal_dangerous(g)
        unfactored += g.factor_components is None
        capacity_zero += any(g.capacity[t] == 0 for t in buyers)
    assert min(shapes.values()) >= 250 and sum(shapes.values()) >= 1000 and early >= 300
    assert refused >= 100 and unfactored >= 100 and capacity_zero >= 100


def test_min_surplus_needs_the_column_searches():
    # t1 sees four items on its own, so every minimizer avoids t1 and the
    # searches that force t1 in (the first row of the grid) miss the minimum
    items = ["s1", "s2", "s3", "s4", "s5"]
    edges = [("s1", "t1"), ("s2", "t1"), ("s3", "t1"), ("s4", "t1"),
             ("s5", "t2"), ("s5", "t3")]
    g = BipartiteGraph.build(items, ["t1", "t2", "t3"], {e: Fraction(1) for e in edges},
                             {**{s: 1 for s in items}, "t1": 1, "t2": 1, "t3": 1})
    got = min_surplus_set(g)
    assert got == brute_first_min_surplus(g) == (frozenset({"t2", "t3"}), -1)
    assert min_surplus_set(g, include=["t1"])[1] == 3


def test_min_surplus_no_candidates(d1_graph):
    assert min_surplus_set(d1_graph, include=d1_graph.buyers) is None


def test_set_queries_refuse_unknown_buyers():
    from dynprice import generate_instance
    g = market_graph(generate_instance(500001, 3, 2, (1, 3)))
    for query in (lambda: surplus(g, ["s1"]), lambda: is_dangerous(g, ["nobody"]),
                  lambda: min_surplus_set(g, include=["s1"]),
                  lambda: min_surplus_set(g, exclude=["nobody"]),
                  lambda: surplus(g, [1, "zz"])):   # ids of mixed types are listed too
        with pytest.raises(ModelError, match="^unknown buyers"):
            query()


def test_maximal_dangerous_d1(d1_graph):
    assert all_dangerous_sets(d1_graph) == [frozenset({"t1"}), frozenset({"t3"}),
                                            frozenset({"t2", "t3"})]
    Z = maximal_dangerous_set(d1_graph)
    assert Z in (frozenset({"t1"}), frozenset({"t2", "t3"}))
    assert not any(Z < Y for Y in all_dangerous_sets(d1_graph))


def test_maximal_dangerous_none_when_case1():
    items = [f"s{i}" for i in range(6)]
    buyers = ["t1", "t2", "t3"]
    g = BipartiteGraph.build(items, buyers,
                             {(s, t): Fraction(1) for s in items for t in buyers},
                             {**{s: 1 for s in items}, **{t: 2 for t in buyers}})
    assert maximal_dangerous_set(g) is None


def test_maximal_dangerous_figure_market():
    _, gpi = fig1_tight()
    Z = maximal_dangerous_set(gpi)
    assert Z is not None and is_dangerous(gpi, Z)
    assert not any(Z < Y for Y in all_dangerous_sets(gpi))
    assert len(Z) == 2  # the three buyer pairs are the maximal dangerous sets


def test_maximal_dangerous_rejects_surplus_zero():
    # two disjoint stars: component buyer sets have surplus zero
    g = BipartiteGraph.build(
        ["s1", "s2", "s3", "s4"], ["t1", "t2"],
        {("s1", "t1"): Fraction(1), ("s2", "t1"): Fraction(1),
         ("s3", "t2"): Fraction(1), ("s4", "t2"): Fraction(1)},
        {"s1": 1, "s2": 1, "s3": 1, "s4": 1, "t1": 2, "t2": 2})
    with pytest.raises(ContractViolationError):
        maximal_dangerous_set(g)


def test_minimal_disjoint_d1(d1_graph):
    assert minimal_dangerous_disjoint(d1_graph, frozenset({"t2", "t3"})) == frozenset({"t1"})
    # {t2,t3} is dangerous but not minimal; the minimal disjoint set is {t3}
    assert minimal_dangerous_disjoint(d1_graph, frozenset({"t1"})) == frozenset({"t3"})
    with pytest.raises(ContractViolationError):
        minimal_dangerous_disjoint(d1_graph, frozenset({"t2"}))  # not dangerous


def test_minimal_disjoint_none_when_unique():
    # t1 sees three items, t2 sees all four: {t1} is the only dangerous set
    items = ["s1", "s2", "s3", "s4"]
    edges = {("s1", "t1"): 1, ("s2", "t1"): 1, ("s3", "t1"): 1,
             ("s1", "t2"): 1, ("s2", "t2"): 1, ("s3", "t2"): 1, ("s4", "t2"): 1}
    g = BipartiteGraph.build(items, ["t1", "t2"],
                             {e: Fraction(v) for e, v in edges.items()},
                             {**{s: 1 for s in items}, "t1": 2, "t2": 2})
    danger = all_dangerous_sets(g)
    assert danger == [frozenset({"t1"})]
    assert minimal_dangerous_disjoint(g, frozenset({"t1"})) is None


def test_minimal_disjoint_refuses_a_surplus_zero_set():
    # {t1} is dangerous (N = {s1, s2}); away from it, {t2} has surplus zero
    g = BipartiteGraph.build(["s1", "s2", "s3"], ["t1", "t2", "t3"],
                             {("s1", "t1"): Fraction(1), ("s2", "t1"): Fraction(1),
                              ("s2", "t2"): Fraction(1), ("s3", "t3"): Fraction(1)},
                             {"s1": 1, "s2": 1, "s3": 1, "t1": 1, "t2": 1, "t3": 1})
    with pytest.raises(ContractViolationError,
                       match="^surplus-zero set exists; graph splits instead$"):
        minimal_dangerous_disjoint(g, frozenset({"t1"}))


def test_dangerous_finders_match_enumeration():
    rng = random.Random(29)
    for _ in range(25):
        gpi = random_bidemand_tight(rng)
        danger = brute_dangerous_sets(gpi)
        assert sorted(map(sorted, all_dangerous_sets(gpi))) == sorted(map(sorted, danger))
        base = min_surplus_set(gpi)
        if base[1] == 0:
            continue  # disconnected tight graph: finders are out of contract
        Z = maximal_dangerous_set(gpi)
        if not danger:
            assert Z is None
            continue
        assert Z in danger and not any(Z < Y for Y in danger)
        X = minimal_dangerous_disjoint(gpi, Z)
        disjoint = [Y for Y in danger if not (Y & Z)]
        if X is None:
            assert not disjoint
        else:
            assert X in disjoint and not any(Y < X for Y in disjoint)


def test_searches_leave_the_graphs_matching_untouched():
    """Every surplus search and feasibility check copies the graph's cached
    maximum b-matching; none may change it, so it must stay what a freshly
    built graph computes."""
    rng = random.Random(71)
    both_finders_ran = 0
    while both_finders_ran < 200:
        gpi = random_bidemand_tight(rng, 6)
        first, last = gpi.buyers[:1], gpi.buyers[-1:]
        for inc, exc in (((), ()), (first, ()), ((), last), (first, last)):
            min_surplus_set(gpi, include=inc, exclude=exc)
        try:
            Z = maximal_dangerous_set(gpi)
            if Z is not None:
                minimal_dangerous_disjoint(gpi, Z)
                both_finders_ran += 1
        except ContractViolationError:
            pass  # a surplus-zero set: the finders' searches still ran
        for t in gpi.buyers:
            for F in combinations(gpi.buyer_adj[t], gpi.capacity[t]):
                feasible_bundle(gpi, t, F)
        fresh = dataclasses.replace(gpi)    # the same fields, no cached b-matching
        owner, load, reached = gpi.max_cardinality_bmatching
        want_owner, want_load, want_reached = fresh.max_cardinality_bmatching
        assert dict(owner) == dict(want_owner) and dict(load) == dict(want_load)
        assert reached == want_reached


def test_uncrossing_claims_case2():
    """Dangerous-set uncrossing: disjoint pairs share at most one neighbor and
    union stays dangerous; intersecting pairs have dangerous meet and join.
    Only meaningful when every nonempty proper subset has surplus >= 1."""
    rng = random.Random(31)
    checked_pairs = 0
    for _ in range(40):
        gpi = random_bidemand_tight(rng, max_buyers=5)
        if min_surplus_set(gpi)[1] < 1:
            continue
        danger = all_dangerous_sets(gpi)
        full = frozenset(gpi.buyers)
        for y1, y2 in combinations(danger, 2):
            if y1 | y2 == full:
                continue
            checked_pairs += 1
            if not y1 & y2:
                common = gpi.neighbors(y1) & gpi.neighbors(y2)
                if common:
                    assert len(common) == 1
                    assert is_dangerous(gpi, y1 | y2)
            else:
                assert is_dangerous(gpi, y1 & y2)
                assert is_dangerous(gpi, y1 | y2)
    assert checked_pairs > 0


def test_infeasible_pair_characterization():
    """Under the Case-2 regime, a tight pair is infeasible for t exactly when a
    dangerous set avoiding t covers both items."""
    rng = random.Random(37)
    checked = 0
    for _ in range(30):
        gpi = random_bidemand_tight(rng, max_buyers=4)
        if min_surplus_set(gpi)[1] < 1:
            continue
        danger = all_dangerous_sets(gpi)
        for t in gpi.buyers:
            if gpi.capacity[t] != 2:
                continue
            for F in combinations(gpi.buyer_adj[t], 2):
                blocked = any(t not in Y and set(F) <= gpi.neighbors(Y) for Y in danger)
                assert feasible_bundle(gpi, t, F) == (not blocked)
                checked += 1
    assert checked > 0


def test_legal_classes_figure_market():
    _, gpi = fig1_tight()
    classes = legal_classes_3(gpi)
    assert classes[frozenset({1})] == frozenset({"s1"})
    assert classes[frozenset({2})] == frozenset({"s2"})
    assert classes[frozenset({3})] == frozenset({"s6"})
    assert classes[frozenset({1, 2})] == frozenset({"s3"})
    assert classes[frozenset({1, 3})] == frozenset({"s4"})
    assert classes[frozenset({2, 3})] == frozenset({"s5"})
    assert classes[frozenset({1, 2, 3})] == frozenset()


def test_legal_classes_all_shared():
    items = [f"s{i}" for i in range(3)]
    buyers = ["t1", "t2", "t3"]
    g = BipartiteGraph.build(items, buyers,
                             {(s, t): Fraction(1) for s in items for t in buyers},
                             {**{s: 1 for s in items}, **{t: 1 for t in buyers}})
    classes = legal_classes_3(g)
    assert classes[frozenset({1, 2, 3})] == frozenset(items)
    assert all(not v for k, v in classes.items() if k != frozenset({1, 2, 3}))


def test_legal_classes_d1(d1_graph):
    classes = legal_classes_3(d1_graph)
    assert classes[frozenset({1})] == frozenset({"s1"})
    assert classes[frozenset({1, 2})] == frozenset({"s2", "s3"})
    assert classes[frozenset({2, 3})] == frozenset({"s4", "s5", "s6"})
    assert classes[frozenset({1, 2, 3})] == frozenset()


def test_legal_classes_requires_three(d1_graph):
    with pytest.raises(ContractViolationError):
        legal_classes_3(d1_graph.without(["t3"]))


def test_surplus_values(d1_graph):
    assert surplus(d1_graph, ["t1"]) == 1
    assert surplus(d1_graph, ["t2"]) == 3
    assert surplus(d1_graph, ["t1", "t2", "t3"]) == 0


def test_feasible_bundle_is_false_when_items_and_demand_differ():
    # three items, demand four: G - t1 - {s1, s2} still matches s3 to t2, so
    # only the counting check |S| = b(T) tells that no b-factor exists
    g = BipartiteGraph.build(["s1", "s2", "s3"], ["t1", "t2"],
                             {("s1", "t1"): 1, ("s2", "t1"): 1, ("s1", "t2"): 1, ("s3", "t2"): 1},
                             {"s1": 1, "s2": 1, "s3": 1, "t1": 2, "t2": 2})
    assert feasible_bundle(g, "t1", ["s1", "s2"]) is False


@pytest.mark.parametrize("call, error, message", [
    (lambda g: min_surplus_set(g, include=["t1"], exclude=["t1", "t2"]), ModelError,
     "include and exclude overlap"),
    (lambda g: all_dangerous_sets(g), ContractViolationError, "enumeration limited to 16 buyers"),
    (lambda g: grow_dangerous_set(g, g.buyers), ContractViolationError, "Y must be dangerous"),
])
def test_set_refusals_are_typed(call, error, message):
    from dynprice import generate_instance
    g = market_graph(generate_instance(1, 17, 1, (1, 3)))
    with pytest.raises(error, match=f"^{message}$"):
        call(g)


def search_answers(g: BipartiteGraph) -> list:
    """What the surplus searches, bundle feasibility and the b-factor test say on g;
    a ContractViolationError is an answer too."""
    def outcome(call, *args):
        try:
            return call(g, *args)
        except ContractViolationError as exc:
            return str(exc)

    Z = outcome(maximal_dangerous_set)
    return ([bfactor_exists(g), min_surplus_set(g), Z]
            + [outcome(minimal_dangerous_disjoint, Z) if isinstance(Z, frozenset) else None]
            + [min_surplus_set(g, include=[t]) for t in g.buyers]
            + [min_surplus_set(g, exclude=[t]) for t in g.buyers]
            + [feasible_bundle(g, t, F) for t in g.buyers
               for F in combinations(g.buyer_adj[t], g.capacity[t])])


def reversed_bfactor(g: BipartiteGraph) -> dict:
    """The owners of a maximum b-matching of g grown over its buyers and their
    items in reverse order, most often another one than g grows."""
    from dynprice.matching import augment
    owner, load = {}, dict.fromkeys(reversed(g.buyers), 0)
    augment({t: adj[::-1] for t, adj in g.buyer_adj.items()}, g.capacity, owner, load)
    return owner


def test_answers_do_not_depend_on_which_bfactor_a_graph_holds(bidemand_recursion, wrapper_corpus):
    # each graph the bi-demand ordering receives answers the same holding a
    # b-factor grown in reverse order as a copy of it that grows its own from empty
    other = 0
    for g in bidemand_recursion + wrapper_corpus:
        fresh = dataclasses.replace(g)
        assert "max_cardinality_bmatching" not in fresh.__dict__
        seeded = dataclasses.replace(g)._hold(reversed_bfactor(g))
        assert "max_cardinality_bmatching" in seeded.__dict__
        assert search_answers(seeded) == search_answers(fresh)
        other += (dict(seeded.max_cardinality_bmatching[0])
                  != dict(fresh.max_cardinality_bmatching[0]))
    assert other >= 100


def test_a_handed_down_bmatching_must_be_a_bfactor_of_the_child(bidemand_recursion,
                                                                 wrapper_corpus):
    # `_hold` keeps the owners it is handed only where they are a b-factor of its
    # graph: not without one matched edge, nor on a subgraph without one; it keeps
    # them on a subgraph without an edge outside them
    dropped = kept = 0
    for g in bidemand_recursion + wrapper_corpus:
        owner = dict(g.max_cardinality_bmatching[0])
        held = dataclasses.replace(g)._hold(owner)
        assert dict(held.__dict__["max_cardinality_bmatching"][0]) == owner
        matched = next(iter(owner.items()))
        short = dataclasses.replace(g)._hold({s: t for s, t in owner.items() if s != matched[0]})
        assert "max_cardinality_bmatching" not in short.__dict__
        child = g.unit_subgraph(set(g.edges) - {matched})._hold(owner)
        assert "max_cardinality_bmatching" not in child.__dict__
        assert matched not in child.max_cardinality_bmatching[0].items()
        dropped += 1
        spare = next((e for e in g.edges if owner[e[0]] != e[1]), None)
        if spare is not None:
            child = g.unit_subgraph(set(g.edges) - {spare})._hold(owner)
            assert dict(child.__dict__["max_cardinality_bmatching"][0]) == owner
            kept += 1
    assert dropped >= 600 and kept >= 400


def test_grow_refuses_a_set_that_is_not_dangerous(d1_market):
    # all three buyers have surplus 0 and {t2} has surplus 3: neither is dangerous,
    # and growing either would hand back a set that is not dangerous either
    from dynprice.pricing import tight_market
    g = tight_market(d1_market).gpi
    for Y in (g.buyers, ["t2"], []):
        with pytest.raises(ContractViolationError, match="^Y must be dangerous$"):
            grow_dangerous_set(g, Y)
    assert grow_dangerous_set(g, ["t3"]) == frozenset({"t2", "t3"})


def test_feasible_bundle_answers_from_the_witness_or_by_augmenting(monkeypatch):
    # every bundle of every buyer: the held b-factor answers for the bundle it
    # gives, and augmenting for every other; both agree with the brute force
    import dynprice.sets as sets
    augmented = 0
    real = sets.augment

    def counting(*args):
        nonlocal augmented
        augmented += 1
        return real(*args)

    monkeypatch.setattr(sets, "augment", counting)
    rng = random.Random(61)
    graphs = [random_bidemand_tight(rng, 5) for _ in range(60)]
    graphs += [random_capacitated(rng, with_factor=k % 4 > 0) for k in range(120)]
    witness = searched = 0
    for g in graphs:
        for t in g.buyers:
            for F in combinations(g.buyer_adj[t], g.capacity[t]):
                before = augmented
                got = feasible_bundle(g, t, F)
                assert got == brute_feasible(g, t, F), (g, t, F)
                if augmented > before:
                    searched += 1
                elif got:       # else |S| != b(T) answered at once
                    assert {s for s, u in g.max_cardinality_bmatching[0].items()
                            if u == t} == set(F)
                    witness += 1
    assert witness >= 200 and searched >= 200


def test_feasible_bundle_is_false_for_a_bundle_the_held_bfactor_does_not_give():
    # the held b-factor gives t1 {s1, s2}; t1 taking {s2, s3} leaves s1, which
    # only t1 wants, unowned: that bundle is in no b-factor
    items = ["s1", "s2", "s3", "s4", "s5", "s6"]
    edges = [("s1", "t1"), ("s2", "t1"), ("s3", "t1"), ("s2", "t2"), ("s3", "t2"),
             ("s4", "t2"), ("s5", "t2"), ("s6", "t2"), ("s4", "t3"), ("s5", "t3"),
             ("s6", "t3")]
    g = BipartiteGraph.build(items, ["t1", "t2", "t3"], {e: 1 for e in edges},
                             {**dict.fromkeys(items, 1), "t1": 2, "t2": 2, "t3": 2})
    g = g._hold({"s1": "t1", "s2": "t1", "s3": "t2", "s4": "t2", "s5": "t3", "s6": "t3"})
    assert dict(g.max_cardinality_bmatching[0])["s2"] == "t1"
    assert feasible_bundle(g, "t1", ["s1", "s2"]) is True
    assert feasible_bundle(g, "t1", ["s2", "s3"]) is False
    assert brute_feasible(g, "t1", ["s2", "s3"]) is False
