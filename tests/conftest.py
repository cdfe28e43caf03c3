"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately avoid the package's solver and DP oracle: plain
recursion and full enumeration only, so they can arbitrate disagreements.
"""

import importlib.util
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from dynprice import BipartiteGraph, Market, bfactor_exists

# every run draws the same examples and keeps no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# ---------------------------------------------------------------------------
# Reference instances

@pytest.fixture
def e1() -> Market:
    # two unit-demand buyers over two items
    return Market.build(
        ["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
        {("t1", "s1"): 3, ("t1", "s2"): 1, ("t2", "s1"): 2, ("t2", "s2"): 2})


@pytest.fixture
def e2() -> Market:
    # two bi-demand buyers; unique optimum gives t1 {s1,s2}, t2 {s3,s4}
    vals = {}
    for s, v1, v2 in [("s1", 4, 3), ("s2", 4, 3), ("s3", 1, 3), ("s4", 1, 3)]:
        vals[("t1", s)] = v1
        vals[("t2", s)] = v2
    return Market.build(["s1", "s2", "s3", "s4"], ["t1", "t2"],
                        {"t1": 2, "t2": 2}, vals)


D1_NEIGHBORS = {
    "t1": ("s1", "s2", "s3"),
    "t2": ("s2", "s3", "s4", "s5", "s6"),
    "t3": ("s4", "s5", "s6"),
}
D1_ITEMS = ("s1", "s2", "s3", "s4", "s5", "s6")


@pytest.fixture
def d1_graph() -> BipartiteGraph:
    # bi-demand tight graph with dangerous sets {t1}, {t3}, {t2,t3}
    weight = {(s, t): Fraction(1) for t, ss in D1_NEIGHBORS.items() for s in ss}
    cap = {s: 1 for s in D1_ITEMS}
    cap.update({t: 2 for t in D1_NEIGHBORS})
    return BipartiteGraph.build(D1_ITEMS, tuple(D1_NEIGHBORS), weight, cap)


@pytest.fixture
def d1_market() -> Market:
    vals = {(t, s): Fraction(1 if s in D1_NEIGHBORS[t] else 0)
            for t in D1_NEIGHBORS for s in D1_ITEMS}
    return Market.build(D1_ITEMS, tuple(D1_NEIGHBORS), {t: 2 for t in D1_NEIGHBORS}, vals)


def figure_market() -> Market:
    """Three bi-demand buyers, six items, exactly two optimal allocations:
    M1 = t1{s1,s3} t2{s2,s5} t3{s4,s6} and M2 = t1{s1,s4} t2{s2,s3} t3{s5,s6}.
    """
    pos = {("t1", "s1"): 4, ("t1", "s3"): 2, ("t1", "s4"): 2,
           ("t2", "s2"): 4, ("t2", "s3"): 2, ("t2", "s5"): 2,
           ("t3", "s6"): 4, ("t3", "s4"): 2, ("t3", "s5"): 2}
    items = ["s1", "s2", "s3", "s4", "s5", "s6"]
    buyers = ["t1", "t2", "t3"]
    vals = {(t, s): Fraction(pos.get((t, s), 0)) for t in buyers for s in items}
    return Market.build(items, buyers, {t: 2 for t in buyers}, vals)


@pytest.fixture
def fig1() -> Market:
    return figure_market()


# ---------------------------------------------------------------------------
# Benchmark pools


def benchmark_workloads():
    """perfbench/workloads.py, which builds the benchmark's market pools."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bidemand_recursion() -> list[BipartiteGraph]:
    """The graphs the bi-demand ordering receives on the `price-bidemand` pool
    (seed 3): each round's tight graph, and each graph the recursion refines."""
    import dynprice.orderings as orderings
    import dynprice.pricing as pricing
    workloads = benchmark_workloads()
    graphs: list[BipartiteGraph] = []
    adequate, refine = orderings.adequate_bidemand, orderings.refine_covering

    def receiving(g, trace=None):
        graphs.append(g)
        return adequate(g, trace)

    def refining(g, m):
        graphs.append(g)
        return refine(g, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "probe", lambda: workloads.REFERENCE_S)  # no timing here
        mp.setattr(pricing, "adequate_bidemand", receiving)
        mp.setattr(orderings, "refine_covering", refining)
        for case in workloads.set_up("price-bidemand", 3):
            assert workloads.dynamic_run(case, "multi").error is None
    return graphs


# ---------------------------------------------------------------------------
# Graph references


def graph_fields(g: BipartiteGraph) -> tuple:
    """Every field of g in its own order, with the weights' types and `scaled`."""
    return (g.items, g.buyers, g.edges, list(g.weight.items()),
            [type(w) for w in g.weight.values()], list(g.capacity.items()), g.scaled)


def reference_tight_subgraph(sc, g: BipartiteGraph) -> BipartiteGraph:
    """The tight graph built from scratch: validated, sorted, unit weights."""
    return BipartiteGraph.build(g.items, g.buyers, {e: Fraction(1) for e in sc.tight_edges},
                                dict(g.capacity))


def reference_feasible_bundle(g: BipartiteGraph, t, F) -> bool:
    """Bundle feasibility from a cold start: a b-factor of a copy of g without t and F."""
    return bfactor_exists(g.without(frozenset(F) | {t}))[0]


def reference_verify_adequate(g: BipartiteGraph, sigma) -> bool:
    """Adequacy with every buyer's first b(t) neighbors checked by the cold start."""
    for t in g.buyers:
        nbrs = sorted(g.buyer_adj[t], key=sigma.rank.__getitem__)
        if len(nbrs) < g.capacity[t] or not reference_feasible_bundle(g, t, nbrs[:g.capacity[t]]):
            return False
    return True


# ---------------------------------------------------------------------------
# Independent brute force (no solver, no DP)

def naive_opt_value(m: Market) -> Fraction:
    """Plain recursion over item assignments; exponential, tiny inputs only."""
    items, buyers = m.items, m.buyers

    def rec(i, caps):
        if i == len(items):
            return Fraction(0)
        best = rec(i + 1, caps)
        for j, t in enumerate(buyers):
            if caps[j]:
                cand = m.value[(t, items[i])] + rec(
                    i + 1, caps[:j] + (caps[j] - 1,) + caps[j + 1:])
                if cand > best:
                    best = cand
        return best

    return rec(0, tuple(m.demand[t] for t in buyers))


def reference_best_bundles(m: Market, t, p) -> list[frozenset]:
    """Every utility-maximizing bundle of size at most b(t), by full enumeration
    in `Fraction`s over the non-negative-margin items, in canonical order: by
    size, then by index tuple in `m.items`."""
    margin = {s: m.value[(t, s)] - p.price[s] for s in m.items}
    cands = [s for s in m.items if margin[s] >= 0]
    best = Fraction(0)
    out: list[frozenset] = []
    for k in range(0, min(m.demand[t], len(cands)) + 1):
        for combo in combinations(cands, k):
            u = sum((margin[s] for s in combo), Fraction(0))
            if u > best:
                best = u
                out = [frozenset(combo)]
            elif u == best:
                out.append(frozenset(combo))
    return out


def brute_bfactor_exists(g: BipartiteGraph) -> bool:
    """Backtracking search for a b-factor: every item assigned, caps met exactly."""
    if len(g.items) != sum(g.capacity[t] for t in g.buyers):
        return False
    caps = {t: g.capacity[t] for t in g.buyers}

    def rec(i):
        if i == len(g.items):
            return all(c == 0 for c in caps.values())
        s = g.items[i]
        for t in g.item_adj[s]:
            if caps[t] > 0:
                caps[t] -= 1
                if rec(i + 1):
                    caps[t] += 1
                    return True
                caps[t] += 1
        return False

    return rec(0)


def brute_hall_witness(g: BipartiteGraph) -> frozenset:
    """The smallest buyer set of largest deficiency b(Y) - |N(Y)|, by enumeration.

    Deficiency is supermodular, so its maximizers are closed under
    intersection and the intersection of all of them is the smallest one.
    """
    deficiency = {Y: sum(g.capacity[t] for t in Y) - len(g.neighbors(Y))
                  for k in range(len(g.buyers) + 1)
                  for Y in map(frozenset, combinations(g.buyers, k))}
    most = max(deficiency.values())
    smallest = frozenset.intersection(*(Y for Y in deficiency if deficiency[Y] == most))
    assert deficiency[smallest] == most
    return smallest


def brute_feasible(g: BipartiteGraph, t, F) -> bool:
    return brute_bfactor_exists(g.without(frozenset(F) | {t}))


def brute_verify_adequate(g: BipartiteGraph, sigma) -> bool:
    for t in g.buyers:
        nbrs = sorted(g.buyer_adj[t], key=sigma.rank.__getitem__)
        if len(nbrs) < g.capacity[t]:
            return False
        if not brute_feasible(g, t, nbrs[:g.capacity[t]]):
            return False
    return True


def brute_min_surplus(g: BipartiteGraph, include=frozenset(), exclude=frozenset()):
    """(min surplus, all minimizers) over nonempty proper subsets honoring the query."""
    best = None
    argmin = []
    pool = [t for t in g.buyers if t not in exclude]
    for k in range(1, len(g.buyers)):
        for combo in combinations(pool, k):
            Y = frozenset(combo)
            if not include <= Y:
                continue
            val = len(g.neighbors(Y)) - sum(g.capacity[t] for t in Y)
            if best is None or val < best:
                best = val
                argmin = [Y]
            elif val == best:
                argmin.append(Y)
    return best, argmin


def brute_dangerous_sets(g: BipartiteGraph) -> list[frozenset]:
    out = []
    for k in range(1, len(g.buyers)):
        for combo in combinations(g.buyers, k):
            Y = frozenset(combo)
            if len(g.neighbors(Y)) == sum(g.capacity[t] for t in Y) + 1:
                out.append(Y)
    return out


def brute_first_min_surplus(g: BipartiteGraph, include=frozenset(), exclude=frozenset()):
    """`min_surplus_set`'s documented answer over the full (in, out) grid.

    Each pair forces one more buyer in (when `include` is empty) or out (when
    `exclude` is empty), walked in buyer order.  The first pair whose
    enumerated minimum is the least over all pairs gives the answer: the
    intersection of that pair's minimizers, which is its smallest one.
    Returns (set, value), or None when no pair has a candidate.
    """
    buyers = g.buyers
    ins = [include] if include else [frozenset({t}) for t in buyers if t not in exclude]
    pairs = [(inc, out) for inc in ins
             for out in ([exclude] if exclude else
                         [frozenset({t}) for t in buyers if t not in inc])]
    value = {Y: len(g.neighbors(Y)) - sum(g.capacity[t] for t in Y)
             for k in range(len(buyers) + 1) for Y in map(frozenset, combinations(buyers, k))}
    firsts = []
    for inc, out in pairs:
        allowed = [Y for Y in value if inc <= Y and not Y & out]
        least = min(value[Y] for Y in allowed)
        smallest = frozenset.intersection(*(Y for Y in allowed if value[Y] == least))
        assert value[smallest] == least  # minimizers of a submodular function meet
        firsts.append((smallest, least))
    return min(firsts, key=lambda f: f[1], default=None)
