"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately avoid the package's solver and DP oracle: plain
recursion and full enumeration only, so they can arbitrate disagreements.
"""

import importlib.util
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Mapping, Optional

import pytest
from hypothesis import settings

from dynprice import BipartiteGraph, Market, bfactor_exists
from dynprice.errors import InternalConsistencyError
from dynprice.matching import EdgeTable

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
    (seed 3): each round's tight graph, and each graph the recursion cuts and
    hands `_bidemand_wrapper`."""
    import dynprice.orderings as orderings
    import dynprice.pricing as pricing
    workloads = benchmark_workloads()
    graphs: list[BipartiteGraph] = []
    adequate, wrapper = orderings.adequate_bidemand, orderings._bidemand_wrapper

    def receiving(g, trace=None):
        graphs.append(g)
        return adequate(g, trace)

    def wrapping(h, trace, depth):
        graphs.append(h)
        return wrapper(h, trace, depth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "probe", lambda: workloads.REFERENCE_S)  # no timing here
        mp.setattr(pricing, "adequate_bidemand", receiving)
        mp.setattr(orderings, "_bidemand_wrapper", wrapping)
        for case in workloads.set_up("price-bidemand", 3):
            assert workloads.dynamic_run(case, "multi").error is None
    return graphs


@pytest.fixture(scope="session")
def wrapper_corpus() -> list[BipartiteGraph]:
    """200 unit-weight graphs that the bi-demand recursion cuts and hands
    `_bidemand_wrapper` while pricing small seeded bi-demand markets."""
    import dynprice.orderings as orderings
    from dynprice import generate_instance, multi_round
    recursion: list[BipartiteGraph] = []
    real = orderings._bidemand_wrapper

    def recording(h, trace, depth):
        recursion.append(h)
        return real(h, trace, depth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orderings, "_bidemand_wrapper", recording)
        seed = 0
        while len(recursion) < 200:
            multi_round(generate_instance(seed, 4 + seed % 6, 2, (1, 1 + seed % 3)))
            seed += 1
    return recursion[:200]


# ---------------------------------------------------------------------------
# Graph references


def reference_bidemand_wrapper(h: BipartiteGraph, trace: list, depth: int) -> list:
    """The former `_bidemand_wrapper`: it refines every graph it receives, runs the
    cases on the tight subgraph and ranks the lift by (pi, rank) through a rank map."""
    from dynprice import orderings, refine_covering, tight_subgraph
    from dynprice.errors import ContractViolationError
    try:
        sc = refine_covering(h, frozenset(h.max_cardinality_bmatching[0].items()))
        if 0 in sc.pi.pi.values():
            raise InternalConsistencyError("graph admits no b-factor")
        hp = h if sc.tight_edges == h.edge_set else tight_subgraph(sc, h)
        seq = orderings._bidemand_cases(hp, trace, depth)
    except ContractViolationError as exc:
        raise InternalConsistencyError(f"refined graph refused: {exc}") from exc
    rank = {s: k for k, s in enumerate(seq, 1)}
    return sorted(seq, key=lambda s: (sc.pi.pi[s], rank[s]))


def graph_fields(g: BipartiteGraph) -> tuple:
    """Every field of g in its own order, with the weights' types and the table."""
    return (g.items, g.buyers, g.edges, list(g.weight.items()),
            [type(w) for w in g.weight.values()], list(g.capacity.items()), g.table)


def reference_table(g: BipartiteGraph, weight: Mapping) -> EdgeTable:
    """The integer edge table of g's edges under `weight`, Fractions that come
    from outside g (the market, the dict handed to `build`, ...): the integer
    weights w * D over their least common denominator D, with each edge's ends
    by position in items + buyers."""
    w = [Fraction(weight[e]) for e in g.edges]
    denom = math.lcm(1, *{x.denominator for x in w})
    position = {v: k for k, v in enumerate(g.items + g.buyers)}
    return EdgeTable(tuple((position[s], position[t]) for s, t in g.edges),
                     tuple(x.numerator * (denom // x.denominator) for x in w), denom)


def reference_tight_subgraph(sc, g: BipartiteGraph) -> BipartiteGraph:
    """The tight graph built from scratch: validated, sorted, unit weights."""
    return BipartiteGraph.build(g.items, g.buyers, {e: Fraction(1) for e in sc.tight_edges},
                                dict(g.capacity))


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


def reference_feasible_bundle(g: BipartiteGraph, t, F) -> bool:
    """Bundle feasibility from a cold start: a b-factor of a copy of g without t and F."""
    return bfactor_exists(g.without(frozenset(F) | {t}))[0]


def reference_verify_adequate(g: BipartiteGraph, sigma) -> bool:
    """Adequacy with every buyer's first b(t) neighbors checked by the cold start."""
    rank = {s: k for k, s in enumerate(sigma)}
    for t in g.buyers:
        nbrs = sorted(g.buyer_adj[t], key=rank.__getitem__)
        if len(nbrs) < g.capacity[t] or not reference_feasible_bundle(g, t, nbrs[:g.capacity[t]]):
            return False
    return True


def reference_two_buyers(g: BipartiteGraph) -> tuple:
    """The former orderings for one or two buyers: the identity for one buyer;
    for two, the symmetric difference of the neighborhoods first and their
    intersection last, each part in item order."""
    if len(g.buyers) == 1:
        return g.items
    t1, t2 = g.buyers
    shared = set(g.buyer_adj[t1]) & set(g.buyer_adj[t2])
    return tuple([s for s in g.items if s not in shared] + [s for s in g.items if s in shared])


# ---------------------------------------------------------------------------
# Structured-dual reference

# The SCC shift as it was before the one-pass Tarjan search, kept to pin
# `dual._shift_by_scc` to it: components from equal reach sets, and heights
# from a fixed point over the tight arcs.
def reference_shift(p: list[int], out, z: int):
    """(shifted p, factor, tight arcs as node -> heads, each node's reach set as a bitset)."""
    succ: list[list[int]] = [[] for _ in p]
    least: Optional[int] = None
    for a, arcs in enumerate(out):
        for b, length in arcs:
            rc = length + p[a] - p[b]
            if rc == 0:
                succ[a].append(b)
            elif least is None or rc < least:
                least = rc
    reach = [1 << a for a in range(len(p))]
    changed = True
    while changed:
        changed = False
        for a, heads in enumerate(succ):
            r = reach[a]
            for b in heads:
                r |= reach[b]
            changed |= r != reach[a]
            reach[a] = r
    height = [0] * len(p)
    changed = True
    while changed:   # only arcs inside a component close cycles, and they add 0
        changed = False
        for a, heads in enumerate(succ):
            for b in heads:
                h = height[b] + (reach[a] != reach[b])
                if h > height[a]:
                    height[a], changed = h, True
    factor = max(height) + 2
    step = 1 if least is None else least
    shifted = [pa * factor + (h - height[z]) * step for pa, h in zip(p, height)]
    return shifted, factor, succ, reach


# ---------------------------------------------------------------------------
# Solver reference

# The weighted solver as it was with one zero-weight dummy column per row, kept
# to pin `matching._hungarian`, which keeps only the first free dummy, to it.
def reference_hungarian(n_rows: int, n_cols: int, adj: list[list[tuple[int, int]]]):
    """Row-perfect max-weight integer assignment with one zero-weight dummy column per row.

    Returns (match_row, u, v) where match_row[i] is the real column matched to
    row i or -1 (row absorbed by a dummy), and (u, v) are non-negative
    potentials forming an optimal covering: u[i] + v[j] >= w(i, j) on real
    edges, tight on matched edges, v = 0 on unmatched real columns, u = 0 on
    dummy-matched rows.
    """
    total_cols = n_cols + n_rows  # dummies occupy indices n_cols..
    u = []
    for i in range(n_rows):
        best = 0
        for _, w in adj[i]:
            if best < w:
                best = w
        u.append(best)
    v = [0] * total_cols
    match_row = [-1] * n_rows         # row -> col (real or dummy)
    match_col = [-1] * total_cols     # col -> row

    for root in range(n_rows):
        slack_val: list[Optional[int]] = [None] * total_cols
        slack_row = [-1] * total_cols
        in_tree_col = [False] * total_cols
        tree_rows = [root]

        def add_row(i: int) -> None:
            ui = u[i]
            for j, w in adj[i]:
                if in_tree_col[j]:
                    continue
                s = ui + v[j] - w
                if slack_val[j] is None or s < slack_val[j]:
                    slack_val[j] = s
                    slack_row[j] = i
            for j in range(n_cols, total_cols):
                if in_tree_col[j]:
                    continue
                s = ui + v[j]
                if slack_val[j] is None or s < slack_val[j]:
                    slack_val[j] = s
                    slack_row[j] = i

        add_row(root)
        while True:
            theta = None
            j_star = -1
            for j in range(total_cols):
                if in_tree_col[j] or slack_val[j] is None:
                    continue
                if theta is None or slack_val[j] < theta:
                    theta = slack_val[j]
                    j_star = j
            if theta is None:
                raise InternalConsistencyError("hungarian search stalled")
            if theta > 0:
                for i in tree_rows:
                    u[i] = u[i] - theta
                for j in range(total_cols):
                    if in_tree_col[j]:
                        v[j] = v[j] + theta
                    elif slack_val[j] is not None:
                        slack_val[j] = slack_val[j] - theta
            mate = match_col[j_star]
            if mate == -1:
                j = j_star
                while True:
                    i = slack_row[j]
                    prev = match_row[i]
                    match_row[i] = j
                    match_col[j] = i
                    if i == root:
                        break
                    j = prev
                break
            in_tree_col[j_star] = True
            tree_rows.append(mate)
            add_row(mate)

    for i in range(n_rows):
        if match_row[i] >= n_cols:
            match_row[i] = -1
    return match_row, u, v


# ---------------------------------------------------------------------------
# Exhaustive-search reference

def reference_run_exhaustive(m: Market, budget: int = 200000, ordering_strategy=None):
    """`run_exhaustive` as it was before residual markets were shared up to renaming:
    states memoized on (remaining buyers, remaining items) alone, so every distinct
    state's round is priced, through `simulation._price_round`, and counts against
    the budget.  Returns the same `Verdict`."""
    from dynprice import simulation
    from dynprice.model import submarket
    mode = simulation._run_mode(m, ordering_strategy)
    opt_value = simulation.oracle_opt_value(m)
    opt = int(opt_value * m.denominator)
    value = dict(zip(((t, s) for s in m.items for t in m.buyers), m.weight))
    memo: dict = {}
    expansions = runs_walked = 0
    violation_seen = False

    class Exceeded(Exception):
        pass

    def explore(items, buyers, acc):
        nonlocal expansions, runs_walked, violation_seen
        if not buyers:
            runs_walked += 1
            violation_seen |= acc != opt
            return 0, 0, 1, None
        hit = memo.get((buyers, items))
        if hit is not None:
            violation_seen |= acc + hit[0] != opt
            return hit
        expansions += 1
        if expansions > budget:
            raise Exceeded
        residual = submarket(m, items, buyers)
        rp = simulation._price_round(residual, mode, ordering_strategy,
                                     is_root=len(buyers) == len(m.buyers))
        mn = mx = move = None
        count = 0
        for t in residual.buyers:
            bundles = simulation.best_bundles(residual, t, rp.prices)
            if mode == "multi" and len(bundles) != 1:
                raise InternalConsistencyError("multi-demand prices must pin a unique bundle")
            for bundle in bundles:
                gain = sum(value[(t, s)] for s in bundle)
                sub_mn, sub_mx, sub_n, _ = explore(items - bundle, buyers - {t}, acc + gain)
                if mn is None or gain + sub_mn < mn:
                    mn, move = gain + sub_mn, (t, bundle)
                mx = gain + sub_mx if mx is None else max(mx, gain + sub_mx)
                count += sub_n
        memo[(buyers, items)] = (mn, mx, count, move)
        return memo[(buyers, items)]

    try:
        mn, mx, count, _ = explore(frozenset(m.items), frozenset(m.buyers), 0)
    except Exceeded:
        if violation_seen:
            simulation._below_optimum(ordering_strategy)
        return simulation.Verdict(runs_walked, not violation_seen, None, False, opt_value)
    if mx > opt:
        raise InternalConsistencyError("a run exceeded the oracle optimum")
    if mn == opt:
        return simulation.Verdict(count, True, None, True, opt_value)
    simulation._below_optimum(ordering_strategy)
    items, buyers = frozenset(m.items), frozenset(m.buyers)
    order, picks = [], []
    while buyers:
        t, bundle = memo[(buyers, items)][3]
        order.append(t)
        picks.append(bundle)
        items, buyers = items - bundle, buyers - {t}
    trace = simulation.run_once(m, order, lambda t, bundles, k: picks[k], ordering_strategy)
    return simulation.Verdict(count, False, trace, True, opt_value)


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
    rank = {s: k for k, s in enumerate(sigma)}
    for t in g.buyers:
        nbrs = sorted(g.buyer_adj[t], key=rank.__getitem__)
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
