"""Exact b-matching on bipartite graphs: maximum weight with optimal dual
coverings, and maximum cardinality with Hall witnesses.

Two engines answer the two kinds of question.  Cardinality questions (is
there a b-factor, which buyer set breaks Hall's condition, which buyer set has
the least surplus) go to `augment`, which grows a b-matching along
alternating paths and returns the buyers reachable from spare capacity: by
König's theorem, the smallest set of largest deficiency.  Each graph keeps
one maximum b-matching (`max_cardinality_bmatching`) that all such questions
share, grown from empty the first time one is asked; only the round's tight
graph starts from one, trim's optimum (`BipartiteGraph._hold`).  No answer
depends on which one a graph holds: the surplus searches find the unique
minimal min cut, and the structured dual is a function of the graph.
Weighted questions go to the Hungarian solver.

`BipartiteGraph.build` is for outside input: it validates the vertices,
sorts the edges by item, then buyer, and checks that weights are ints or
Fractions.  In the
package only `with_capacity`, which keeps `build`'s rules for capacities,
calls it.  `model.market_graph` constructs a market's graph directly: the
market was validated by `Market.from_columns`, it holds its values as integers
over one denominator already, and listing its pairs item by item, then
buyer by buyer, is the canonical order.  Every other graph is derived from
one of those (`induced`, `unit_subgraph`, ...) and keeps its edge order, so
nothing is validated or sorted twice.

A graph holds its weights once, as integers, in one edge table
(`BipartiteGraph.table`, an `EdgeTable`): for each edge, in edge order, the
positions of its item and its buyer in items + buyers, and its weight times
the least common denominator D of the graph's weights.  Weights become
integers only where they come from outside: `build` and `Market.from_columns`
share `integer_weights`, and `market_graph` takes its market's integers and
denominator as they are.  `induced`, `without` and `unit_subgraph` restrict
their graph's table, dividing out the common factor that dropping edges may
leave (`lowest_terms`, which `model.submarket` shares), so D stays the
graph's own least common denominator.  The solver, its certificate and the
structured dual work on positions and these integers; `BipartiteGraph.weight`,
each edge's weight as a Fraction, is a read-only view of the table made the
first time something reads it.

The Hungarian solver works on the buyer-copy expansion: every buyer vertex
t with capacity b(t) becomes min(b(t), |S| + 1) unit-capacity copies, items
keep capacity one, and a rectangular Hungarian algorithm with potentials
solves the resulting assignment problem exactly.  The potentials translate
directly into an optimal non-negative weighted covering pi with pi . b equal
to the optimum, and copies of the same buyer provably share one dual value.
A copy may also stay unmatched, on a zero-weight dummy column; the solver
holds the dummies matched so far and one free one.  Each buyer's copies share
one dense row of weights, in which an item the buyer has no edge to weighs
-1 - 3W, W the largest weight magnitude.  The search never takes such a pair:
u starts at most W, only falls and stays non-negative against the free
dummy; v starts at 0, only rises and is w - u <= W on a matched column; so a
real slack u + v - w is at most 3W, below the pair's, and theta, at most the
free dummy's slack u <= W, never reaches it.  An int weight keeps the
arithmetic exact at any size, where a float -inf would overflow past 1e308.

All arithmetic is exact and the Hungarian algorithm runs on integers only.
The dense rows are filled straight from the table, so the solver returns its
value and its duals as integers in units of 1/D, the matched edges by index
and the duals by position.  The trim objective "maximum weight, then fewest
edges" is the integer weight w * D * K - 1 with K = |S| + 1: a b-matching has
at most |S| edges, so a weight gap of 1/D always outweighs any difference in
edge count.

Every solve is certified before use: `_check_optimal_pair` proves, on the
integer weights the solve ran on, that M is a b-matching of g
(`check_bmatching`) and pi a non-negative covering of equal value, tight on
M, with complementary slackness.  On the trim weights that proves M of
maximum weight and, among those, of fewest edges, so neither trimming nor the
structured dual, which starts from M (`dual.refine_covering`), solves again.
A residual's trim starts instead from its parent round's optimum and dual,
optimal there once a buyer leaves with a bundle some optimum holds (Shapley and
Shubik 1971; `warm_min_edge_optimum`); where they prove none, the solver runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Container, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Optional

from .errors import ContractViolationError, InternalConsistencyError, ModelError

ItemId = str
BuyerId = str
Edge = tuple[ItemId, BuyerId]


def frozen_ids(ids: Iterable, what: str) -> frozenset:
    """frozenset(ids); ids that are not an iterable of hashables are a ModelError,
    and so is a str, which would otherwise be read as its characters."""
    if isinstance(ids, str):
        raise ModelError(f"{what} must be a collection of ids, not a string")
    try:
        return frozenset(ids)
    except TypeError:
        raise ModelError(f"{what} must be hashable ids") from None


def id_tuple(ids: Iterable, what: str) -> tuple:
    """tuple(ids), refused as `frozen_ids` refuses it."""
    if isinstance(ids, str):
        raise ModelError(f"{what} must be a collection of ids, not a string")
    try:
        ids = tuple(ids)
        hash(ids)
    except TypeError:
        raise ModelError(f"{what} must be hashable ids") from None
    return ids


def contains(known: Container, key) -> bool:
    """key in known; an unhashable key is in nothing."""
    try:
        return key in known
    except TypeError:
        return False


def _known_buyers(g: "BipartiteGraph", Y: Iterable) -> frozenset[BuyerId]:
    """frozenset(Y), refused as `frozen_ids` refuses it, and unknown buyers are a ModelError."""
    Y = frozen_ids(Y, "buyers")
    unknown = Y.difference(g.buyer_adj)
    if unknown:
        raise ModelError(f"unknown buyers {sorted(unknown, key=repr)!r}")
    return Y


@dataclass(frozen=True)
class EdgeTable:
    """A graph's edges as integers, in edge order: the positions of each edge's
    item and buyer in items + buyers, and its weight times the least common
    denominator of the graph's weights."""

    ends: tuple[tuple[int, int], ...]
    weight: tuple[int, ...]
    denominator: int

    def restricted(self, kept: list[int], moved: list[int]) -> "EdgeTable":
        """The table of the edges `kept`, their ends moved to new positions, over the
        least common denominator of their weights: a factor of this one."""
        return EdgeTable(tuple((moved[a], moved[b]) for a, b in (self.ends[k] for k in kept)),
                         *lowest_terms([self.weight[k] for k in kept], self.denominator))


def integer_weights(values: list, what: str) -> tuple[tuple[int, ...], int]:
    """Ints or Fractions as integers w * D over their least common denominator D;
    a value of any other type is a ModelError.  All ints are taken as they are, D = 1."""
    if all(type(x) is int for x in values):
        return tuple(values), 1
    if not all(type(x) is Fraction or type(x) is int for x in values):
        raise ModelError(f"{what} must be ints or Fractions")
    d = math.lcm(1, *{x.denominator for x in values})
    return tuple([x.numerator * (d // x.denominator) for x in values]), d


def lowest_terms(weight: list[int], denominator: int) -> tuple[tuple[int, ...], int]:
    """Integer weights over a denominator with the factor all of them share divided
    out: some of a table's weights, over their own least common denominator."""
    common = math.gcd(denominator, *weight)
    if common == 1:
        return tuple(weight), denominator
    return tuple([x // common for x in weight]), denominator // common


@dataclass(frozen=True)
class BipartiteGraph:
    """Edge-weighted bipartite graph with vertex capacities (items always 1);
    edges are in canonical order, by item, then buyer (`build` sorts them),
    and `table` holds them and their weights as integers."""

    items: tuple[ItemId, ...]
    buyers: tuple[BuyerId, ...]
    edges: tuple[Edge, ...]
    capacity: Mapping[str, int]
    table: EdgeTable

    @staticmethod
    def build(items: Iterable[ItemId], buyers: Iterable[BuyerId],
              weight: Mapping[Edge, Fraction | int],
              capacity: Mapping[str, int]) -> "BipartiteGraph":
        items, buyers = id_tuple(items, "items"), id_tuple(buyers, "buyers")
        if not isinstance(weight, Mapping) or not isinstance(capacity, Mapping):
            raise ModelError("weights and capacities must be mappings")
        if len(set(items)) != len(items) or len(set(buyers)) != len(buyers):
            raise ModelError("duplicate vertex ids")
        if set(items) & set(buyers):
            raise ModelError("item and buyer ids must be distinct")
        item_pos = {s: k for k, s in enumerate(items)}
        buyer_pos = {t: k for k, t in enumerate(buyers)}
        if not all(type(e) is tuple and len(e) == 2 for e in weight):
            raise ModelError("edge keys must be (item, buyer) pairs")
        try:
            canon = tuple(sorted(weight, key=lambda e: (item_pos[e[0]], buyer_pos[e[1]])))
        except KeyError as exc:
            raise ModelError(f"edge references unknown vertex {exc}") from exc
        for v in capacity:
            if v not in item_pos and v not in buyer_pos:
                raise ModelError(f"capacity for unknown vertex {v!r}")
        cap = dict(capacity)
        for s in items:
            if type(c := cap.get(s, 1)) is not int or c != 1:
                raise ModelError(f"item {s} must have capacity 1")
            cap[s] = 1
        for t in buyers:
            if type(c := cap.get(t)) is not int or c < 0:
                raise ModelError(f"buyer {t} needs a non-negative int capacity")
        n = len(items)
        ends = tuple((item_pos[s], n + buyer_pos[t]) for s, t in canon)
        table = EdgeTable(ends, *integer_weights([weight[e] for e in canon], "weights"))
        return BipartiteGraph(items, buyers, canon, cap, table)

    @cached_property
    def weight(self) -> Mapping[Edge, Fraction]:
        """Each edge's weight, read-only: its integer in the table over the denominator."""
        d = self.table.denominator
        return MappingProxyType({e: Fraction(w, d) for e, w in zip(self.edges, self.table.weight)})

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def buyer_adj(self) -> dict[BuyerId, tuple[ItemId, ...]]:
        adj: dict[BuyerId, list[ItemId]] = {t: [] for t in self.buyers}
        for s, t in self.edges:     # canonical order: each buyer's items come sorted
            adj[t].append(s)
        return {t: tuple(v) for t, v in adj.items()}

    @cached_property
    def item_adj(self) -> dict[ItemId, tuple[BuyerId, ...]]:
        adj: dict[ItemId, list[BuyerId]] = {s: [] for s in self.items}
        for s, t in self.edges:     # canonical order: each item's buyers come sorted
            adj[s].append(t)
        return {s: tuple(v) for s, v in adj.items()}

    @cached_property
    def max_cardinality_bmatching(self) -> tuple[Mapping[ItemId, BuyerId],
                                                 Mapping[BuyerId, int], frozenset[BuyerId]]:
        """Read-only maximum b-matching from `augment`: owners, loads, reached buyers."""
        owner, load = {}, dict.fromkeys(self.buyers, 0)
        reached = augment(self.buyer_adj, self.capacity, owner, load)
        return MappingProxyType(owner), MappingProxyType(load), frozenset(reached)

    @cached_property
    def factor_components(self) -> Optional[tuple[Mapping[str, int], tuple[int, ...]]]:
        """The strong components of the held b-factor's buyer digraph, t -> each buyer
        tight for an item that t holds, as `strong_components` finds them, with each item
        in its holder's: each vertex's component, read-only, and each component's height.
        These are the components and heights of the digraph with an arc from each item to
        each buyer tight for it and from each buyer to each item it holds, the structured
        dual's tight arcs.  An edge lies in a b-factor iff its ends share a component, and
        the items along which arcs enter a buyer set count its surplus (`sets`).  None when
        the held maximum b-matching is no b-factor."""
        owner = self.max_cardinality_bmatching[0]
        if not len(owner) == len(self.items) == self.buyer_capacity_total():
            return None
        pos = {t: k for k, t in enumerate(self.buyers)}
        comp, height = strong_components([[pos[u] for s in self.buyer_adj[t] if owner[s] == t
                                           for u in self.item_adj[s]] for t in self.buyers])
        held = dict(zip(self.buyers, comp))
        return MappingProxyType({s: held[owner[s]] for s in self.items} | held), tuple(height)

    def _hold(self, owner: Mapping[ItemId, BuyerId]) -> "BipartiteGraph":
        """This graph, keeping owner restricted to it as its maximum b-matching when that
        is a b-factor: every item owned along an edge, every load at its capacity.  Only
        the round's tight graph takes one (`pricing.tight_market`): it saves 2-5% of a
        bi-demand round, where a hand-down to derived graphs saved nothing (2-core VM)."""
        owner = {s: owner[s] for s in self.items if owner.get(s) in self.item_adj[s]}
        load = dict.fromkeys(self.buyers, 0)
        for t in owner.values():
            load[t] += 1
        if len(owner) == len(self.items) and all(load[t] == self.capacity[t] for t in load):
            # full, it leaves no buyer spare capacity to reach others from
            self.__dict__["max_cardinality_bmatching"] = (
                MappingProxyType(owner), MappingProxyType(load), frozenset())
        return self

    def neighbors(self, buyers: Iterable[BuyerId]) -> frozenset[ItemId]:
        out: set[ItemId] = set()
        for t in _known_buyers(self, buyers):
            out.update(self.buyer_adj[t])
        return frozenset(out)

    def buyer_capacity_total(self) -> int:
        return sum(self.capacity[t] for t in self.buyers)

    def unit_subgraph(self, edges: Iterable[Edge]) -> "BipartiteGraph":
        """The spanning subgraph on `edges`, kept in this graph's order, with unit weights."""
        edges = frozen_ids(edges, "edges")
        kept = [k for k, e in enumerate(self.edges) if e in edges]
        if len(kept) != len(edges):
            raise ModelError(f"edges not in graph: {sorted(edges - self.edge_set, key=repr)!r}")
        table = EdgeTable(tuple(self.table.ends[k] for k in kept), (1,) * len(kept), 1)
        return BipartiteGraph(self.items, self.buyers, tuple(self.edges[k] for k in kept),
                              self.capacity, table)

    def induced(self, items: Iterable[ItemId], buyers: Iterable[BuyerId]) -> "BipartiteGraph":
        keep_s = frozen_ids(items, "items")
        keep_t = frozen_ids(buyers, "buyers")
        new_items = tuple(s for s in self.items if s in keep_s)
        new_buyers = tuple(t for t in self.buyers if t in keep_t)
        # each kept vertex's position in the induced graph, -1 for a dropped one
        new_pos = {v: k for k, v in enumerate(new_items + new_buyers)}
        moved = [new_pos.get(v, -1) for v in self.items + self.buyers]
        kept = [k for k, (a, b) in enumerate(self.table.ends) if moved[a] >= 0 and moved[b] >= 0]
        cap = {v: self.capacity[v] for v in new_items + new_buyers}
        return BipartiteGraph(new_items, new_buyers, tuple(self.edges[k] for k in kept), cap,
                              self.table.restricted(kept, moved))

    def without(self, vertices: Iterable[str]) -> "BipartiteGraph":
        drop = frozen_ids(vertices, "vertices")
        return self.induced((s for s in self.items if s not in drop),
                            (t for t in self.buyers if t not in drop))

    def with_capacity(self, vertex: str, cap: int) -> "BipartiteGraph":
        """This graph with one capacity changed, refused as `build` refuses it."""
        if not contains(self.capacity, vertex):
            raise ModelError(f"unknown vertex {vertex!r}")
        return BipartiteGraph.build(self.items, self.buyers, self.weight,
                                    {**self.capacity, vertex: cap})


@dataclass(frozen=True)
class Covering:
    """Non-negative dual vector pi with pi(s) + pi(t) >= w(st) on every edge.  Its
    readers take a graph and refuse a pi that `covering_values` refuses on its vertices."""

    pi: Mapping[str, Fraction]

    def total_value(self, g: BipartiteGraph) -> Fraction:
        pi = covering_values(self, g.items + g.buyers)
        return sum((pi[v] * g.capacity[v] for v in g.items + g.buyers), Fraction(0))

    def is_covering(self, g: BipartiteGraph) -> bool:
        pi = covering_values(self, g.items + g.buyers)
        return all(pi[s] + pi[t] >= g.weight[(s, t)] for s, t in g.edges)

    def tight_edges(self, g: BipartiteGraph) -> frozenset[Edge]:
        pi = covering_values(self, g.items + g.buyers)
        return frozenset(e for e in g.edges if pi[e[0]] + pi[e[1]] == g.weight[e])


def covering_values(pi: Covering, vertices: Sequence[str]) -> Mapping[str, Fraction]:
    """pi's values, for the readers of a dual that may come from outside: a pi that is
    no Covering, whose values are no mapping or that lacks one of `vertices` is a
    ModelError."""
    if not isinstance(pi, Covering):
        raise ModelError("pi must be a Covering")
    if not isinstance(pi.pi, Mapping):
        raise ModelError("pi must be a mapping")
    missing = [v for v in vertices if v not in pi.pi]
    if missing:
        raise ModelError(f"pi not defined on {missing[0]!r}")
    return pi.pi


@dataclass(frozen=True)
class SolveResult:
    """A verified optimal pair: M's edges, its weight and an optimal covering."""

    matching: frozenset[Edge]
    value: Fraction
    covering: Covering


def _hungarian(n_rows: int, n_cols: int, weight: list[list[int]]):
    """Row-perfect max-weight integer assignment where a row may take a zero-weight
    dummy column instead of a real one; weight[i][j] is row i's weight on real column j.

    The columns are the real ones, then the dummies matched so far, then one
    free dummy.  Free dummies would all have v = 0 and the same slack, and the
    search takes the lowest index on ties, so only the first could be chosen:
    the next opens when it is taken.

    Returns (match_row, u, v) where match_row[i] is the real column matched to
    row i or -1 (row absorbed by a dummy), and (u, v) are non-negative
    potentials, the real columns first in v, forming an optimal covering:
    u[i] + v[j] >= w(i, j), tight on matched edges, v = 0 on unmatched real
    columns, u = 0 on dummy-matched rows.
    """
    u = [max([0, *row]) for row in weight]
    v = [0] * (n_cols + 1)
    match_row = [-1] * n_rows             # row -> column (real or dummy)
    match_col = [-1] * (n_cols + 1)       # column -> row

    for root in range(n_rows):
        n = len(v)
        dummy_weights = [0] * (n - n_cols)
        slack = [math.inf] * n
        slack_row = [-1] * n
        in_tree = [False] * n
        tree_rows = []
        i = root
        while True:
            # row i joins the tree: one pass adds its slacks and picks theta
            tree_rows.append(i)
            ui, row = u[i], weight[i] + dummy_weights
            theta, j_star = math.inf, -1
            for j in range(n):
                if in_tree[j]:
                    continue
                s = ui + v[j] - row[j]
                if s < slack[j]:
                    slack[j], slack_row[j] = s, i
                if slack[j] < theta:
                    theta, j_star = slack[j], j
            if j_star < 0:
                raise InternalConsistencyError("hungarian search stalled")
            if theta > 0:
                for r in tree_rows:
                    u[r] -= theta
                for j in range(n):
                    if in_tree[j]:
                        v[j] += theta
                    else:
                        slack[j] -= theta
            i = match_col[j_star]
            if i == -1:
                break
            in_tree[j_star] = True
        j = j_star
        while j != -1:                    # flip the path back to the root, which is free
            i = slack_row[j]
            match_col[j] = i
            match_row[i], j = j, match_row[i]
        if match_col[-1] != -1:           # the free dummy was taken: open the next
            v.append(0)
            match_col.append(-1)

    return [j if j < n_cols else -1 for j in match_row], u, v


def _solve(g: BipartiteGraph, weights: Sequence[int]):
    """Solve max-weight b-matching via buyer-copy expansion.

    Takes an integer weight per edge of g, in edge order, and returns the
    matched edges' indices, the value and pi by position in items + buyers, as
    integers in the units of `weights`; `_check_optimal_pair` certifies them.
    """
    n = len(g.items)
    ends = g.table.ends
    # one dense row per buyer, shared by its copies; a non-edge gets a weight
    # that the search never takes (see the module notes)
    absent = -1 - 3 * max(map(abs, weights), default=0)
    dense = [[absent] * n for _ in g.buyers]
    for (a, b), w in zip(ends, weights):
        dense[b - n][a] = w
    # t holds at most |S| items; one more copy, never matched, keeps pi(t) = 0
    rows = [b for b, t in enumerate(g.buyers) for _ in range(min(g.capacity[t], n + 1))]

    match_row, u, v = _hungarian(len(rows), n, [dense[b] for b in rows])

    # the ends are in canonical order, sorted, so a matched pair's index is a bisection
    pairs = [(a, n + rows[i]) for i, a in enumerate(match_row) if a >= 0]
    matched = [bisect_left(ends, pair) for pair in pairs]
    if any(k == len(ends) or ends[k] != pair for k, pair in zip(matched, pairs)):
        raise InternalConsistencyError("optimal matching is not a b-matching of the graph")
    if len(set(matched)) != len(matched):
        raise InternalConsistencyError("expansion produced a repeated edge")
    value = sum(weights[k] for k in matched)

    duals: list[set[int]] = [set() for _ in g.buyers]
    for b, ub in zip(rows, u):
        duals[b].add(ub)
    pi = v[:n]
    for b, dual in enumerate(duals, n):
        if len(dual) > 1:
            raise InternalConsistencyError(f"copies of buyer {g.buyers[b - n]} got unequal duals")
        # capacity 0 leaves t no copy: the least dual that covers its edges
        pi.append(dual.pop() if dual else max([0] + [w - v[a] for (a, c), w in zip(ends, weights)
                                                     if c == b]))
    return matched, value, pi


def check_bmatching(g: BipartiteGraph, matched: Iterable[int]) -> list[int]:
    """The degrees of M, given by edge indices, by position in items + buyers,
    certified: every index an edge of g, no degree above capacity."""
    ends = g.table.ends
    degree = [0] * (len(g.items) + len(g.buyers))
    for k in matched:
        if not 0 <= k < len(ends):
            raise InternalConsistencyError("optimal matching is not a b-matching of the graph")
        a, b = ends[k]
        degree[a] += 1
        degree[b] += 1
    if any(d > c for d, c in zip(degree, capacities(g))):
        raise InternalConsistencyError("optimal matching is not a b-matching of the graph")
    return degree


def capacities(g: BipartiteGraph) -> list[int]:
    """The capacities by position in items + buyers."""
    return [1] * len(g.items) + [g.capacity[t] for t in g.buyers]


def _check_optimal_pair(g: BipartiteGraph, weight: Sequence[int], matched: list[int],
                        value: int, pi: list[int]) -> None:
    """Certify (M, pi) optimal for the integer `weight` the solve ran on: M a b-matching
    of g, pi a non-negative covering tight on M, equal values, complementary slackness.
    M is given by edge indices, pi by position in items + buyers."""
    degree = check_bmatching(g, matched)
    cap = capacities(g)
    if any(x < 0 for x in pi):
        raise InternalConsistencyError("negative dual value")
    ends = g.table.ends
    for (a, b), w in zip(ends, weight):
        if pi[a] + pi[b] < w:
            raise InternalConsistencyError("dual is not a covering")
    for k in matched:
        a, b = ends[k]
        if pi[a] + pi[b] != weight[k]:
            raise InternalConsistencyError("matched edge not tight")
    if sum(x * c for x, c in zip(pi, cap)) != value:
        raise InternalConsistencyError("strong duality gap")
    for x, d, c in zip(pi, degree, cap):
        if x > 0 and d != c:
            raise InternalConsistencyError("complementary slackness violated")


def solve_with_covering(g: BipartiteGraph) -> SolveResult:
    """Maximum-weight b-matching together with an optimal covering (verified)."""
    weight, denom = g.table.weight, g.table.denominator
    matched, value, pi = _solve(g, weight)
    _check_optimal_pair(g, weight, matched, value, pi)
    return SolveResult(frozenset(g.edges[k] for k in matched), Fraction(value, denom),
                       Covering({v: Fraction(x, denom) for v, x in zip(g.items + g.buyers, pi)}))


def max_weight_bmatching(g: BipartiteGraph) -> tuple[frozenset[Edge], Fraction]:
    """The edges of a maximum-weight b-matching of g and its total weight (deterministic)."""
    res = solve_with_covering(g)
    return res.matching, res.value


def max_weight_value(g: BipartiteGraph) -> Fraction:
    return solve_with_covering(g).value


def optimal_covering(g: BipartiteGraph) -> Covering:
    """An optimal non-negative weighted covering with pi . b = optimum weight."""
    return solve_with_covering(g).covering


def max_weight_forced_edge(g: BipartiteGraph, edge: Edge) -> Fraction:
    """Maximum weight over b-matchings that contain the given edge.

    Realized as capacity reduction on both endpoints plus the constant w(e).  No
    b-matching contains an edge of a buyer of capacity 0: ContractViolationError.
    """
    if not contains(g.edge_set, edge):
        raise ModelError(f"edge {edge!r} not in graph")
    s, t = edge
    if g.capacity[t] == 0:
        raise ContractViolationError(
            f"edge {edge!r} is in no b-matching: buyer {t} has capacity 0")
    return g.weight[edge] + max_weight_reduced_capacity(g.without([s]), t)


def max_weight_reduced_capacity(g: BipartiteGraph, vertex: str) -> Fraction:
    """Maximum weight over b-matchings with capacity at `vertex` lowered by one."""
    if not contains(g.capacity, vertex):
        raise ModelError(f"unknown vertex {vertex!r}")
    if g.capacity[vertex] <= 1:
        return max_weight_value(g.without([vertex]))
    return max_weight_value(g.with_capacity(vertex, g.capacity[vertex] - 1))


def augment(adj: Mapping[BuyerId, tuple[ItemId, ...]], cap: Mapping[BuyerId, float],
            owner: dict[ItemId, BuyerId], load: dict[BuyerId, int]) -> set[BuyerId]:
    """Augment the b-matching (owner, load) in place until it is maximum.

    Buyers are the keys of `load`; items without an owner are free.  Returns
    the buyers reachable from one with spare capacity along alternating paths.
    """
    while True:
        reached = [t for t in load if load[t] < cap[t]]
        came = dict.fromkeys(reached)     # buyer -> (item, buyer) it was reached by
        for t in reached:                 # grows while scanned: breadth first
            for s in adj[t]:
                u = owner.get(s)
                if u is None:
                    break                 # s is free: augment along the path to it
                if u not in came:
                    came[u] = (s, t)
                    reached.append(u)
            else:
                continue
            break
        else:
            return set(came)
        while True:                       # each item on the path moves to its reacher
            owner[s] = t
            if came[t] is None:
                load[t] += 1
                break
            s, t = came[t]


def strong_components(succ: list[list[int]]) -> tuple[list[int], list[int]]:
    """Each node's strong component in the digraph succ (node -> heads) and each
    component's height in the condensation: 0 where no arc leaves it, else one more
    than the highest component an arc leads to.  One iterative pass of Tarjan's
    algorithm, which completes a component after every component it reaches."""
    n = len(succ)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    height: list[int] = []
    stack: list[int] = []
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            a, heads = work[-1]
            for b in heads:
                if index[b] < 0:            # a tree arc: descend into b
                    index[b] = low[b] = visited
                    visited += 1
                    stack.append(b)
                    work.append((b, iter(succ[b])))
                    break
                if comp[b] < 0 and index[b] < low[a]:   # b is on the stack
                    low[a] = index[b]
            else:                           # a is done
                work.pop()
                if work and low[a] < low[work[-1][0]]:
                    low[work[-1][0]] = low[a]
                if low[a] == index[a]:      # a roots a component: the stack down to a
                    c, members = len(height), []
                    while not members or members[-1] != a:
                        members.append(stack.pop())
                        comp[members[-1]] = c
                    height.append(max([height[comp[b]] + 1 for v in members for b in succ[v]
                                       if comp[b] != c], default=0))
    return comp, height


def bfactor_exists(g: BipartiteGraph) -> tuple[bool, Optional[frozenset[BuyerId]]]:
    """Whether g has a b-factor (degree = capacity everywhere).

    On failure returns a deficient buyer set Y with |N(Y)| < b(Y), or None when
    the counting condition |S| = b(T) already fails.  The witness is the set
    of buyers the graph's maximum b-matching reaches from spare capacity: the
    smallest set of largest deficiency b(Y) - |N(Y)|.
    """
    demand = g.buyer_capacity_total()
    if len(g.items) != demand:
        return False, None
    _, load, witness = g.max_cardinality_bmatching
    if sum(load.values()) == demand:
        return True, None
    if len(g.neighbors(witness)) >= sum(g.capacity[t] for t in witness):
        raise InternalConsistencyError("deficient-set extraction failed")
    return False, witness


def lexicographic_min_edge_optimum(g: BipartiteGraph) -> tuple[frozenset[Edge], Fraction]:
    """Maximum-weight b-matching using the fewest edges among all optima.

    Solved and certified over the integer weights w * D * K - 1, K = |S| + 1 (see
    the module notes), which order b-matchings by weight first and edge count second.
    """
    table = g.table
    k = len(g.items) + 1
    weight = [w * k - 1 for w in table.weight]
    matched, value, pi = _solve(g, weight)
    _check_optimal_pair(g, weight, matched, value, pi)
    return (frozenset(g.edges[i] for i in matched),
            Fraction(sum(table.weight[i] for i in matched), table.denominator))


def warm_min_edge_optimum(g: BipartiteGraph, m: Iterable[Edge], pi: Sequence[int],
                          unit: int) -> Optional[frozenset[Edge]]:
    """A fewest-edge maximum-weight b-matching grown from m along the tight edges of
    pi, a covering by position in items + buyers in units of 1/unit; None where
    that proves none.  With pi positive on every item, every optimum uses every
    item, so one that saturates every item and every buyer of positive pi is one:
    certified on the trim weights w * unit/D * K - 1 by K * pi, less one on items."""
    table, n = g.table, len(g.items)
    if unit % table.denominator or min(pi[:n], default=1) <= 0:
        return None
    scale, k = unit // table.denominator, n + 1
    tight = {g.edges[e]: e for e, ((a, b), w) in enumerate(zip(table.ends, table.weight))
             if pi[a] + pi[b] == w * scale}        # tight edge -> its index, in edge order
    adj: dict[BuyerId, list[ItemId]] = {t: [] for t in g.buyers}
    for s, t in tight:                  # canonical order: each buyer's items come sorted
        adj[t].append(s)
    owner = {s: t for s, t in m if (s, t) in tight}
    load = dict.fromkeys(g.buyers, 0) | Counter(owner.values())
    augment(adj, g.capacity, owner, load)
    if len(owner) < n or any(x and load[t] < g.capacity[t] for t, x in zip(g.buyers, pi[n:])):
        return None
    weight = [w * scale * k - 1 for w in table.weight]
    matched = [tight[e] for e in owner.items()]
    _check_optimal_pair(g, weight, matched, sum(weight[e] for e in matched),
                        [x * k - 1 for x in pi[:n]] + [x * k for x in pi[n:]])
    return frozenset(owner.items())
