"""Exact b-matching on bipartite graphs: maximum weight with optimal dual
coverings, and maximum cardinality with Hall witnesses.

Two engines answer the two kinds of question.  Cardinality questions (is
there a b-factor, which buyer set breaks Hall's condition, which buyer set has
the least surplus) go to `augment`, which grows a b-matching along
alternating paths and returns the buyers reachable from spare capacity: by
König's theorem, the smallest set of largest deficiency.  Each graph keeps
one grown from empty (`max_cardinality_bmatching`) that all such questions
share.  Weighted questions go to the Hungarian solver.

`BipartiteGraph.build` is for outside input: it validates the vertices,
sorts the edges by item, then buyer, and makes weights Fractions.  In the
package only `with_capacity`, which keeps `build`'s rules for capacities,
calls it.  `model.market_graph` constructs a market's graph directly: the
market was validated by `Market.build`, its values are Fractions already,
and listing its pairs item by item, then buyer by buyer, is the canonical
order.  Every other graph is derived from one of those (`induced`,
`unit_subgraph`, ...) and keeps its edge order, so nothing is validated or
sorted twice.

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
Each graph scales its Fraction weights once, by their least common
denominator D (`BipartiteGraph.scaled`), so the solver returns its value and
its duals as integers in units of 1/D.  The trim objective "maximum weight,
then fewest edges" is the integer weight w * D * K - 1 with K = |S| + 1: a
b-matching has at most |S| edges, so a weight gap of 1/D always outweighs
any difference in edge count.

Every solve is certified before use: `_check_optimal_pair` proves, on the
integer weights the solve ran on, that M is a b-matching of g
(`check_bmatching`) and pi a non-negative covering of equal value, tight on
M, with complementary slackness.  On the trim weights that proves M of
maximum weight and, among those, of fewest edges, so neither trimming nor the
structured dual, which starts from M (`dual.refine_covering`), solves again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import AbstractSet, Container, Iterable, Mapping, Optional

from .errors import ContractViolationError, InternalConsistencyError, ModelError

ItemId = str
BuyerId = str
Edge = tuple[ItemId, BuyerId]


def int_fraction(x, what: str) -> Fraction:
    """x, an int, as a Fraction; the callers pass Fractions through themselves."""
    if type(x) is not int:
        raise ModelError(f"{what} must be ints or Fractions")
    return Fraction(x)


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


@dataclass(frozen=True)
class BipartiteGraph:
    """Edge-weighted bipartite graph with vertex capacities (items always 1);
    edges are in canonical order, by item, then buyer (`build` sorts them)."""

    items: tuple[ItemId, ...]
    buyers: tuple[BuyerId, ...]
    edges: tuple[Edge, ...]
    weight: Mapping[Edge, Fraction]
    capacity: Mapping[str, int]

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
        w = {e: x if type(x := weight[e]) is Fraction else int_fraction(x, "weights")
             for e in canon}
        cap = dict(capacity)
        for s in items:
            if type(c := cap.get(s, 1)) is not int or c != 1:
                raise ModelError(f"item {s} must have capacity 1")
            cap[s] = 1
        for t in buyers:
            if type(c := cap.get(t)) is not int or c < 0:
                raise ModelError(f"buyer {t} needs a non-negative int capacity")
        return BipartiteGraph(items, buyers, canon, w, cap)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def scaled(self) -> tuple[dict[Edge, int], int]:
        """Integer weights w * D and their common denominator D."""
        denom = math.lcm(1, *{w.denominator for w in self.weight.values()})
        return ({e: w.numerator * (denom // w.denominator) for e, w in self.weight.items()},
                denom)

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

    def neighbors(self, buyers: Iterable[BuyerId]) -> frozenset[ItemId]:
        out: set[ItemId] = set()
        for t in buyers:
            out.update(self.buyer_adj[t])
        return frozenset(out)

    def buyer_capacity_total(self) -> int:
        return sum(self.capacity[t] for t in self.buyers)

    def unit_subgraph(self, edges: AbstractSet[Edge]) -> "BipartiteGraph":
        """The spanning subgraph on `edges`, kept in this graph's order, with unit weights."""
        if not edges <= self.edge_set:
            raise ModelError(f"edges not in graph: {sorted(edges - self.edge_set, key=repr)!r}")
        kept = tuple(e for e in self.edges if e in edges)
        return BipartiteGraph(self.items, self.buyers, kept, dict.fromkeys(kept, Fraction(1)),
                              self.capacity)

    def induced(self, items: Iterable[ItemId], buyers: Iterable[BuyerId]) -> "BipartiteGraph":
        keep_s = frozen_ids(items, "items")
        keep_t = frozen_ids(buyers, "buyers")
        new_items = tuple(s for s in self.items if s in keep_s)
        new_buyers = tuple(t for t in self.buyers if t in keep_t)
        new_edges = tuple(e for e in self.edges if e[0] in keep_s and e[1] in keep_t)
        w = {e: self.weight[e] for e in new_edges}
        cap = {v: self.capacity[v] for v in new_items + new_buyers}
        return BipartiteGraph(new_items, new_buyers, new_edges, w, cap)

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
    """Non-negative dual vector pi with pi(s) + pi(t) >= w(st) on every edge."""

    pi: Mapping[str, Fraction]

    def total_value(self, g: BipartiteGraph) -> Fraction:
        return sum((self.pi[v] * g.capacity[v] for v in g.items + g.buyers), Fraction(0))

    def is_covering(self, g: BipartiteGraph) -> bool:
        return all(self.pi[s] + self.pi[t] >= g.weight[(s, t)] for s, t in g.edges)

    def tight_edges(self, g: BipartiteGraph) -> frozenset[Edge]:
        return frozenset(e for e in g.edges if self.pi[e[0]] + self.pi[e[1]] == g.weight[e])


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


def _solve(g: BipartiteGraph, weights: Mapping[Edge, int]):
    """Solve max-weight b-matching via buyer-copy expansion.

    Takes an integer weight per edge of g and returns (edges, value, pi) as
    integers in the units of `weights`; `_check_optimal_pair` certifies them.
    """
    col_of_item = {s: k for k, s in enumerate(g.items)}
    # one dense row per buyer, shared by its copies; a non-edge gets a weight
    # that the search never takes (see the module notes)
    absent = -1 - 3 * max(map(abs, weights.values()), default=0)
    dense = {t: [absent] * len(g.items) for t in g.buyers}
    for (s, t), wx in weights.items():
        dense[t][col_of_item[s]] = wx
    # t holds at most |S| items; one more copy, never matched, keeps pi(t) = 0
    rows = [t for t in g.buyers for _ in range(min(g.capacity[t], len(g.items) + 1))]

    match_row, u, v = _hungarian(len(rows), len(g.items), [dense[t] for t in rows])

    edges = [(g.items[j], rows[i]) for i, j in enumerate(match_row) if j >= 0]
    edge_set = frozenset(edges)
    if len(edge_set) != len(edges):
        raise InternalConsistencyError("expansion produced a repeated edge")
    value = sum(weights[e] for e in edge_set)

    duals: dict[BuyerId, set[int]] = {t: set() for t in g.buyers}
    for t, ui in zip(rows, u):
        duals[t].add(ui)
    pi: dict[str, int] = {}
    for t in g.buyers:
        if len(duals[t]) > 1:
            raise InternalConsistencyError(f"copies of buyer {t} got unequal duals")
        # capacity 0 leaves t no copy: the least dual that covers its edges
        pi[t] = duals[t].pop() if duals[t] else max([0] + [weights[(s, t)] - v[col_of_item[s]]
                                                          for s in g.buyer_adj[t]])
    for s in g.items:
        pi[s] = v[col_of_item[s]]
    return edge_set, value, pi


def check_bmatching(g: BipartiteGraph, edges: frozenset[Edge]) -> Counter:
    """The degrees of M, certified: every edge in g, no degree above capacity."""
    deg = Counter(vx for e in edges for vx in e)
    if not edges <= g.edge_set or any(d > g.capacity[vx] for vx, d in deg.items()):
        raise InternalConsistencyError("optimal matching is not a b-matching of the graph")
    return deg


def _check_optimal_pair(g: BipartiteGraph, weight: Mapping[Edge, int],
                        edges: frozenset[Edge], value: int, pi: Mapping[str, int]) -> None:
    """Certify (M, pi) optimal for the integer `weight` the solve ran on: M a b-matching
    of g, pi a non-negative covering tight on M, equal values, complementary slackness."""
    deg = check_bmatching(g, edges)
    for vx in g.items + g.buyers:
        if pi[vx] < 0:
            raise InternalConsistencyError("negative dual value")
    for (s, t), w in weight.items():
        if pi[s] + pi[t] < w:
            raise InternalConsistencyError("dual is not a covering")
    for s, t in edges:
        if pi[s] + pi[t] != weight[(s, t)]:
            raise InternalConsistencyError("matched edge not tight")
    if sum(pi[vx] * g.capacity[vx] for vx in g.items + g.buyers) != value:
        raise InternalConsistencyError("strong duality gap")
    for vx in g.items + g.buyers:
        if pi[vx] > 0 and deg[vx] != g.capacity[vx]:
            raise InternalConsistencyError("complementary slackness violated")


def solve_with_covering(g: BipartiteGraph) -> SolveResult:
    """Maximum-weight b-matching together with an optimal covering (verified)."""
    weight, denom = g.scaled
    edges, value, pi = _solve(g, weight)
    _check_optimal_pair(g, weight, edges, value, pi)
    return SolveResult(edges, Fraction(value, denom),
                       Covering({v: Fraction(x, denom) for v, x in pi.items()}))


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
    scaled, denom = g.scaled
    k = len(g.items) + 1
    weight = {e: w * k - 1 for e, w in scaled.items()}
    edges, value, pi = _solve(g, weight)
    _check_optimal_pair(g, weight, edges, value, pi)
    return edges, Fraction(sum(scaled[e] for e in edges), denom)
