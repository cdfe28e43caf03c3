"""Adequate item orderings.

An ordering of the items is adequate for a tight graph when, for every buyer,
matching the buyer to its first b(t) tight neighbors still leaves a graph with
a b-factor.  `pricing.ordering_method` picks one of two constructions: one rule
for up to three buyers (items tight for a single buyer first, then the rest,
sorted by a labeling for three buyers), and the recursive case analysis for
bi-demand markets driven by dangerous sets.  `pricing.dispatch_ordering`
certifies each result with `verify_adequate`; each construction checks its
input once, by `_require_factor`.  The case analysis starts from the caller's
tight graph (unit weights, every edge in a b-factor), with no refine: its dual
is constant.  An edge in no b-factor means a buyer set of surplus zero, which
`sets.maximal_dangerous_set` refuses as a contract error.  After a descent
that cuts the graph, `_bidemand_wrapper` refines the part from its maximum
b-matching (no solve), runs the cases on its tight subgraph and lifts them by
`combine`; a contract error there is an InternalConsistencyError.  Case 3
refines nothing: each component of a tight graph has a constant dual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional

from . import matching, sets
from .dual import refine_covering, tight_subgraph
from .errors import ContractViolationError, InternalConsistencyError, ModelError
from .matching import BipartiteGraph, BuyerId, Covering, ItemId


@dataclass(frozen=True)
class Ordering:
    """Bijection from items to ranks 1..n; rank 1 is picked up first."""

    rank: Mapping[ItemId, int]

    def __post_init__(self):
        ranks = sorted(self.rank.values())
        if ranks != list(range(1, len(self.rank) + 1)):
            raise ModelError("ordering ranks must be a bijection onto 1..n")

    @staticmethod
    def from_sequence(items: Iterable[ItemId]) -> "Ordering":
        return Ordering({s: k + 1 for k, s in enumerate(items)})

    def items_in_order(self) -> tuple[ItemId, ...]:
        return tuple(sorted(self.rank, key=self.rank.__getitem__))


def combine(pi: Covering, sigma: Ordering) -> Ordering:
    """Pre-order by pi values non-decreasing, break ties by sigma."""
    try:
        key = {s: (pi.pi[s], sigma.rank[s]) for s in sigma.rank}
    except KeyError as exc:
        raise ModelError(f"pi not defined on item {exc}") from exc
    return Ordering.from_sequence(sorted(sigma.rank, key=key.__getitem__))


def verify_adequate(gpi: BipartiteGraph, sigma: Ordering) -> bool:
    """Check adequacy directly: every buyer's first b(t) neighbors extend to a b-factor."""
    if set(sigma.rank) != set(gpi.items):
        raise ModelError("ordering domain does not match graph items")
    for t in gpi.buyers:
        nbrs = sorted(gpi.buyer_adj[t], key=sigma.rank.__getitem__)
        if len(nbrs) < gpi.capacity[t] or not sets.feasible_bundle(gpi, t, nbrs[:gpi.capacity[t]]):
            return False
    return True


def _require_unit_weights(g: BipartiteGraph) -> None:
    if any(w != 1 for w in g.weight.values()):
        raise ContractViolationError("tight graph weights must be one")


def _require_factor(g: BipartiteGraph) -> None:
    exists, _ = matching.bfactor_exists(g)
    if not exists:
        raise ContractViolationError("graph admits no b-factor")


def three_buyer_labeling(gpi: BipartiteGraph, classes: Mapping[frozenset[int], frozenset[ItemId]],
                         reduced: Mapping[BuyerId, int]) -> dict[ItemId, int]:
    """Labels 1..5 of the non-exclusive items given `legal_classes_3` and reduced demands.

    Buyers are handled in non-increasing order of reduced demand; for the
    buyer of rank i, the number of items labeled <= 4 - i inside each of its
    pair classes is exactly max(0, class size - other demand).
    """
    buyers = gpi.buyers
    r = {i + 1: reduced[buyers[i]] for i in range(3)}
    order = sorted((1, 2, 3), key=lambda a: (-r[a], a))
    rank_of = {pos: k + 1 for k, pos in enumerate(order)}
    theta: dict[ItemId, int] = dict.fromkeys(classes[frozenset((1, 2, 3))], 5)
    for a, b in combinations((1, 2, 3), 2):
        cls = [s for s in gpi.items if s in classes[frozenset((a, b))]]
        i, j = sorted((rank_of[a], rank_of[b]))
        r_hi = r[order[i - 1]]
        r_lo = r[order[j - 1]]
        size = len(cls)
        mid_label = 3 if (i, j) == (1, 2) else 2
        n4 = min(size, r_lo)
        nmid = max(0, min(size, r_hi) - r_lo)
        for k, s in enumerate(cls):
            theta[s] = 4 if k < n4 else (mid_label if k < n4 + nmid else 1)
    # Claim-style sanity: the items a rank-i buyer must grab fit its demand.
    for i in (1, 2, 3):
        pos = order[i - 1]
        grab = sum(1 for a, b in combinations((1, 2, 3), 2)
                   if pos in (a, b)
                   for s in classes[frozenset((a, b))] if theta[s] <= 4 - i)
        if grab > r[pos]:
            raise InternalConsistencyError("labeling overcommits a buyer")
    return theta


def adequate_three_buyers(gpi: BipartiteGraph) -> Ordering:
    """Adequate ordering for at most three buyers with arbitrary demands.

    Items tight for a single buyer go first, then the others in item order,
    sorted by the labeling when there are three buyers.  gpi must have unit
    weights and a b-factor; ContractViolationError otherwise.
    """
    nb = len(gpi.buyers)
    if nb > 3:
        raise ContractViolationError("at most three buyers supported")
    _require_unit_weights(gpi)
    _require_factor(gpi)
    # A b-factor saturates every item, gives each buyer all of its single-buyer
    # items and each pair-class item to one of the pair: the labeling's inputs fit.
    head = [s for s in gpi.items if len(gpi.item_adj[s]) == 1]
    rest = [s for s in gpi.items if len(gpi.item_adj[s]) != 1]
    if nb == 3:
        classes = sets.legal_classes_3(gpi)
        reduced = {t: gpi.capacity[t] - len(classes[frozenset((i + 1,))])
                   for i, t in enumerate(gpi.buyers)}
        theta = three_buyer_labeling(gpi, classes, reduced)
        rest.sort(key=theta.__getitem__)    # stable: ties stay in item order
    return Ordering.from_sequence(head + rest)


def adequate_two_buyers(gpi: BipartiteGraph) -> Ordering:
    """`adequate_three_buyers` on exactly two buyers: items tight for both go last."""
    if len(gpi.buyers) != 2:
        raise ContractViolationError("exactly two buyers required")
    return adequate_three_buyers(gpi)


def _components(g: BipartiteGraph) -> list[tuple[list[ItemId], list[BuyerId]]]:
    seen: set[str] = set()
    comps = []
    for start in g.buyers:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        verts = {start}
        while queue:
            v = queue.popleft()
            nbrs = g.buyer_adj.get(v) or g.item_adj.get(v) or ()
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    verts.add(w)
                    queue.append(w)
        comps.append(([s for s in g.items if s in verts],
                      [t for t in g.buyers if t in verts]))
    if any(s not in seen for s in g.items):
        raise InternalConsistencyError("isolated item in tight graph")
    return comps


def adequate_bidemand(h: BipartiteGraph, trace: Optional[list] = None) -> Ordering:
    """Adequate ordering of a tight graph where every demand is one or two.

    h must have unit weights and a b-factor, and every edge must lie in one
    (tight = legal); ContractViolationError otherwise.
    """
    for t in h.buyers:
        if not 1 <= h.capacity[t] <= 2:
            raise ContractViolationError("demands must be one or two")
    _require_unit_weights(h)
    _require_factor(h)
    return Ordering.from_sequence(_bidemand_cases(h, trace if trace is not None else [], 0))


def _bidemand_wrapper(h: BipartiteGraph, trace: list, depth: int) -> list[ItemId]:
    """Refine h's dual from its maximum b-matching (of maximum weight: h has unit
    weights), run the case analysis on its tight subgraph, return it lifted by `combine`."""
    try:
        sc = refine_covering(h, frozenset(h.max_cardinality_bmatching[0].items()))
        # A zero dual marks a vertex that some largest b-matching leaves unsaturated.
        if 0 in sc.pi.pi.values():
            raise InternalConsistencyError("graph admits no b-factor")
        hp = h if sc.tight_edges == h.edge_set else tight_subgraph(sc, h)
        seq = _bidemand_cases(hp, trace, depth)
    except ContractViolationError as exc:
        raise InternalConsistencyError(f"refined graph refused: {exc}") from exc
    return list(combine(sc.pi, Ordering.from_sequence(seq)).items_in_order())


def _bidemand_cases(hp: BipartiteGraph, trace: list, depth: int) -> list[ItemId]:
    if len(hp.buyers) <= 1:
        trace.append({"depth": depth, "case": "base", "buyers": list(hp.buyers)})
        return list(hp.items)

    comps = _components(hp)
    if len(comps) > 1:
        trace.append({"depth": depth, "case": "3",
                      "components": [sorted(ts) for _, ts in comps]})
        seq: list[ItemId] = []
        for items_c, buyers_c in comps:
            sub = hp.induced(items_c, buyers_c)
            seq.extend(_bidemand_cases(sub, trace, depth + 1))
        return seq

    Z = sets.maximal_dangerous_set(hp)
    if Z is None:
        trace.append({"depth": depth, "case": "1"})
        return list(hp.items)
    X = sets.minimal_dangerous_disjoint(hp, Z)
    if X is None:
        return _subcase_no_disjoint(hp, Z, trace, depth)
    bad = _find_infeasible_bundle(hp, X)
    if bad is None:
        return _subcase_feasible_disjoint(hp, Z, X, trace, depth)
    return _subcase_blocking_pair(hp, Z, X, bad, trace, depth)


def _subcase_no_disjoint(hp: BipartiteGraph, Z: frozenset[BuyerId],
                         trace: list, depth: int) -> list[ItemId]:
    nz = hp.neighbors(Z)
    s0 = next((s for s in hp.items
               if s in nz and any(t not in Z for t in hp.item_adj[s])), None)
    if s0 is None:
        raise InternalConsistencyError("dangerous neighborhood fully internal")
    trace.append({"depth": depth, "case": "2.1", "Z": sorted(Z), "s0": s0})
    head = [s for s in hp.items if s not in nz]
    inner = hp.induced([s for s in hp.items if s in nz and s != s0], Z)
    return head + _bidemand_wrapper(inner, trace, depth + 1) + [s0]


def _find_infeasible_bundle(hp: BipartiteGraph, X: frozenset[BuyerId]
                            ) -> Optional[tuple[BuyerId, tuple[ItemId, ...]]]:
    for t in hp.buyers:
        if t not in X:
            continue
        for F in combinations(hp.buyer_adj[t], hp.capacity[t]):
            if not sets.feasible_bundle(hp, t, F):
                return t, F
    return None


def _subcase_feasible_disjoint(hp: BipartiteGraph, Z: frozenset[BuyerId],
                               X: frozenset[BuyerId], trace: list,
                               depth: int) -> list[ItemId]:
    nx = hp.neighbors(X)
    pick = next(((t, s) for t in hp.buyers if t not in X
                 for s in hp.buyer_adj[t] if s in nx), None)
    if pick is None:
        raise InternalConsistencyError("dangerous neighborhood fully internal")
    t0, s0 = pick
    trace.append({"depth": depth, "case": "2.2.1",
                  "Z": sorted(Z), "X": sorted(X), "s0": s0})
    outer = hp.without(X | (nx - {s0}))
    tail = [s for s in hp.items if s in nx and s != s0]
    return _bidemand_wrapper(outer, trace, depth + 1) + tail


def _subcase_blocking_pair(hp: BipartiteGraph, Z: frozenset[BuyerId],
                           X: frozenset[BuyerId],
                           bad: tuple[BuyerId, tuple[ItemId, ...]],
                           trace: list, depth: int) -> list[ItemId]:
    t0, F = bad
    if len(F) != 2:
        raise InternalConsistencyError("blocking bundle is not a pair")
    s1, s2 = F      # a pair of t0's neighbors, so in item order
    nx = hp.neighbors(X)
    nz = hp.neighbors(Z)
    if X | Z != set(hp.buyers) or nx & nz != {s1, s2}:
        raise InternalConsistencyError("blocking pair does not split the market")
    trace.append({"depth": depth, "case": "2.2.2", "Z": sorted(Z),
                  "X": sorted(X), "pair": [s1, s2]})
    outer = hp.without(X | (nx - {s1}))
    middle = [s for s in hp.items if s in nx and s not in (s1, s2)]
    return _bidemand_wrapper(outer, trace, depth + 1) + middle + [s2]
