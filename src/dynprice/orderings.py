"""Adequate item orderings.

An ordering is a tuple of the items, first picked first.  It is adequate for a
tight graph when, for every buyer, matching the buyer to its first b(t) tight
neighbors still leaves a graph with a b-factor.  Where an ordering comes from
outside (a strategy's result in `pricing.multi_round`, `verify_adequate` and
`combine`), `checked_ordering` refuses anything but distinct hashable items.
Both constructions take the tight graph alone, and `pricing.ordering_method`
picks one from that graph's buyers and capacities: one rule for up to three
buyers (items tight for a single buyer first, then the rest, sorted by a
labeling for three buyers), and the recursive case analysis for bi-demand
graphs driven by dangerous sets.  `pricing.dispatch_ordering`
certifies each result with `verify_adequate`; each construction checks its
input once, by `_require_tight`.  The case analysis starts from the caller's
tight graph (unit weights, every edge in a b-factor, which `adequate_bidemand`
checks at entry): its dual is constant.  Each graph it reads splits along the
strong components of its held b-factor's buyer digraph (t -> each buyer tight
for an item that t holds), each item in its holder's: the Dulmage-Mendelsohn
decomposition, read once per graph (`BipartiteGraph.factor_components`, which
the surplus searches read too).  An edge lies in a b-factor iff its ends share
a component.  A descent that cuts the graph may leave a part with edges in no
b-factor.  Such a part has two components at least, so case 3 splits it first,
and `induced` keeps only the edges inside each, the legal ones.
`_bidemand_wrapper` runs the cases on the part as it stands, with no solve, no
refine and no copy, and sorts the result stably by the height of each item's
component, the structured dual's order on the items.  A part with no b-factor,
or a contract error from the cases there, is an InternalConsistencyError.  Case
3 reads nothing more: each component has a constant dual.

`_bidemand_cases` tries the cases in this order; N(Y) is the items tight for
some buyer in Y, Z a maximal dangerous set and X a minimal one disjoint from Z:
- base: at most one buyer.  No cut; its items in item order.
- 3: the graph splits: its held b-factor has two components or more.  Each
  component in turn, recursing on the graph it induces, or, with one buyer, the
  base case in place.
- 1: no dangerous set.  No cut; the items in item order.
- 2.1: no X.  The items outside N(Z), then Z on N(Z) less s0 (the first item of
  N(Z) tight for a buyer outside Z) through the wrapper, then s0.
- 2.2.1: every bundle of every X-buyer is in a b-factor.  Cuts X and N(X) less
  s0 (the first item of N(X) tight for a buyer outside X), recurses on the
  rest through the wrapper, then the rest of N(X).
- 2.2.2: some X-buyer's pair {s1, s2} is in none, so X and Z split the buyers
  and share exactly s1 and s2.  The same descent keeping s1, then the rest of
  N(X) but s2, then s2.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations
from typing import Optional

from . import matching, sets
from .errors import ContractViolationError, InternalConsistencyError, ModelError
from .matching import BipartiteGraph, BuyerId, Covering, ItemId, id_tuple


def checked_ordering(sigma: Iterable[ItemId], items: Optional[Iterable[ItemId]] = None
                     ) -> tuple[ItemId, ...]:
    """sigma as a tuple of items, first picked first.  A string, a mapping (read as
    its keys, it would drop its ranks), a non-iterable, unhashable entries, a
    repeated item and, when `items` is given, any other set of items are a ModelError."""
    if isinstance(sigma, Mapping):
        raise ModelError("ordering must be a sequence of items, not a mapping")
    seq = id_tuple(sigma, "ordering")
    if len(set(seq)) != len(seq):
        raise ModelError("ordering lists an item twice")
    if items is not None and set(seq) != set(items):
        raise ModelError("ordering domain does not match graph items")
    return seq


def combine(pi: Covering, sigma: Sequence[ItemId]) -> tuple[ItemId, ...]:
    """sigma stably sorted by pi: pi values non-decreasing, ties in sigma's order.  Any
    sigma that `checked_ordering` refuses is a ModelError, and then any pi that
    `matching.covering_values` refuses on sigma's items."""
    seq = checked_ordering(sigma)
    return tuple(sorted(seq, key=matching.covering_values(pi, seq).__getitem__))


def verify_adequate(gpi: BipartiteGraph, sigma: Sequence[ItemId]) -> bool:
    """Check adequacy directly: every buyer's first b(t) neighbors extend to a b-factor."""
    rank = {s: k for k, s in enumerate(checked_ordering(sigma, gpi.items))}
    for t in gpi.buyers:
        nbrs = sorted(gpi.buyer_adj[t], key=rank.__getitem__)
        if len(nbrs) < gpi.capacity[t] or not sets.feasible_bundle(gpi, t, nbrs[:gpi.capacity[t]]):
            return False
    return True


def _require_tight(g: BipartiteGraph) -> None:
    """Refuse g unless it has unit weights and a b-factor."""
    if g.table.denominator != 1 or any(w != 1 for w in g.table.weight):
        raise ContractViolationError("tight graph weights must be one")
    if not matching.bfactor_exists(g)[0]:
        raise ContractViolationError("graph admits no b-factor")


def three_buyer_labeling(gpi: BipartiteGraph) -> dict[ItemId, int]:
    """Labels 1..5 of a three-buyer tight graph's items tight for two or three buyers.

    Buyer t's reduced demand r(t) is b(t) less its single-buyer class in
    `legal_classes_3`; buyers rank by non-increasing r, ties by position.  Items
    tight for all three buyers get 5.  The k-th item (from 0, in item order) of
    the pair class of buyers a and b gets 4 if k < min(r(a), r(b)), else mid if
    k < max(r(a), r(b)), else 1; mid is 2 when the pair holds the rank-3 buyer
    and 3 when not.  As k < size always, a class of size items has
    min(size, r_lo) labeled 4 and min(size, r_hi) labeled 4 or mid, where r_lo
    and r_hi are the pair's smaller and larger reduced demand.  So for the buyer
    of rank i the number of items labeled <= 4 - i inside each of its pair
    classes is exactly max(0, class size - other demand).
    """
    classes = sets.legal_classes_3(gpi)
    r = {i: gpi.capacity[t] - len(classes[frozenset((i,))]) for i, t in enumerate(gpi.buyers, 1)}
    order = sorted(r, key=lambda a: (-r[a], a))
    theta: dict[ItemId, int] = dict.fromkeys(classes[frozenset((1, 2, 3))], 5)
    for a, b in combinations((1, 2, 3), 2):
        mid = 2 if order[2] in (a, b) else 3
        cls = [s for s in gpi.items if s in classes[frozenset((a, b))]]
        for k, s in enumerate(cls):
            theta[s] = 4 if k < min(r[a], r[b]) else (mid if k < max(r[a], r[b]) else 1)
    # Claim-style sanity: the items a rank-i buyer must grab fit its demand.
    for i, pos in enumerate(order, 1):
        grab = sum(1 for a, b in combinations((1, 2, 3), 2)
                   if pos in (a, b)
                   for s in classes[frozenset((a, b))] if theta[s] <= 4 - i)
        if grab > r[pos]:
            raise InternalConsistencyError("labeling overcommits a buyer")
    return theta


def adequate_three_buyers(gpi: BipartiteGraph) -> tuple[ItemId, ...]:
    """Adequate ordering for at most three buyers with arbitrary demands.

    Items tight for a single buyer go first, then the others in item order,
    sorted by the labeling when there are three buyers.  gpi must have unit
    weights and a b-factor; ContractViolationError otherwise.
    """
    if len(gpi.buyers) > 3:
        raise ContractViolationError("at most three buyers supported")
    _require_tight(gpi)
    # A b-factor saturates every item, gives each buyer all of its single-buyer
    # items and each pair-class item to one of the pair: the labeling's inputs
    # fit, and it labels every item tight for two buyers or more.
    key = {s: 0 if len(gpi.item_adj[s]) == 1 else 1 for s in gpi.items}
    if len(gpi.buyers) == 3:
        key.update(three_buyer_labeling(gpi))
    return tuple(sorted(gpi.items, key=key.__getitem__))  # ties keep item order


def adequate_two_buyers(gpi: BipartiteGraph) -> tuple[ItemId, ...]:
    """`adequate_three_buyers` on exactly two buyers: items tight for both go last."""
    if len(gpi.buyers) != 2:
        raise ContractViolationError("exactly two buyers required")
    return adequate_three_buyers(gpi)


def _components(g: BipartiteGraph) -> list[tuple[list[ItemId], list[BuyerId]]]:
    """The strong components of g's held b-factor (`factor_components`), by first buyer,
    each as its items and its buyers in g's orders: the connected components of g's
    legal edges.  A graph with no b-factor is an InternalConsistencyError."""
    if g.factor_components is None:
        raise InternalConsistencyError("graph admits no b-factor")
    comp = g.factor_components[0]
    return [([s for s in g.items if comp[s] == c], [t for t in g.buyers if comp[t] == c])
            for c in dict.fromkeys(comp[t] for t in g.buyers)]


def adequate_bidemand(h: BipartiteGraph, trace: Optional[list] = None) -> tuple[ItemId, ...]:
    """Adequate ordering of a tight graph where every demand is one or two.

    h must have unit weights and a b-factor, and every edge must lie in one
    (tight = legal: its ends share a component of the held b-factor); ContractViolationError
    otherwise.  The cases taken are appended to `trace`, a list when given; anything else
    is a ModelError.
    """
    if trace is not None and not isinstance(trace, list):
        raise ModelError("trace must be a list")
    for t in h.buyers:
        if not 1 <= h.capacity[t] <= 2:
            raise ContractViolationError("demands must be one or two")
    _require_tight(h)
    if any(h.factor_components[1]):     # an arc leaves a component: an edge in no b-factor
        raise ContractViolationError("every edge must lie in a b-factor")
    return tuple(_bidemand_cases(h, [] if trace is None else trace, 0))


def _bidemand_wrapper(h: BipartiteGraph, trace: list, depth: int) -> list[ItemId]:
    """The case analysis on h as it stands, its items stably sorted by the structured
    dual.  h has unit weights, and the components of its held b-factor
    (`factor_components`) give the rest: an edge in no b-factor joins two of them, so case
    3 splits h first and leaves that edge out, and the dual (`dual.refine_covering`), from
    the seller-optimal 1 on items and 0 on buyers, raises each item by its component's
    height, so it ranks them by height."""
    if h.factor_components is None:
        raise InternalConsistencyError("graph admits no b-factor")
    comp, height = h.factor_components
    try:
        return sorted(_bidemand_cases(h, trace, depth), key=lambda s: height[comp[s]])
    except ContractViolationError as exc:
        raise InternalConsistencyError(f"cut graph refused: {exc}") from exc


def _base_case(items: Sequence[ItemId], buyers: Sequence[BuyerId], trace: list,
               depth: int) -> list[ItemId]:
    trace.append({"depth": depth, "case": "base", "buyers": list(buyers)})
    return list(items)


def _bidemand_cases(hp: BipartiteGraph, trace: list, depth: int) -> list[ItemId]:
    if len(hp.buyers) <= 1:
        return _base_case(hp.items, hp.buyers, trace, depth)

    comps = _components(hp)
    if len(comps) > 1:
        trace.append({"depth": depth, "case": "3",
                      "components": [sorted(ts) for _, ts in comps]})
        seq: list[ItemId] = []
        for items_c, buyers_c in comps:
            seq += (_base_case(items_c, buyers_c, trace, depth + 1) if len(buyers_c) == 1
                    else _bidemand_cases(hp.induced(items_c, buyers_c), trace, depth + 1))
        return seq

    Z = sets.maximal_dangerous_set(hp)
    if Z is None:
        trace.append({"depth": depth, "case": "1"})
        return list(hp.items)
    nz = hp.neighbors(Z)
    X = sets.minimal_dangerous_disjoint(hp, Z)
    if X is None:
        s0 = next((s for s in hp.items
                   if s in nz and any(t not in Z for t in hp.item_adj[s])), None)
        if s0 is None:
            raise InternalConsistencyError("dangerous neighborhood fully internal")
        trace.append({"depth": depth, "case": "2.1", "Z": sorted(Z), "s0": s0})
        head = [s for s in hp.items if s not in nz]
        inner = hp.induced([s for s in hp.items if s in nz and s != s0], Z)
        return head + _bidemand_wrapper(inner, trace, depth + 1) + [s0]

    nx = hp.neighbors(X)
    bad = next((F for t in hp.buyers if t in X
                for F in combinations(hp.buyer_adj[t], hp.capacity[t])
                if not sets.feasible_bundle(hp, t, F)), None)
    if bad is None:
        keep = next((s for t in hp.buyers if t not in X
                     for s in hp.buyer_adj[t] if s in nx), None)
        if keep is None:
            raise InternalConsistencyError("dangerous neighborhood fully internal")
        trace.append({"depth": depth, "case": "2.2.1",
                      "Z": sorted(Z), "X": sorted(X), "s0": keep})
        last = []
    else:
        if len(bad) != 2:
            raise InternalConsistencyError("blocking bundle is not a pair")
        keep, s2 = bad      # a pair of an X-buyer's neighbors, so in item order
        if X | Z != set(hp.buyers) or nx & nz != {keep, s2}:
            raise InternalConsistencyError("blocking pair does not split the market")
        trace.append({"depth": depth, "case": "2.2.2", "Z": sorted(Z),
                      "X": sorted(X), "pair": [keep, s2]})
        last = [s2]
    rest = [s for s in hp.items if s in nx and s != keep and s not in last]
    return _bidemand_wrapper(hp.without(X | (nx - {keep})), trace, depth + 1) + rest + last
