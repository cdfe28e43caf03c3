"""Market data model, welfare accounting, the saturation property check and
item trimming.

Markets are complete bipartite: every (buyer, item) pair carries a value, with
zero-valued pairs being real edges.  All values are exact rationals
(fractions.Fraction); nothing in the engine rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Optional

from . import matching
from .dual import refine_covering
from .errors import InternalConsistencyError, ModelError
from .matching import BipartiteGraph, BuyerId, ItemId, frozen_ids, id_tuple


@dataclass(frozen=True)
class Market:
    """Items, buyers, per-buyer demands b(t) and per-pair values v_t(s)."""

    items: tuple[ItemId, ...]
    buyers: tuple[BuyerId, ...]
    demand: Mapping[BuyerId, int]
    value: Mapping[tuple[BuyerId, ItemId], Fraction]

    @staticmethod
    def build(items: Iterable[ItemId], buyers: Iterable[BuyerId],
              demand: Mapping[BuyerId, int],
              value: Mapping[tuple[BuyerId, ItemId], Fraction | int]) -> "Market":
        items, buyers = id_tuple(items, "items"), id_tuple(buyers, "buyers")
        if not isinstance(demand, Mapping) or not isinstance(value, Mapping):
            raise ModelError("demands and values must be mappings")
        if len(set(items)) != len(items) or len(set(buyers)) != len(buyers):
            raise ModelError("duplicate ids")
        if set(items) & set(buyers):
            raise ModelError("item and buyer ids must be distinct")
        for t in buyers:
            if t not in demand or type(demand[t]) is not int or demand[t] < 1:
                raise ModelError(f"buyer {t} needs an int demand >= 1")
        vals: dict[tuple[BuyerId, ItemId], Fraction] = {}
        for t in buyers:
            for s in items:
                if (t, s) not in value:
                    raise ModelError(f"missing value for buyer {t}, item {s}")
                if type(v := value[(t, s)]) is not Fraction:
                    v = matching.int_fraction(v, "values")
                if v < 0:
                    raise ModelError(f"negative value for buyer {t}, item {s}")
                vals[(t, s)] = v
        return Market(items, buyers, {t: demand[t] for t in buyers}, vals)


@dataclass(frozen=True)
class OptReport:
    opt_welfare: Fraction
    opt_property_holds: bool
    witness: Optional[tuple[BuyerId, Mapping[BuyerId, frozenset[ItemId]]]] = None


def submarket(m: Market, items: AbstractSet[ItemId],
              buyers: AbstractSet[BuyerId]) -> Market:
    """The market on the given items and buyers, kept in m's order."""
    its = tuple(s for s in m.items if s in items)
    bys = tuple(t for t in m.buyers if t in buyers)
    return Market(its, bys, {t: m.demand[t] for t in bys},
                  {(t, s): m.value[(t, s)] for t in bys for s in its})


def market_graph(m: Market) -> BipartiteGraph:
    """The complete edge-weighted bipartite graph of the market."""
    weight = {(s, t): m.value[(t, s)] for t in m.buyers for s in m.items}
    capacity: dict[str, int] = {s: 1 for s in m.items}
    capacity.update({t: m.demand[t] for t in m.buyers})
    return BipartiteGraph.build(m.items, m.buyers, weight, capacity)


def welfare(m: Market, bundles: Mapping[BuyerId, Iterable[ItemId]]) -> Fraction:
    """Total value of an allocation {buyer: bundle}: disjoint bundles of m's items,
    each within its buyer's demand."""
    if not isinstance(bundles, Mapping):
        raise ModelError("an allocation must map buyers to bundles")
    seen: set[ItemId] = set()
    total = Fraction(0)
    for t, items in bundles.items():
        bundle = frozen_ids(items, "items")
        if t not in m.demand:
            raise ModelError(f"allocation references unknown buyer {t!r}")
        if len(bundle) > m.demand[t]:
            raise ModelError(f"bundle of {t} exceeds demand")
        for s in bundle:
            if (t, s) not in m.value:
                raise ModelError(f"allocation references unknown item {s!r}")
            if s in seen:
                raise ModelError(f"item {s} allocated twice")
            seen.add(s)
            total += m.value[(t, s)]
    return total


def check_opt_property(m: Market) -> OptReport:
    """Does every buyer receive exactly b(t) items in every optimal allocation?

    Read off the structured dual of the market graph: its value pi . b is the
    optimum, and pi(t) = 0 exactly when some optimum leaves buyer t short.
    For the first such buyer in buyer order, the witness is an optimum of the
    market with t's demand lowered by one.
    """
    g = market_graph(m)
    pi = refine_covering(g).pi
    opt = pi.total_value(g)
    t = next((t for t in m.buyers if pi.pi[t] == 0), None)
    if t is None:
        return OptReport(opt, True, None)
    reduced = g.without([t]) if m.demand[t] == 1 else g.with_capacity(t, m.demand[t] - 1)
    edges, wit_value = matching.max_weight_bmatching(reduced)
    if wit_value != opt:
        raise InternalConsistencyError("zero buyer dual without a short optimum")
    return OptReport(opt, False, (t, {u: frozenset(s for s, v in edges if v == u)
                                      for u in m.buyers}))


def trim_items(m: Market) -> tuple[Market, BipartiteGraph, frozenset[ItemId],
                                   frozenset[matching.Edge]]:
    """Drop items unused by a minimum-cardinality maximum-welfare allocation.

    Returns the trimmed market, its graph, the removed items and the edges of
    that allocation, which the solve certifies optimal on m and so on the
    trimmed market, whose optima all use every remaining item.  The graph is
    `market_graph` of the trimmed market without a second build: m's graph,
    induced on the kept items when some item was removed.
    """
    g = market_graph(m)
    best, _ = matching.lexicographic_min_edge_optimum(g)
    used = {s for s, _ in best}
    removed = frozenset(s for s in m.items if s not in used)
    if removed:
        m, g = submarket(m, used, set(m.buyers)), g.induced(used, m.buyers)
    return m, g, removed, best


def restrict_market(m: Market, departed: BuyerId, sold: Iterable[ItemId]) -> Market:
    """The market after a buyer leaves with (possibly zero, at most its demand) sold items."""
    sold = frozen_ids(sold, "items")
    if departed not in m.buyers:
        raise ModelError(f"unknown buyer {departed!r}")
    unknown = sold - set(m.items)
    if unknown:
        raise ModelError(f"unknown items {sorted(unknown)!r}")
    if len(sold) > m.demand[departed]:
        raise ModelError(f"bundle of {departed} exceeds demand")
    return submarket(m, set(m.items) - sold, set(m.buyers) - {departed})
