"""Market data model, welfare accounting, the saturation property check and
item trimming.

Markets are complete bipartite: every (buyer, item) pair carries a value, with
zero-valued pairs being real edges.  All values are exact rationals, and
nothing in the engine rounds.  A market holds them once, as integers: each
value times the values' least common denominator D, item by item, then buyer
by buyer, the order of the market graph's edges, which `market_graph` takes
as they are.  `Market.from_columns` makes them from one column of values per
buyer and holds every check of ids, demands and values; `Market.build` hands
it a (buyer, item) mapping's columns.  `submarket` slices the kept rows and
columns and divides out their common factor with D, so a residual market is
over its own least common denominator, as a fresh build would be.
`Market.value` reads them back as Fractions, one per lookup.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import matching
from .dual import refine_covering
from .errors import InternalConsistencyError, ModelError
from .matching import BipartiteGraph, BuyerId, EdgeTable, ItemId, frozen_ids, id_tuple


class _Values(Mapping):
    """A market's values v_t(s), read-only, keyed (buyer, item) buyer by buyer: one
    Fraction made from the integer weights per lookup."""

    def __init__(self, m: "Market"):
        self._weight, self._denominator = m.weight, m.denominator
        self._row = {s: k * len(m.buyers) for k, s in enumerate(m.items)}
        self._column = {t: k for k, t in enumerate(m.buyers)}

    def __getitem__(self, key) -> Fraction:
        try:        # a key that is not a pair, holds an unknown id or is unhashable
            t, s = key if isinstance(key, tuple) else ()
            k = self._row[s] + self._column[t]
        except (ValueError, KeyError, TypeError):
            raise KeyError(key) from None
        return Fraction(self._weight[k], self._denominator)

    def __iter__(self) -> Iterator[tuple[BuyerId, ItemId]]:
        return ((t, s) for t in self._column for s in self._row)

    def __len__(self) -> int:
        return len(self._weight)


@dataclass(frozen=True)
class Market:
    """Items, buyers, per-buyer demands b(t) and per-pair values v_t(s), held as
    `weight`: v_t(s) * `denominator` for each pair, item by item, then buyer by buyer,
    over the values' least common denominator."""

    items: tuple[ItemId, ...]
    buyers: tuple[BuyerId, ...]
    demand: Mapping[BuyerId, int]
    weight: tuple[int, ...]
    denominator: int

    @staticmethod
    def from_columns(items: Iterable[ItemId], buyers: Iterable[BuyerId],
                     demand: Mapping[BuyerId, int], columns: Iterable[Sequence]) -> "Market":
        """The market whose k-th buyer's values, ints or Fractions, item by item, are columns[k]."""
        items, buyers = id_tuple(items, "items"), id_tuple(buyers, "buyers")
        if len(set(items)) != len(items) or len(set(buyers)) != len(buyers):
            raise ModelError("duplicate ids")
        if set(items) & set(buyers):
            raise ModelError("item and buyer ids must be distinct")
        if not isinstance(demand, Mapping):
            raise ModelError("demands must be a mapping")
        for t in buyers:
            if t not in demand or type(demand[t]) is not int or demand[t] < 1:
                raise ModelError(f"buyer {t} needs an int demand >= 1")
        if (not isinstance(columns, Iterable) or len(columns := list(columns)) != len(buyers)
                or any(not isinstance(c, Sequence) or len(c) != len(items) for c in columns)):
            raise ModelError("values must be one column per buyer, one value per item")
        weight, d = matching.integer_weights([x for r in zip(*columns) for x in r], "values")
        if min(weight, default=0) < 0:
            raise ModelError("values must be non-negative")
        return Market(items, buyers, {t: demand[t] for t in buyers}, weight, d)

    @staticmethod
    def build(items: Iterable[ItemId], buyers: Iterable[BuyerId],
              demand: Mapping[BuyerId, int],
              value: Mapping[tuple[BuyerId, ItemId], Fraction | int]) -> "Market":
        """`from_columns` of a (buyer, item) -> value mapping; keys of unknown ids are refused."""
        items, buyers = id_tuple(items, "items"), id_tuple(buyers, "buyers")
        if not isinstance(value, Mapping):      # `from_columns` refuses other demands
            raise ModelError("values must be a mapping")

        def columns():      # read by `from_columns` once the ids and demands pass
            try:
                yield from ([value[(t, s)] for s in items] for t in buyers)
            except KeyError as exc:
                raise ModelError(f"missing value for (buyer, item) {exc}") from None
            if len(demand) + len(value) != len(buyers) * (1 + len(items)):
                extra = [*set(demand).difference(buyers),
                         *set(value).difference((t, s) for t in buyers for s in items)]
                raise ModelError(f"demands or values for unknown ids: {sorted(extra, key=repr)!r}")
        return Market.from_columns(items, buyers, demand, columns())

    @cached_property
    def value(self) -> Mapping[tuple[BuyerId, ItemId], Fraction]:
        """v_t(s) for each (buyer, item), buyer by buyer, read-only: a view of the weights."""
        return _Values(self)

    def column(self, t: BuyerId) -> tuple[int, ...]:
        """Buyer t's values times the denominator, item by item."""
        try:
            k = self.buyers.index(t)
        except ValueError:
            raise ModelError(f"unknown buyer {t!r}") from None
        return self.weight[k::len(self.buyers)]


@dataclass(frozen=True)
class OptReport:
    opt_welfare: Fraction
    opt_property_holds: bool
    witness: tuple[BuyerId, Mapping[BuyerId, frozenset[ItemId]]] | None = None


def submarket(m: Market, items: Set[ItemId], buyers: Set[BuyerId]) -> Market:
    """The market on the given items and buyers, kept in m's order: m's weights on the
    kept rows and columns, over their own least common denominator."""
    n, w = len(m.buyers), m.weight
    rows = [k for k, s in enumerate(m.items) if s in items]
    columns = [k for k, t in enumerate(m.buyers) if t in buyers]
    bys = tuple(m.buyers[k] for k in columns)
    weight = [w[r * n + k] for r in rows for k in columns]
    return Market(tuple(m.items[k] for k in rows), bys, {t: m.demand[t] for t in bys},
                  *matching.lowest_terms(weight, m.denominator))


def market_graph(m: Market) -> BipartiteGraph:
    """The complete edge-weighted bipartite graph of the market.

    Constructed directly, not by `BipartiteGraph.build`: `Market.build`, whose
    checks `submarket` keeps, has already proved the ids, demands and values
    that `build` would check again, and the market's pairs, item by item, then
    buyer by buyer, are the canonical edge order.  The market's integer weights
    and denominator are the edge table's, as they are.  Anything but a Market is
    a ModelError, so `check_opt_property` and `trim_items` refuse it too.
    """
    if not isinstance(m, Market):
        raise ModelError("the market must be a Market")
    n = len(m.items)
    capacity = {**dict.fromkeys(m.items, 1), **m.demand}
    ends = tuple([(a, b) for a in range(n) for b in range(n, n + len(m.buyers))])
    return BipartiteGraph(m.items, m.buyers, tuple([(s, t) for s in m.items for t in m.buyers]),
                          capacity, EdgeTable(ends, m.weight, m.denominator))


def welfare(m: Market, bundles: Mapping[BuyerId, Iterable[ItemId]]) -> Fraction:
    """Total value of an allocation {buyer: bundle}: disjoint bundles of m's items,
    each within its buyer's demand, with no item listed twice."""
    if not isinstance(bundles, Mapping):
        raise ModelError("an allocation must map buyers to bundles")
    seen: set[ItemId] = set()
    total = Fraction(0)
    for t, items in bundles.items():
        bundle = id_tuple(items, "items")
        if t not in m.demand:
            raise ModelError(f"allocation references unknown buyer {t!r}")
        for s in bundle:
            if (t, s) not in m.value:
                raise ModelError(f"allocation references unknown item {s!r}")
            if s in seen:
                raise ModelError(f"item {s} allocated twice")
            seen.add(s)
            total += m.value[(t, s)]
        if len(bundle) > m.demand[t]:
            raise ModelError(f"bundle of {t} exceeds demand")
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
    `market_graph` of the trimmed market, not made again: m's graph, induced
    on the kept items when some item was removed, and the trimmed market
    takes that graph's table's weights.

    The tie rule, at every demand: when fewest-edge optima use different item
    sets, trim keeps the earliest by item position, the least sorted positions.
    Those sets are the bases of a matroid, so the earliest is also the one of
    greatest total weight under any item weights that fall with position, and
    the solve finds it as such (`matching.lexicographic_min_edge_optimum`); it
    is a function of the market, not of the solver's search order.  For t1 of
    demand 2 valuing s1..s4 at 1, 1, 0, 2 and t2 of demand 1 at 0, 0, 1, 2, the
    sets are {s1, s2, s4}, {s1, s3, s4} and {s2, s3, s4}, and trim keeps
    {s1, s2, s4}.  m is left as it was.
    """
    g = market_graph(m)
    best, _ = matching.lexicographic_min_edge_optimum(g)
    used = {s for s, _ in best}
    removed = frozenset(s for s in m.items if s not in used)
    if removed:
        g = g.induced(used, m.buyers)
        m = Market(g.items, m.buyers, m.demand, g.table.weight, g.table.denominator)
    return m, g, removed, best


def restrict_market(m: Market, departed: BuyerId, sold: Iterable[ItemId]) -> Market:
    """The market after a buyer leaves with (possibly zero, at most its demand) sold items,
    a new market; m is left as it was."""
    sold = frozen_ids(sold, "items")
    if departed not in m.buyers:
        raise ModelError(f"unknown buyer {departed!r}")
    unknown = sold - set(m.items)
    if unknown:
        raise ModelError(f"unknown items {sorted(unknown, key=repr)!r}")
    if len(sold) > m.demand[departed]:
        raise ModelError(f"bundle of {departed} exceeds demand")
    return submarket(m, set(m.items) - sold, set(m.buyers) - {departed})
