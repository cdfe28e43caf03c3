"""One round of posted prices from a structured covering and an adequate ordering.

Multi-demand prices are pi(s) + delta * sigma(s) with delta = slack/(|S|+1);
unit-demand prices are pi itself.  Both variants trim the market first and
price trimmed-away items prohibitively so no buyer ever takes them.

One graph and one weighted solve per round: `trim_items` returns the trimmed
market's graph and its certified optimum, from which the structured dual
starts, and the tight graph is cut from that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .dual import StructuredCovering, refine_covering, tight_subgraph
from .errors import (ContractViolationError, InternalConsistencyError, ModelError,
                     UnsupportedMarketError)
from .matching import BipartiteGraph, Covering, ItemId
from .model import Market, trim_items
from .orderings import Ordering, adequate_bidemand, adequate_three_buyers, verify_adequate

OrderingStrategy = Callable[[Market, BipartiteGraph, StructuredCovering], Ordering]


@dataclass(frozen=True)
class PriceVector:
    """Posted price per item; delta is the ordering increment (0 for unit mode)."""

    price: Mapping[ItemId, Fraction]
    delta: Fraction


@dataclass(frozen=True)
class RoundPricing:
    """Full pricing context for one round (CLI and simulation consume this)."""

    prices: PriceVector
    pi: Covering
    sigma: Optional[Ordering]
    trimmed: Market
    removed: frozenset[ItemId]


def prohibitive_price(m: Market, s: ItemId) -> Fraction:
    """Strictly above every remaining buyer's value, so s never gets taken."""
    top = max((m.value[(t, s)] for t in m.buyers), default=Fraction(0))
    return top + 1


def infer_mode(m: Market) -> str:
    """The pricing mode: "unit" when every demand is one, else "multi"."""
    return "unit" if all(m.demand[t] == 1 for t in m.buyers) else "multi"


def ordering_method(trimmed: Market) -> str:
    """The adequate-ordering construction that applies to a trimmed market."""
    if len(trimmed.buyers) <= 3:
        return "three-buyer"
    if all(trimmed.demand[t] <= 2 for t in trimmed.buyers):
        return "bi-demand"
    raise UnsupportedMarketError(
        "no adequate-ordering construction for >3 buyers with demands above two")


def dispatch_ordering(trimmed: Market, gpi: BipartiteGraph, sc: StructuredCovering,
                      trace: Optional[list] = None) -> Ordering:
    """Adequate ordering by `ordering_method`, certified; `trace` collects bi-demand cases."""
    three = ordering_method(trimmed) == "three-buyer"
    sigma = adequate_three_buyers(gpi) if three else adequate_bidemand(gpi, trace)
    if not verify_adequate(gpi, sigma):
        raise InternalConsistencyError("constructed ordering is not adequate")
    return sigma


def _trim_and_refine(m: Market
                     ) -> tuple[Market, BipartiteGraph, frozenset[ItemId], StructuredCovering]:
    """`trim_items`, then the structured dual from trim's certified optimum.  Refine
    refusing that optimum is an engine fault, so it is an InternalConsistencyError."""
    trimmed, g, removed, best = trim_items(m)
    try:
        sc = refine_covering(g, best)
    except ContractViolationError as exc:
        raise InternalConsistencyError(f"trimmed optimum refused: {exc}") from exc
    return trimmed, g, removed, sc


def unit_round(m: Market) -> RoundPricing:
    """Unit-demand round: prices are the structured dual restricted to items."""
    if any(m.demand[t] != 1 for t in m.buyers):
        raise ContractViolationError("unit pricing requires all demands equal to one")
    trimmed, _, removed, sc = _trim_and_refine(m)
    price = {s: sc.pi.pi[s] for s in trimmed.items}
    price.update({s: prohibitive_price(m, s) for s in removed})
    return RoundPricing(PriceVector(price, Fraction(0)), sc.pi, None, trimmed, removed)


@dataclass(frozen=True)
class TightMarket:
    """A trimmed market that meets the multi-demand preconditions, with its
    structured covering and tight graph (both empty when no item is left)."""

    trimmed: Market
    removed: frozenset[ItemId]
    sc: StructuredCovering
    gpi: BipartiteGraph


def tight_market(m: Market) -> TightMarket:
    """Trim m, check the saturation property and build the tight graph.

    Multi-demand pricing, `dynprice order` and `dynprice verify` all start
    here, so they accept and refuse the same markets.
    """
    trimmed, g, removed, sc = _trim_and_refine(m)
    # Trim's optimum uses every kept item, so |S| <= b(T), and a buyer that it
    # leaves short has pi(t) = 0: this one test also refuses |S| != b(T).
    for t in trimmed.buyers:
        if sc.pi.pi[t] == 0:
            raise UnsupportedMarketError(
                "saturation property fails: optimum leaves a buyer short of b(t) items")
    for s in trimmed.items:
        if sc.pi.pi[s] == 0:
            raise InternalConsistencyError("trimmed item with zero dual")
    return TightMarket(trimmed, removed, sc, tight_subgraph(sc, g))


def multi_round(m: Market, ordering_strategy: Optional[OrderingStrategy] = None
                ) -> RoundPricing:
    """Multi-demand round; refuses markets where some buyer can be left short."""
    tm = tight_market(m)
    trimmed, removed, sc = tm.trimmed, tm.removed, tm.sc
    if not trimmed.items:
        price = {s: prohibitive_price(m, s) for s in removed}
        return RoundPricing(PriceVector(price, Fraction(0)), sc.pi,
                            Ordering.from_sequence(()), trimmed, removed)
    strategy = ordering_strategy or dispatch_ordering
    sigma = strategy(trimmed, tm.gpi, sc)
    if sigma.rank.keys() != set(trimmed.items):
        raise ModelError("the ordering must rank exactly the trimmed items")
    if sc.slack is None:
        raise InternalConsistencyError("finite slack expected under saturation")
    delta = sc.slack / (len(trimmed.items) + 1)
    price = {s: sc.pi.pi[s] + delta * sigma.rank[s] for s in trimmed.items}
    price.update({s: prohibitive_price(m, s) for s in removed})
    return RoundPricing(PriceVector(price, delta), sc.pi, sigma, trimmed, removed)
