"""One round of posted prices from a structured covering and an adequate ordering.

Multi-demand prices are pi(s) + delta * sigma(s) with delta = slack/(|S|+1),
where sigma(s) is s's position, from 1, in the ordering: a tuple of the items,
first picked first.  Unit-demand prices are pi itself.  Both variants trim the
market first and price trimmed-away items prohibitively so no buyer ever takes
them.

One graph and one weighted solve per round, trim's: `trim_items` returns the
trimmed market's graph and its certified optimum, from which the structured
dual starts, and the tight graph is cut from that graph, holding that optimum
as its maximum b-matching.  A round is a function of its market's fields: it
reads nothing that an earlier round left and leaves nothing on the market, so
pricing a market twice, or a residual and a fresh copy of it, gives one round.
The ordering layer takes the tight graph alone: `ordering_method` reads its
buyers and capacities (the demands).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .dual import StructuredCovering, refine_covering, tight_subgraph
from .errors import (ContractViolationError, InternalConsistencyError, ModelError,
                     UnsupportedMarketError)
from .matching import BipartiteGraph, Covering, Edge, ItemId
from .model import Market, trim_items
from .orderings import (adequate_bidemand, adequate_three_buyers, checked_ordering,
                        verify_adequate)

OrderingStrategy = Callable[[BipartiteGraph], Sequence[ItemId]]


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
    sigma: Optional[tuple[ItemId, ...]]     # the ordering, first picked first; None in unit mode
    trimmed: Market
    removed: frozenset[ItemId]


def prohibitive_price(m: Market, s: ItemId) -> Fraction:
    """Strictly above every remaining buyer's value, so s never gets taken."""
    top = max((m.value[(t, s)] for t in m.buyers), default=Fraction(0))
    return top + 1


def infer_mode(m: Market) -> str:
    """The pricing mode: "unit" when every demand is one, else "multi"."""
    return "unit" if all(m.demand[t] == 1 for t in m.buyers) else "multi"


def ordering_method(gpi: BipartiteGraph) -> str:
    """The adequate-ordering construction that applies to a tight graph."""
    if len(gpi.buyers) <= 3:
        return "three-buyer"
    if all(gpi.capacity[t] <= 2 for t in gpi.buyers):
        return "bi-demand"
    raise UnsupportedMarketError(
        "no adequate-ordering construction for >3 buyers with demands above two")


def dispatch_ordering(gpi: BipartiteGraph, trace: Optional[list] = None) -> tuple[ItemId, ...]:
    """Adequate ordering by `ordering_method`, certified; `trace` collects bi-demand cases
    and, whichever construction runs, a trace that is no list is a ModelError."""
    if trace is not None and not isinstance(trace, list):
        raise ModelError("trace must be a list")
    three = ordering_method(gpi) == "three-buyer"
    sigma = adequate_three_buyers(gpi) if three else adequate_bidemand(gpi, trace)
    if not verify_adequate(gpi, sigma):
        raise InternalConsistencyError("constructed ordering is not adequate")
    return sigma


def _trim_and_refine(m: Market) -> tuple[Market, BipartiteGraph, frozenset[ItemId],
                                         frozenset[Edge], StructuredCovering]:
    """`trim_items`, then the structured dual from trim's certified optimum.  Refine
    refusing that optimum is an engine fault, so it is an InternalConsistencyError."""
    trimmed, g, removed, best = trim_items(m)
    try:
        sc = refine_covering(g, best)
    except ContractViolationError as exc:
        raise InternalConsistencyError(f"trimmed optimum refused: {exc}") from exc
    return trimmed, g, removed, best, sc


def unit_round(m: Market) -> RoundPricing:
    """Unit-demand round: prices are the structured dual restricted to items."""
    if any(m.demand[t] != 1 for t in m.buyers):
        raise ContractViolationError("unit pricing requires all demands equal to one")
    trimmed, _, removed, _, sc = _trim_and_refine(m)
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
    trimmed, g, removed, best, sc = _trim_and_refine(m)
    # Trim's optimum uses every kept item, so |S| <= b(T), and a buyer that it
    # leaves short has pi(t) = 0: this one test also refuses |S| != b(T).
    if 0 in sc.q[len(trimmed.items):]:
        raise UnsupportedMarketError(
            "saturation property fails: optimum leaves a buyer short of b(t) items")
    if 0 in sc.q[:len(trimmed.items)]:
        raise InternalConsistencyError("trimmed item with zero dual")
    # Saturated, trim's optimum is a b-factor of the tight graph: its b-matching.
    return TightMarket(trimmed, removed, sc, tight_subgraph(sc, g)._hold(dict(best)))


def multi_round(m: Market, ordering_strategy: Optional[OrderingStrategy] = None
                ) -> RoundPricing:
    """Multi-demand round; refuses markets where some buyer can be left short."""
    if ordering_strategy is not None and not callable(ordering_strategy):
        raise ModelError("the ordering strategy must be callable")
    tm = tight_market(m)
    trimmed, removed, sc = tm.trimmed, tm.removed, tm.sc
    if not trimmed.items:
        price = {s: prohibitive_price(m, s) for s in removed}
        return RoundPricing(PriceVector(price, Fraction(0)), sc.pi, (), trimmed, removed)
    sigma = (dispatch_ordering(tm.gpi) if ordering_strategy is None
             else checked_ordering(ordering_strategy(tm.gpi), trimmed.items))
    if sc.slack is None:
        raise InternalConsistencyError("finite slack expected under saturation")
    # pi(s) + delta * rank(s), with pi = q / unit and delta = slack / n
    n, least = len(trimmed.items) + 1, int(sc.slack * sc.unit)
    rank = {s: k for k, s in enumerate(sigma, 1)}
    price = {s: Fraction(x * n + least * rank[s], sc.unit * n)
             for s, x in zip(trimmed.items, sc.q)}
    price.update({s: prohibitive_price(m, s) for s in removed})
    return RoundPricing(PriceVector(price, sc.slack / n), sc.pi, sigma, trimmed, removed)
