"""Buyer behavior, dynamic-run drivers with adversarial tie exploration, and
the brute-force oracles.

The oracle is an exhaustive dynamic program over items with per-buyer residual
capacities; it is independent of the matching solver and of LP duality, and
backs every derived expected value in the test suite.  `oracle_structure`
reads both structured-dual facts off one DP pass.

`best_bundles` compares margins as ints, from the market's integer values of
the buyer and the prices over one common denominator, and builds the best
bundles from the margin order: the items above the cut (the b(t)-th largest
positive margin, or 0) are fixed, and only the items at the cut are
enumerated.  It counts the bundles before listing them and refuses more than
`BUNDLE_CAP`, however many items have a non-negative margin.

`infer_mode` on the root market picks each run's pricing path, kept to the end
even when only demand-one buyers remain.  An ordering strategy maps a round's
tight graph to an ordering; a unit run refuses one before its first round, as
unit prices have no ordering.  `run_exhaustive` explores every
arrival order and, at each step, every utility-maximizing bundle.  A state is
the residual market left by the buyers gone so far: its remaining buyers and
items.  Prices depend only on the residual market, so states are memoized,
with their first least-welfare move, on (remaining buyers, remaining items);
the run count still reflects all distinct order/tie-break combinations.

With the default orderings a round is a function of its positional market
(pricing's notes), and so, by induction, are a state's least and greatest
welfare and its run count.  So a state whose residual market equals an
earlier one's in demands by buyer position, integer weights and denominator
takes the earlier entry without a round.  Both markets' weights are the
root's divided by one factor, the root's denominator over theirs, so the
entry's welfare, in root units, holds for both.  The budget counts the
distinct markets priced.  A caller's strategy sees ids and may read them, so
under one no state is shared.  A shared entry's move names its first state's
ids.  It is never read: only a strategy's run below the optimum is replayed,
as under the default orderings such a run is an InternalConsistencyError.

Its welfare sums run in the DP oracle's integer units, the root market's
integer values over its denominator, and only the verdict's optimum is a
Fraction.  A counterexample replays the memoized moves from the root through
`run_once`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterable, Optional, Sequence

from .errors import (ContractViolationError, InternalConsistencyError, ModelError,
                     OracleCapError, UnsupportedMarketError)
from .matching import BipartiteGraph, BuyerId, Covering, ItemId, frozen_ids
from .model import Market, restrict_market, submarket
from .pricing import (OrderingStrategy, PriceVector, RoundPricing, dispatch_ordering,
                      infer_mode, multi_round, prohibitive_price, unit_round)

ORACLE_ITEM_CAP = 12
BUNDLE_CAP = 2 ** 22        # most best bundles listed for one buyer: every subset of 22 items
ORACLE_OPTIMA_CAP = 500000
STATE_BUDGET = 200000      # rounds `run_exhaustive` prices by default


# ---------------------------------------------------------------------------
# Brute-force oracle


class _Oracle:
    """Exhaustive welfare DP over item-to-buyer assignments, on the market's
    integers: w[i][j] is item i's value to buyer j times D, the market's denominator."""

    def __init__(self, m: Market):
        if len(m.items) > ORACLE_ITEM_CAP:
            raise OracleCapError(f"oracle limited to {ORACLE_ITEM_CAP} items")
        self.items = m.items
        self.buyers = m.buyers
        self.start = tuple(m.demand[t] for t in m.buyers)
        self.denom = m.denominator
        n = len(m.buyers)
        self.w = [m.weight[i * n:(i + 1) * n] for i in range(len(m.items))]
        self._memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best_from(self, i: int, caps: tuple[int, ...]) -> int:
        if i == len(self.items):
            return 0
        key = (i, caps)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        best = self.best_from(i + 1, caps)  # leave item i unallocated
        for j, wj in enumerate(self.w[i]):
            if caps[j] > 0:
                nxt = caps[:j] + (caps[j] - 1,) + caps[j + 1:]
                cand = wj + self.best_from(i + 1, nxt)
                if cand > best:
                    best = cand
        self._memo[key] = best
        return best

    def opt(self) -> Fraction:
        return Fraction(self.best_from(0, self.start), self.denom)

    def enumerate_optima(self) -> list[dict[BuyerId, frozenset[ItemId]]]:
        opt = self.best_from(0, self.start)
        out: list[dict[BuyerId, frozenset[ItemId]]] = []
        assign: dict[BuyerId, set[ItemId]] = {t: set() for t in self.buyers}

        def walk(i: int, caps: tuple[int, ...], acc: int) -> None:
            if len(out) >= ORACLE_OPTIMA_CAP:
                raise OracleCapError("too many optimal allocations to enumerate")
            if i == len(self.items):
                out.append({t: frozenset(v) for t, v in assign.items()})
                return
            s = self.items[i]
            if acc + self.best_from(i + 1, caps) == opt:
                walk(i + 1, caps, acc)
            for j, t in enumerate(self.buyers):
                if caps[j] > 0:
                    nxt = caps[:j] + (caps[j] - 1,) + caps[j + 1:]
                    v2 = acc + self.w[i][j]
                    if v2 + self.best_from(i + 1, nxt) == opt:
                        assign[t].add(s)
                        walk(i + 1, nxt, v2)
                        assign[t].remove(s)

        walk(0, self.start, 0)
        return out


def oracle_opt_value(m: Market) -> Fraction:
    return _Oracle(m).opt()


def oracle_opt(m: Market) -> tuple[Fraction, tuple[dict[BuyerId, frozenset[ItemId]], ...]]:
    """Exhaustive optimum welfare and every optimal allocation, as {buyer: bundle}."""
    oracle = _Oracle(m)
    return oracle.opt(), tuple(oracle.enumerate_optima())


def oracle_structure(m: Market) -> tuple[frozenset[tuple[ItemId, BuyerId]],
                                          frozenset[BuyerId], frozenset[ItemId]]:
    """The (item, buyer) edges some optimum uses, the buyers some optimum
    leaves short and the items some optimum leaves unused.  The forward pass
    keeps the capacity vectors on optimal paths; a move from one is optimal
    when its value plus the best completion after it is the best before it."""
    oracle = _Oracle(m)
    opt = oracle.best_from(0, oracle.start)
    legal: set[tuple[ItemId, BuyerId]] = set()
    unused: set[ItemId] = set()
    layer = {oracle.start}
    for i, s in enumerate(m.items):
        nxt: set[tuple[int, ...]] = set()
        for caps in layer:
            rest = oracle.best_from(i, caps)
            if oracle.best_from(i + 1, caps) == rest:
                unused.add(s)
                nxt.add(caps)
            for j, t in enumerate(m.buyers):
                if caps[j] > 0:
                    after = caps[:j] + (caps[j] - 1,) + caps[j + 1:]
                    if oracle.w[i][j] + oracle.best_from(i + 1, after) == rest:
                        legal.add((s, t))
                        nxt.add(after)
        layer = nxt
    start = oracle.start
    short = frozenset(t for j, t in enumerate(m.buyers)
                      if oracle.best_from(0, start[:j] + (start[j] - 1,) + start[j + 1:]) == opt)
    return frozenset(legal), short, frozenset(unused)


def oracle_feasible(m: Market, t: BuyerId, F: Iterable[ItemId]) -> bool:
    """Does some optimal allocation give t exactly the bundle F?"""
    F = frozen_ids(F, "items")
    if t in m.buyers and len(F) > m.demand[t] and F <= set(m.items):
        return False
    rest = restrict_market(m, t, F)     # ModelError on unknown ids
    bundle_value = sum((m.value[(t, s)] for s in F), Fraction(0))
    return bundle_value + oracle_opt_value(rest) == oracle_opt_value(m)


# ---------------------------------------------------------------------------
# Buyer behavior


def best_bundles(m: Market, t: BuyerId, p: PriceVector) -> list[frozenset[ItemId]]:
    """All utility-maximizing bundles of size at most b(t), in canonical order:
    by size, then by the items' index tuple in `m.items`.

    Margins are compared as ints: the market's integer values of the buyer
    (`Market.column`) and the prices, both scaled to the lcm of the market's
    denominator and the prices'.  The cut is the b(t)-th largest positive
    margin, or 0 when fewer than b(t) margins are positive.  Every best bundle
    holds the items above the cut and fills its other slots from the items at
    it: all of them when the cut is positive, any few enough zero-margin items
    otherwise, so the empty bundle appears whenever zero utility is maximal.
    The bundles are counted before any is listed, and more than `BUNDLE_CAP`
    is refused.
    """
    if not isinstance(p, PriceVector):
        raise ModelError("prices must be a PriceVector")
    if not isinstance(p.price, Mapping):
        raise ModelError("prices must map items to prices")
    try:
        b = m.demand[t]
    except (KeyError, TypeError):           # unknown, or unhashable
        raise ModelError(f"unknown buyer {t!r}") from None
    missing = [s for s in m.items if s not in p.price]
    if missing:
        raise ModelError(f"no price for items {missing!r}")
    prices = [p.price[s] for s in m.items]
    if any(type(x) not in (Fraction, int) for x in prices):
        raise ModelError("prices must be ints or Fractions")
    d = math.lcm(m.denominator, *(x.denominator for x in prices))
    scale = d // m.denominator
    margin = [v * scale - x.numerator * (d // x.denominator)
              for v, x in zip(m.column(t), prices)]
    positive = sorted((x for x in margin if x > 0), reverse=True)
    cut = positive[b - 1] if len(positive) >= b else 0
    fixed = [i for i, x in enumerate(margin) if x > cut]
    tied = [i for i, x in enumerate(margin) if x == cut]
    sizes = [b - len(fixed)] if cut > 0 else range(min(b - len(fixed), len(tied)) + 1)
    if sum(math.comb(len(tied), k) for k in sizes) > BUNDLE_CAP:
        raise ContractViolationError("bundle enumeration beyond desk scale")
    # Every bundle holds the same fixed items, so `combinations` over index
    # order already yields the bundles in canonical order.
    fills = chain.from_iterable(combinations(tied, k) for k in sizes)
    return [frozenset(m.items[i] for i in (*fixed, *fill)) for fill in fills]


# ---------------------------------------------------------------------------
# Dynamic runs


@dataclass(frozen=True)
class Step:
    buyer: BuyerId
    prices: PriceVector
    bundle: frozenset[ItemId]
    paid: Fraction
    trimmed_away: frozenset[ItemId]


@dataclass(frozen=True)
class RunTrace:
    steps: tuple[Step, ...]
    final_welfare: Fraction
    leftover_items: frozenset[ItemId]


@dataclass(frozen=True)
class Verdict:
    runs_checked: int
    all_optimal: bool
    counterexample: Optional[RunTrace]
    complete: bool
    optimum: Fraction


Move = tuple[BuyerId, frozenset[ItemId]]  # buyer, bundle
TieBreak = Callable[[BuyerId, Sequence[frozenset[ItemId]], int], frozenset[ItemId]]


def _prohibitive_round(m: Market) -> RoundPricing:
    """Everything priced out of reach; used only when a sabotaged run breaks
    the saturation property mid-run and still has to finish."""
    price = {s: prohibitive_price(m, s) for s in m.items}
    zeros = Covering({v: Fraction(0) for v in m.items + m.buyers})
    return RoundPricing(PriceVector(price, Fraction(0)), zeros, None, m,
                        frozenset(m.items))


def _run_mode(m: Market, ordering_strategy: Optional[OrderingStrategy]) -> str:
    """The run's pricing path; unit prices have no ordering, so no strategy."""
    mode = infer_mode(m)
    if mode == "unit" and ordering_strategy is not None:
        raise ModelError("a unit-demand market takes no ordering strategy")
    return mode


def _price_round(m: Market, mode: str,
                 ordering_strategy: Optional[OrderingStrategy],
                 is_root: bool = True) -> RoundPricing:
    try:
        if mode == "unit":
            return unit_round(m)
        return multi_round(m, ordering_strategy)
    except UnsupportedMarketError as exc:
        if is_root:
            raise
        if ordering_strategy is None:
            raise InternalConsistencyError(
                "residual market lost the saturation property mid-run") from exc
        return _prohibitive_round(m)


def run_once(m: Market, order: Iterable[BuyerId], tiebreak: Optional[TieBreak] = None,
             ordering_strategy: Optional[OrderingStrategy] = None) -> RunTrace:
    """One dynamic run: price, let the arriving buyer pick, shrink the market."""
    try:
        order = tuple(order)                # read an iterator once
        permutation = len(order) == len(m.buyers) and set(order) == set(m.buyers)
    except TypeError:                       # not iterable, or an unhashable entry
        permutation = False
    if not permutation:
        raise ModelError("order must be a permutation of the buyers")
    if tiebreak is not None and not callable(tiebreak):
        raise ModelError("the tiebreak must be callable")
    mode = _run_mode(m, ordering_strategy)
    residual = m
    steps: list[Step] = []
    welfare_total = Fraction(0)
    for k, t in enumerate(order):
        rp = _price_round(residual, mode, ordering_strategy, is_root=(k == 0))
        bundles = best_bundles(residual, t, rp.prices)
        if mode == "multi" and len(bundles) != 1:
            raise InternalConsistencyError("multi-demand prices must pin a unique bundle")
        choice = bundles[0] if tiebreak is None else tiebreak(t, bundles, len(steps))
        if choice not in bundles:
            raise ModelError("tiebreak selected a non-maximizing bundle")
        paid = sum((rp.prices.price[s] for s in choice), Fraction(0))
        welfare_total += sum((residual.value[(t, s)] for s in choice), Fraction(0))
        steps.append(Step(t, rp.prices, choice, paid, rp.removed))
        residual = restrict_market(residual, t, choice)
    return RunTrace(tuple(steps), welfare_total, frozenset(residual.items))


class _BudgetExceeded(Exception):
    pass


def _below_optimum(ordering_strategy: Optional[OrderingStrategy]) -> None:
    """Below the optimum with the certified default orderings, a run is a bug."""
    if ordering_strategy is None:
        raise InternalConsistencyError("a run with the default orderings ended below the optimum")


def run_exhaustive(m: Market, budget: int = STATE_BUDGET,
                   ordering_strategy: Optional[OrderingStrategy] = None) -> Verdict:
    """DFS over every arrival order and every tie-break; verdict against the oracle.

    A state is the remaining buyers and items.  `budget` bounds the rounds
    priced: one per distinct state, or, with the default orderings, one per
    distinct residual market up to renaming, as states whose markets match in
    demands, weights and denominator by position share one subtree (module
    notes).  A strategy may read ids, so with one no state is shared.
    Exceeding the budget yields an explicit partial verdict (complete=False,
    no counterexample trace) rather than silent truncation.  Only an explicit
    `ordering_strategy` can make a counterexample (`_below_optimum`).
    """
    if type(budget) is not int or budget < 0:
        raise ModelError("budget must be a non-negative int")
    mode = _run_mode(m, ordering_strategy)
    # Welfare runs on the market's integers: values times its denominator.  The optimum
    # comes through `oracle_opt_value`, so that a traced run times the oracle's DP there.
    opt_value = oracle_opt_value(m)
    opt = int(opt_value * m.denominator)
    value = dict(zip(((t, s) for s in m.items for t in m.buyers), m.weight))
    # state -> (least welfare, greatest welfare, run count, first least move)
    memo: dict[tuple, tuple[int, int, int, Move]] = {}
    # positional market (demands, weights, denominator) -> the same; default orderings only
    twins: dict[tuple, tuple[int, int, int, Move]] = {}
    share = ordering_strategy is None
    expansions = 0
    runs_walked = 0
    violation_seen = False

    def explore(items: frozenset[ItemId], buyers: frozenset[BuyerId], acc: int
                ) -> tuple[int, int, int, Optional[Move]]:
        nonlocal expansions, runs_walked, violation_seen
        if not buyers:
            runs_walked += 1
            if acc != opt:
                violation_seen = True
            return 0, 0, 1, None
        key = (buyers, items)
        hit = memo.get(key)
        if hit is None:
            residual = submarket(m, items, buyers)
            shape = (tuple(residual.demand[t] for t in residual.buyers),
                     residual.weight, residual.denominator)
            if share and shape in twins:
                hit = memo[key] = twins[shape]
        if hit is not None:
            if acc + hit[0] != opt:
                violation_seen = True
            return hit
        expansions += 1
        if expansions > budget:
            raise _BudgetExceeded
        rp = _price_round(residual, mode, ordering_strategy, is_root=len(buyers) == len(m.buyers))
        mn = mx = move = None
        count = 0
        for t in residual.buyers:
            bundles = best_bundles(residual, t, rp.prices)
            if mode == "multi" and len(bundles) != 1:
                raise InternalConsistencyError("multi-demand prices must pin a unique bundle")
            for bundle in bundles:
                gain = sum(value[(t, s)] for s in bundle)
                sub_mn, sub_mx, sub_n, _ = explore(items - bundle, buyers - {t}, acc + gain)
                lo, hi = gain + sub_mn, gain + sub_mx
                if mn is None or lo < mn:
                    mn, move = lo, (t, bundle)
                mx = hi if mx is None or hi > mx else mx
                count += sub_n
        memo[key] = (mn, mx, count, move)
        if share:
            # A twin's move names this state's ids, but it is never read: below the
            # optimum, a default run is an InternalConsistencyError, not a replay.
            twins[shape] = memo[key]
        return memo[key]

    try:
        mn, mx, count, _ = explore(frozenset(m.items), frozenset(m.buyers), 0)
    except _BudgetExceeded:
        # Partial verdict: runs_walked is a lower bound on verified runs.
        if violation_seen:
            _below_optimum(ordering_strategy)
        return Verdict(runs_walked, not violation_seen, None, False, opt_value)
    if mx > opt:
        raise InternalConsistencyError("a run exceeded the oracle optimum")
    if mn == opt:
        return Verdict(count, True, None, True, opt_value)
    _below_optimum(ordering_strategy)
    items, buyers = frozenset(m.items), frozenset(m.buyers)
    order, picks = [], []
    while buyers:       # each state's first least-welfare move, from the root
        t, bundle = memo[(buyers, items)][3]
        order.append(t)
        picks.append(bundle)
        items, buyers = items - bundle, buyers - {t}
    trace = run_once(m, order, lambda t, bundles, k: picks[k], ordering_strategy)
    return Verdict(count, False, trace, True, opt_value)


def reversed_ordering_strategy(gpi: BipartiteGraph) -> tuple[ItemId, ...]:
    """Negative control: the standard adequate ordering, reversed."""
    return dispatch_ordering(gpi)[::-1]


def run_sampled(m: Market, n_orders: int, seed: int,
                ordering_strategy: Optional[OrderingStrategy] = None) -> Verdict:
    """Seeded random arrival orders and tie-breaks; complete is always False.
    A seed that is not an int (bool included) is a ModelError."""
    if type(n_orders) is not int or n_orders < 0:
        raise ModelError("n_orders must be a non-negative int")
    if type(seed) is not int:
        raise ModelError("seed must be an int")
    _run_mode(m, ordering_strategy)
    opt_value = oracle_opt_value(m)
    rng = random.Random(seed)
    counterexample = None
    for _ in range(n_orders):
        order = list(m.buyers)
        rng.shuffle(order)
        trace = run_once(m, order, tiebreak=lambda t, bs, i: rng.choice(bs),
                         ordering_strategy=ordering_strategy)
        if trace.final_welfare != opt_value and counterexample is None:
            _below_optimum(ordering_strategy)
            counterexample = trace
    return Verdict(n_orders, counterexample is None, counterexample, False, opt_value)
