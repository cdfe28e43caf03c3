"""Bundle feasibility, surplus minimization and dangerous-set discovery.

The surplus of a buyer set Y in the tight graph is |N(Y)| - b(Y); a set is
dangerous when its surplus is exactly one (|N(Y)| = 2|Y| + 1 in the pure
bi-demand case).

Surplus is minimized by augmenting b-matchings with `matching.augment`, the
package's one engine for cardinality b-matching.  Force some buyers into Y,
each free to take any number of its tight items, and some out.  A maximum
b-matching of the remaining buyers then holds b(remaining) plus the least
surplus (König), and the buyers reachable from spare capacity along
alternating paths (buyer -> tight item -> its owner) form the smallest
minimizer: the minimal min cut, which every maximum matching shares.  Every
search warm-starts from a copy of the graph's maximum b-matching (grown once
per graph) with the forced-out buyers' items released; with a b-factor, a
search then takes at most b(forced-out) augmentations.  `feasible_bundle`
starts from it too, with t holding exactly F and a dead end: at most b(t).
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional

from .errors import ContractViolationError, ModelError
from .matching import BipartiteGraph, BuyerId, ItemId, _known_buyers, augment, frozen_ids

DANGEROUS_SETS_BUYER_CAP = 16  # all_dangerous_sets enumerates 2^|T| buyer sets


def feasible_bundle(gpi: BipartiteGraph, t: BuyerId, F: Iterable[ItemId]) -> bool:
    """Whether bundle F can go to t in some b-factor: whether G - t - F has one."""
    F = frozen_ids(F, "items")
    if t not in gpi.buyers or any(s not in gpi.item_adj for s in F):
        raise ModelError("unknown buyer or item")
    if not F <= set(gpi.buyer_adj[t]) or len(F) != gpi.capacity[t]:
        raise ContractViolationError(
            f"bundle for {t} must be {gpi.capacity[t]} of its tight neighbors")
    if len(gpi.items) != gpi.buyer_capacity_total():
        return False
    base_owner = gpi.max_cardinality_bmatching[0]
    owner = {s: u for s, u in base_owner.items() if u != t and s not in F} | dict.fromkeys(F, t)
    load = dict.fromkeys(gpi.buyers, 0)
    for u in owner.values():
        load[u] += 1
    augment({**gpi.buyer_adj, t: ()}, gpi.capacity, owner, load)
    return sum(load.values()) == len(gpi.items)


def surplus(gpi: BipartiteGraph, Y: Iterable[BuyerId]) -> int:
    Y = _known_buyers(gpi, Y)
    return len(gpi.neighbors(Y)) - sum(gpi.capacity[t] for t in Y)


def is_dangerous(gpi: BipartiteGraph, Y: Iterable[BuyerId]) -> bool:
    Y = _known_buyers(gpi, Y)
    return bool(Y) and Y != frozenset(gpi.buyers) and surplus(gpi, Y) == 1


def _surplus_cut(gpi: BipartiteGraph, include: frozenset[BuyerId],
                 exclude: frozenset[BuyerId]) -> tuple[frozenset[BuyerId], int]:
    """(smallest Y of least surplus with include <= Y <= buyers - exclude, the surplus)."""
    base_owner, base_load, _ = gpi.max_cardinality_bmatching
    owner = {s: t for s, t in base_owner.items() if t not in exclude}
    load = {t: base_load[t] for t in gpi.buyers if t not in exclude}
    cap = {t: math.inf if t in include else gpi.capacity[t] for t in load}
    Y = augment(gpi.buyer_adj, cap, owner, load)
    return frozenset(Y), sum(load.values()) - sum(gpi.capacity[t] for t in load)


def min_surplus_set(gpi: BipartiteGraph, include: Iterable[BuyerId] = (),
                    exclude: Iterable[BuyerId] = ()) -> Optional[tuple[frozenset[BuyerId], int]]:
    """A nonempty proper buyer set minimizing |N(Y)| - b(Y) with include <= Y.

    Y avoids every buyer in `exclude`.  Returns None when the constraints
    leave no candidate.  Each search forces one more buyer in or out, in
    buyer order; with no constraints, t1 (the first buyer) in and each t
    out, then each t in and t1 out.  The answer is the smallest minimizer of
    the first search that attains the least value, as over the full
    |T|(|T|-1) grid of (in, out) pairs: if a minimizer has t1, the grid's
    first minimizing pair is in row t1, searched first and in full; if none
    has, the first row t attaining the minimum does so at (t, t1), and no
    earlier (t', t1) does.
    """
    include = _known_buyers(gpi, include)
    exclude = _known_buyers(gpi, exclude)
    if include & exclude:
        raise ModelError("include and exclude overlap")
    if include and exclude:
        pairs = [(include, exclude)]
    elif include:
        pairs = [(include, frozenset({t})) for t in gpi.buyers if t not in include]
    elif exclude:
        pairs = [(frozenset({t}), exclude) for t in gpi.buyers if t not in exclude]
    else:
        t1, rest = frozenset(gpi.buyers[:1]), [frozenset({t}) for t in gpi.buyers[1:]]
        pairs = [(t1, t) for t in rest] + [(t, t1) for t in rest]
    cuts = [_surplus_cut(gpi, inc, exc) for inc, exc in pairs]
    return min(cuts, key=itemgetter(1), default=None)  # the first on ties


def maximal_dangerous_set(gpi: BipartiteGraph) -> Optional[frozenset[BuyerId]]:
    """An inclusionwise maximal dangerous set, or None when min surplus >= 2.

    Precondition: no nonempty proper subset has surplus zero (Case-2 regime).
    """
    found = min_surplus_set(gpi)
    if found is None:
        return None
    Y, value = found
    if value <= 0:
        raise ContractViolationError("surplus-zero set exists; graph splits instead")
    if value >= 2:
        return None
    return grow_dangerous_set(gpi, Y)


def grow_dangerous_set(gpi: BipartiteGraph, Y: Iterable[BuyerId]) -> frozenset[BuyerId]:
    """An inclusionwise maximal dangerous set containing the dangerous set Y.

    Adds each buyer outside Y, in buyer order, whenever some dangerous set
    holds both; same precondition as `maximal_dangerous_set`.
    """
    Y = _known_buyers(gpi, Y)
    for t in gpi.buyers:
        if t in Y:
            continue
        probe = min_surplus_set(gpi, include=Y | {t})
        if probe is not None and probe[1] == 1:
            Y = probe[0]
    return Y


def minimal_dangerous_disjoint(gpi: BipartiteGraph, Z: Iterable[BuyerId]
                               ) -> Optional[frozenset[BuyerId]]:
    """An inclusionwise minimal dangerous set disjoint from Z, or None."""
    Z = _known_buyers(gpi, Z)
    if not is_dangerous(gpi, Z):
        raise ContractViolationError("Z must be dangerous")
    Y, value = min_surplus_set(gpi, exclude=Z)   # Z is proper: never None
    if value <= 0:
        raise ContractViolationError("surplus-zero set exists; graph splits instead")
    if value >= 2:
        return None
    # Every set avoiding Z has surplus >= 1: the first search to reach 1 is the least.
    buyers_all = frozenset(gpi.buyers)
    for t in gpi.buyers:
        if t not in Y or len(Y) == 1:
            continue
        sub, value = min_surplus_set(gpi, exclude=(buyers_all - Y) | Z | {t})
        if value == 1:
            Y = sub
    return Y


def legal_classes_3(gpi: BipartiteGraph) -> dict[frozenset[int], frozenset[ItemId]]:
    """Partition of items by which of the three buyers they are tight for.

    Keys are subsets of {1, 2, 3} (buyer positions in input order).
    """
    if len(gpi.buyers) != 3:
        raise ContractViolationError("exactly three buyers required")
    classes: dict[frozenset[int], set[ItemId]] = {
        frozenset(c): set()
        for k in range(4) for c in combinations((1, 2, 3), k)
    }
    member = {t: i + 1 for i, t in enumerate(gpi.buyers)}
    for s in gpi.items:
        key = frozenset(member[t] for t in gpi.item_adj[s])
        classes[key].add(s)
    return {k: frozenset(v) for k, v in classes.items()}


def all_dangerous_sets(gpi: BipartiteGraph) -> list[frozenset[BuyerId]]:
    """Every dangerous set, by direct enumeration (desk scale |T| only)."""
    if len(gpi.buyers) > DANGEROUS_SETS_BUYER_CAP:
        raise ContractViolationError(f"enumeration limited to {DANGEROUS_SETS_BUYER_CAP} buyers")
    out = []
    for k in range(1, len(gpi.buyers)):
        for combo in combinations(gpi.buyers, k):
            if surplus(gpi, combo) == 1:
                out.append(frozenset(combo))
    return out
