"""Correctness gate, applied after the timed region.

The reference optimum never touches dynprice's solver: it is the maximum
weight matching that networkx's blossom algorithm finds on the buyer-copy
expansion, with weights scaled to integers so the blossom arithmetic stays
exact.  Markets of up to 12 items are also solved by the DP oracle in
`simulation`, and the two must agree.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx

from dynprice import dual, model, orderings, simulation

from workloads import Outcome


class ReferenceMismatch(AssertionError):
    """The two references disagree, so one of them (or the DP oracle) is wrong."""


def reference_optimum(m: model.Market) -> Fraction:
    """Maximum welfare of `m`, computed without dynprice's Hungarian solver."""
    denom = math.lcm(1, *(v.denominator for v in m.value.values()))
    g = nx.Graph()
    for t in m.buyers:
        for copy in range(m.demand[t]):
            for s in m.items:
                w = m.value[(t, s)] * denom
                if w > 0:
                    g.add_edge((t, copy), s, weight=int(w))
    mate = nx.max_weight_matching(g)
    opt = Fraction(sum(g[a][b]["weight"] for a, b in mate), denom)
    if len(m.items) <= simulation.ORACLE_ITEM_CAP:
        oracle = simulation.oracle_opt_value(m)
        if oracle != opt:
            raise ReferenceMismatch(f"blossom optimum {opt} != DP oracle optimum {oracle}")
    return opt


def _tight_graph(rp):
    g = model.market_graph(rp.trimmed)
    sc = dual.StructuredCovering(rp.pi, rp.pi.tight_edges(g), None)
    return dual.tight_subgraph(sc, g)


def dynamic_misses(out: Outcome, optimum: Fraction) -> list[str]:
    """Why a dynamic run is wrong, or [] when it passes every check."""
    if out.error is not None:
        return [out.error]
    misses = []
    if out.welfare != optimum:
        misses.append(f"final welfare {out.welfare} != reference optimum {optimum}")
    if out.ambiguous_rounds:
        misses.append(f"{out.ambiguous_rounds} multi-demand round(s) without a unique bundle")
    for k, rp in enumerate(out.rounds):
        if rp.sigma is not None and not orderings.verify_adequate(_tight_graph(rp), rp.sigma):
            misses.append(f"round {k}: ordering is not adequate")
    return misses


def verdict_misses(out: Outcome, optimum: Fraction) -> list[str]:
    """Why an exhaustive verdict is wrong, or [] when it passes every check."""
    if out.error is not None:
        return [out.error]
    v = out.verdict
    misses = []
    if not v.complete:
        misses.append("verdict is partial")
    if not v.all_optimal:
        misses.append("verdict found a suboptimal run")
    if v.optimum != optimum:
        misses.append(f"verdict optimum {v.optimum} != reference optimum {optimum}")
    return misses
