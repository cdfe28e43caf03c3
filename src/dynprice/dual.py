"""Refinement of an optimal covering into structured form.

The refined covering pi satisfies, with respect to the original weights:
  (a) an edge is tight iff it is legal (contained in some maximum-weight
      b-matching), and
  (b) pi(v) = 0 iff some maximum-weight b-matching leaves v unsaturated.

Together (a) and (b) are strict complementarity for the b-matching LP
(Goldman-Tucker), whose optimal face is integral, so one maximum-weight
b-matching M determines a structured covering:

* Face constraints.  With potentials p(s) = pi(s), p(t) = -pi(t) and a ground
  node z with p(z) = 0, the optimal duals are exactly the solutions of the
  difference constraints p(head) <= p(tail) + length over the arcs
  s->t (-w) for every edge, t->s (+w) for every M-edge, s->z and z->t (0)
  for pi >= 0, and z->s / t->z (0) for M-unsaturated items / buyers, which
  force pi = 0 there.  An arc is tight in every optimal dual iff it lies on a
  zero-length cycle.
* Seller-optimal start.  A queue-based Bellman-Ford from z sets p to the
  shortest-path distances from z: the highest item prices and lowest buyer
  utilities on the face.  M is maximum iff the arcs have no negative cycle.
* SCC shift.  One iterative pass of Tarjan's algorithm over the
  zero-reduced-cost arcs finds their strong components, the one component
  search of a refine, and each component's height in the condensation as it
  completes it.  Each node moves by eps * (h(v) - h(z)), h the height of its
  component.  Arcs between components become strictly slack, arcs inside
  one stay tight, and eps (the least positive reduced cost over max h + 2)
  keeps every other arc feasible.  The seller-optimal point is unique and
  every M-dependent arc lies on a zero cycle, so pi is a function of the
  graph, not of M or names.
* Certificate, on every call.  A covering of value w(M) proves M and pi
  optimal, slack edges non-legal and positive duals always saturated.  One
  integer b-matching proves the rest in O(n + m): X_e = K * [e in M] +
  f(s->t) - f(t->s) on each tight edge, where f is a circulation positive on
  every tight face arc (the shift's arcs whose ends share a component) and
  K = max f + 1.  No arc is removed: an M-edge's item has no z->s arc, so its
  X-degree is K - f(s->z) and X_e <= K; f adds no weight, the reduced length
  of a tight arc being zero.  The checks 0 <= X_e <= K, degree <= K * b(v)
  and w . X = K * w(M) make X / K optimal for the b-matching LP, whose
  polytope is integral (Egervary; Schrijver 2003, ch. 21): X_e > 0 puts e in
  a maximum-weight b-matching, and a degree below K * b(v) leaves v short in
  one.  X is positive on every tight edge, and the tight arc between z and a
  zero-dual vertex lowers its degree.  If M holds every tight edge and no
  zero dual is saturated, X = M and K = 1.

The construction and every check run on integers, over the graph's edge
table (`g.table`): nodes are the positions in items + buyers, then z, and the
table's edge ends serve the face arcs, the gap check and the certificate
alike.  The distances come in units of 1/D, the table's denominator; the
shift multiplies by one more factor, max h + 2, so pi is held in units of
1/(D * factor), and one pass over it checks the gaps, tightness,
non-negativity and optimality and finds the slack.  The Fractions of pi and
the slack are built once, on return, beside those integers (`q`, over
`unit` = D * factor), which a round's prices and its residual's trim read.
`compute_slack` is the Fraction reference the tests hold that slack to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import matching
from .errors import ContractViolationError, InternalConsistencyError, ModelError
from .matching import BipartiteGraph, Covering, Edge, contains, strong_components


@dataclass(frozen=True)
class StructuredCovering:
    """Optimal covering with tight = legal, plus its tight edges and slack."""

    pi: Covering
    tight_edges: frozenset[Edge]
    slack: Optional[Fraction]
    q: tuple[int, ...] = ()     # pi by position in items + buyers, times unit
    unit: int = 1


def compute_slack(g: BipartiteGraph, pi: Covering) -> Optional[Fraction]:
    """min over non-tight edge gaps and positive dual values; None when empty.

    The Fraction reference for the slack that `refine_covering` finds on integers.  A pi
    that `matching.covering_values` refuses is a ModelError.
    """
    val = matching.covering_values(pi, g.items + g.buyers)
    gaps = [val[s] + val[t] - g.weight[(s, t)] for s, t in g.edges]
    return min((x for x in gaps + [val[v] for v in g.items + g.buyers] if x > 0), default=None)


def is_legal_edge(g: BipartiteGraph, e: Edge) -> bool:
    """Whether some maximum-weight b-matching contains e."""
    if not contains(g.edge_set, e):
        raise ModelError(f"edge {e!r} not in graph")
    return matching.max_weight_forced_edge(g, e) == matching.max_weight_value(g)


def tight_subgraph(sc: StructuredCovering, g: BipartiteGraph) -> BipartiteGraph:
    """The spanning subgraph of g on the tight edges, in g's order, with unit
    weights; derived from g, so a tight edge that g lacks raises ModelError."""
    return g.unit_subgraph(sc.tight_edges)


Arcs = list[list[tuple[int, int]]]  # node -> [(head, integer length)]


def _face_arcs(ends: tuple[tuple[int, int], ...], weight: tuple[int, ...], in_m: list[bool],
               degree: list[int], cap: list[int], n_items: int) -> Arcs:
    """Difference constraints whose solutions with p(z) = 0 are the optimal duals;
    the nodes are the positions in items + buyers, then z."""
    z = len(cap)
    out: Arcs = [[] for _ in range(z + 1)]
    for (s, t), w, matched in zip(ends, weight, in_m):
        out[s].append((t, -w))
        if matched:
            out[t].append((s, w))
    for v in range(n_items):
        out[v].append((z, 0))
        if degree[v] < cap[v]:
            out[z].append((v, 0))
    for v in range(n_items, z):
        out[z].append((v, 0))
        if degree[v] < cap[v]:
            out[v].append((z, 0))
    return out


def _seller_optimal(out: Arcs, z: int) -> list[int]:
    """Shortest-path distances from z (queue-based Bellman-Ford); a distance
    set along a path of as many arcs as nodes closes a negative cycle."""
    dist: list[Optional[int]] = [None] * len(out)
    dist[z], arcs, queue = 0, [0] * len(out), deque([z])
    while queue:
        a = queue.popleft()
        for b, length in out[a]:
            if dist[b] is None or dist[a] + length < dist[b]:
                dist[b], arcs[b] = dist[a] + length, arcs[a] + 1
                if arcs[b] == len(out):
                    raise InternalConsistencyError(
                        "negative cycle on the face arcs: the matching is not maximum")
                queue.append(b)
    if None in dist:
        raise InternalConsistencyError("face node unreachable from the ground node")
    return dist


def _shift_by_scc(p: list[int], out: Arcs, z: int
                  ) -> tuple[list[int], int, list[list[int]], list[int]]:
    """Potentials made strictly complementary, multiplied by the returned factor, the
    tight arcs at p (succ: node -> heads) and each node's strong component over them.

    Node v moves by eps * (h(v) - h(z)), h the height of its component in the
    condensation, and eps = the least positive reduced cost / (max h + 2); the
    factor max h + 2 keeps the result integral.  The arcs of succ inside a
    component stay tight, no other.
    """
    succ: list[list[int]] = [[] for _ in p]
    least: Optional[int] = None
    for a, arcs in enumerate(out):
        for b, length in arcs:
            rc = length + p[a] - p[b]
            if rc == 0:
                succ[a].append(b)
            elif least is None or rc < least:
                least = rc
    comp, height = strong_components(succ)
    factor = max(height) + 2
    step = 1 if least is None else least
    base = height[comp[z]]
    shifted = [pa * factor + (height[c] - base) * step for pa, c in zip(p, comp)]
    return shifted, factor, succ, comp


def _circulation(heads: list[list[int]]) -> dict[tuple[int, int], int]:
    """A circulation positive on every arc a -> b, b in heads[a], when every arc
    lies inside a strong component.  From each node not yet placed, a breadth-first
    out-tree spans the root's component and an in-tree over it leads back; one
    unit per arc runs root ~> a -> b ~> root along the trees, so each tree arc
    carries the units of the arcs whose ends lie below it.  O(n + m)."""
    n = len(heads)
    tails: list[list[int]] = [[] for _ in heads]
    towards, away = [-1] * n, [-1] * n   # in- and out-tree parents
    tail_units, head_units = [0] * n, [0] * n
    flow: dict[tuple[int, int], int] = {}
    for root in range(n):
        if away[root] >= 0:
            continue
        away[root], reached = root, [root]
        for a in reached:                  # out-tree: away[b] -> b leads from root
            for b in heads[a]:
                if away[b] < 0:
                    away[b] = a
                    reached.append(b)
                flow[(a, b)] = 1
                tails[b].append(a)         # the component's arcs are all seen here
                tail_units[a] += 1
                head_units[b] += 1
        towards[root], members = root, [root]
        for b in members:                  # in-tree: a -> towards[a] leads to root
            for a in tails[b]:
                if towards[a] < 0:
                    towards[a] = b
                    members.append(a)
        for b in reversed(reached[1:]):
            flow[(away[b], b)] += tail_units[b]
            tail_units[away[b]] += tail_units[b]
        for a in reversed(members[1:]):
            flow[(a, towards[a])] += head_units[a]
            head_units[towards[a]] += head_units[a]
    return flow


def _m_alone(n_tight: int, n_matched: int, zero_saturated: bool) -> bool:
    """X = M, K = 1 is the certificate: M holds every tight edge, no zero dual is saturated."""
    return n_tight == n_matched and not zero_saturated


def refine_covering(g: BipartiteGraph, m: Optional[frozenset[Edge]] = None
                    ) -> StructuredCovering:
    """Structured optimal covering of g from m, a maximum-weight b-matching of g
    (one solve supplies it when omitted; see the module notes).  A caller's m
    that is not one raises ContractViolationError."""
    solved = m is None
    if solved:
        m = matching.solve_with_covering(g).matching
    elif not isinstance(m, (set, frozenset)):
        raise ContractViolationError("m is not a set of the graph's edges")
    in_m = [e in m for e in g.edges]
    matched = [k for k, x in enumerate(in_m) if x]
    if len(matched) != len(m):
        raise ContractViolationError("m is not a set of the graph's edges")
    table = g.table
    ends, weight = table.ends, table.weight
    cap = matching.capacities(g)
    n_items, z = len(g.items), len(cap)
    try:   # past a capacity or below the optimum: the caller's m, or an engine bug
        degree = matching.check_bmatching(g, matched)
        out = _face_arcs(ends, weight, in_m, degree, cap, n_items)
        p, factor, succ, comp = _shift_by_scc(_seller_optimal(out, z), out, z)
    except InternalConsistencyError as exc:
        if solved:
            raise
        raise ContractViolationError(str(exc)) from exc
    q = p[:n_items] + [-x for x in p[n_items:z]]   # pi' in units of 1/(D * factor)

    # Verification, always on: an optimal covering, then the certificate
    # X = K * [e in M] + f(s->t) - f(t->s) (module notes), checked exactly on integers.
    optimum = sum(weight[k] for k in matched)
    tight: list[int] = []
    least: Optional[int] = None
    for k, ((s, t), w) in enumerate(zip(ends, weight)):
        gap = q[s] + q[t] - w * factor
        if gap < 0:
            raise InternalConsistencyError("refined dual is not a covering")
        if gap == 0:
            tight.append(k)
        elif least is None or gap < least:
            least = gap
    for x in q:
        if x < 0:
            raise InternalConsistencyError("refined dual has a negative value")
        if x > 0 and (least is None or x < least):
            least = x
    if sum(x * c for x, c in zip(q, cap)) != optimum * factor:
        raise InternalConsistencyError("refined dual is not optimal")

    cert, mult = dict.fromkeys(matched, 1), 1   # X by edge index, K
    if not _m_alone(len(tight), len(matched), any(x == 0 and d == c
                                                  for x, d, c in zip(q, degree, cap))):
        flow = _circulation([[b for b in heads if comp[b] == comp[a]]
                             for a, heads in enumerate(succ)])
        mult = max(flow.values(), default=0) + 1
        for k in tight:
            s, t = ends[k]
            cert[k] = mult * in_m[k] + flow.get((s, t), 0) - flow.get((t, s), 0)
    load = [0] * z
    for k, x in cert.items():
        if not 0 <= x <= mult:
            raise InternalConsistencyError("certificate violates an edge bound")
        s, t = ends[k]
        load[s] += x
        load[t] += x
    if any(d > mult * c for d, c in zip(load, cap)):
        raise InternalConsistencyError("certificate violates a capacity")
    if sum(weight[k] * x for k, x in cert.items()) != mult * optimum:
        raise InternalConsistencyError("certificate is not a maximum-weight b-matching")

    if set(tight) != {k for k, x in cert.items() if x > 0}:
        raise InternalConsistencyError("tight/legal mismatch after refinement")
    if any((x > 0) != (d == mult * c) for x, d, c in zip(q, load, cap)):
        raise InternalConsistencyError("zero-dual/saturation mismatch")

    denom = table.denominator * factor
    covering = Covering({v: Fraction(x, denom) for v, x in zip(g.items + g.buyers, q)})
    slack = None if least is None else Fraction(least, denom)
    return StructuredCovering(covering, frozenset(g.edges[k] for k in tight), slack,
                              tuple(q), denom)
