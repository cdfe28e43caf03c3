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
* SCC shift.  Nodes that reach the same nodes over the zero-reduced-cost arcs
  form a component (a fixpoint over reach bitsets), and each node moves by
  eps * (h(v) - h(z)), h the height of its component in the condensation.
  Arcs between components become strictly slack, arcs inside one stay tight,
  and eps (the least positive reduced cost over max h + 2) keeps every other
  arc feasible.  The seller-optimal point is unique and every M-dependent arc
  lies on a zero cycle, so pi is a function of the graph, not of M or names.
* Certificate, on every call.  A covering of value w(M) proves M and pi
  optimal, slack edges non-legal and positive duals always saturated.  One
  integer b-matching proves the rest in O(n + m): X_e = K * [e in M] +
  f(s->t) - f(t->s) on each tight edge, where f is a circulation positive on
  every tight face arc (each lies in a strong component after the shift) and
  K = max f + 1.  No arc is removed: an M-edge's item has no z->s arc, so its
  X-degree is K - f(s->z) and X_e <= K; f adds no weight, the reduced length
  of a tight arc being zero.  The checks 0 <= X_e <= K, degree <= K * b(v)
  and w . X = K * w(M) make X / K optimal for the b-matching LP, whose
  polytope is integral (Egervary; Schrijver 2003, ch. 21): X_e > 0 puts e in
  a maximum-weight b-matching, and a degree below K * b(v) leaves v short in
  one.  X is positive on every tight edge, and the tight arc between z and a
  zero-dual vertex lowers its degree.  If M holds every tight edge and no
  zero dual is saturated, X = M and K = 1.

The construction and every check run on integers.  The distances come in
units of 1/D, the denominator of the graph's scaled weights (`g.scaled`);
the shift multiplies by one more factor, max h + 2, so pi is held in units of
1/(D * factor), and one pass over it checks the gaps, tightness,
non-negativity and optimality and finds the slack.  The Fractions of pi and
the slack are built once, on return.  `compute_slack` is the Fraction
reference the tests hold that slack to.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import matching
from .errors import InternalConsistencyError, ModelError
from .matching import BipartiteGraph, Covering, Edge


@dataclass(frozen=True)
class StructuredCovering:
    """Optimal covering with tight = legal, plus its tight edges and slack."""

    pi: Covering
    tight_edges: frozenset[Edge]
    slack: Optional[Fraction]


def compute_slack(g: BipartiteGraph, pi: Covering) -> Optional[Fraction]:
    """min over non-tight edge gaps and positive dual values; None when empty.

    The Fraction reference for the slack that `refine_covering` finds on integers.
    """
    gaps = [pi.pi[s] + pi.pi[t] - g.weight[(s, t)] for s, t in g.edges]
    return min((x for x in gaps + [pi.pi[v] for v in g.items + g.buyers] if x > 0), default=None)


def is_legal_edge(g: BipartiteGraph, e: Edge) -> bool:
    """Whether some maximum-weight b-matching contains e."""
    if e not in g.edge_set:
        raise ModelError(f"edge {e!r} not in graph")
    return matching.max_weight_forced_edge(g, e) == matching.max_weight_value(g)


def tight_subgraph(sc: StructuredCovering, g: BipartiteGraph) -> BipartiteGraph:
    """The spanning subgraph of g on the tight edges, in g's order, with unit
    weights; derived from g, so a tight edge that g lacks raises ModelError."""
    return g.unit_subgraph(sc.tight_edges)


Arcs = list[list[tuple[int, int]]]  # node -> [(head, scaled length)]


def _face_arcs(g: BipartiteGraph, m_edges: frozenset[Edge], degree: Counter,
               weight: dict[Edge, int], node: dict[str, int], z: int) -> Arcs:
    """Difference constraints whose solutions with p(z) = 0 are the optimal duals."""
    out: Arcs = [[] for _ in range(z + 1)]
    for e in g.edges:
        s, t = node[e[0]], node[e[1]]
        out[s].append((t, -weight[e]))
        if e in m_edges:
            out[t].append((s, weight[e]))
    for v in g.items:
        out[node[v]].append((z, 0))
        if degree[v] < g.capacity[v]:
            out[z].append((node[v], 0))
    for v in g.buyers:
        out[z].append((node[v], 0))
        if degree[v] < g.capacity[v]:
            out[node[v]].append((z, 0))
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


def _shift_by_scc(p: list[int], out: Arcs, z: int) -> tuple[list[int], int]:
    """Potentials made strictly complementary, scaled by the returned factor.

    Moves node v by eps * (h(v) - h(z)), where h is the height of v's component
    (the nodes that reach the same nodes) in the condensation of the tight arcs,
    and eps = the least positive reduced cost / (max h + 2); the factor max h + 2
    keeps the result integral.
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
    reach = [1 << a for a in range(len(p))]
    changed = True
    while changed:
        changed = False
        for a, heads in enumerate(succ):
            r = reach[a]
            for b in heads:
                r |= reach[b]
            changed |= r != reach[a]
            reach[a] = r
    height = [0] * len(p)
    changed = True
    while changed:   # only arcs inside a component close cycles, and they add 0
        changed = False
        for a, heads in enumerate(succ):
            for b in heads:
                h = height[b] + (reach[a] != reach[b])
                if h > height[a]:
                    height[a], changed = h, True
    factor = max(height) + 2
    step = 1 if least is None else least
    return [pa * factor + (h - height[z]) * step for pa, h in zip(p, height)], factor


def _circulation(heads: list[list[int]]) -> dict[tuple[int, int], int]:
    """A circulation on the arcs a -> b, b in heads[a], positive on every arc
    inside a strong component.  From each node not yet placed, a breadth-first
    out-tree over the unplaced nodes, then an in-tree over the out-tree's nodes,
    find the root's component (forward-backward); one unit per arc inside it
    runs root ~> a -> b ~> root along the trees, so each tree arc carries the
    units of the arcs whose ends lie below it.  O(n + m) when every arc lies
    inside a component, as every tight arc does after the shift."""
    n = len(heads)
    tails: list[list[int]] = [[] for _ in heads]
    for a, hs in enumerate(heads):
        for b in hs:
            tails[b].append(a)
    comp, towards, away = [-1] * n, [-1] * n, [-1] * n   # root; in- and out-tree parents
    tail_units, head_units = [0] * n, [0] * n
    flow: dict[tuple[int, int], int] = {}
    for root in range(n):
        if comp[root] >= 0:
            continue
        away[root], reached = root, [root]
        for a in reached:                  # out-tree: away[b] -> b leads from root
            for b in heads[a]:
                if comp[b] < 0 and away[b] < 0:
                    away[b] = a
                    reached.append(b)
        comp[root], members = root, [root]
        for b in members:                  # in-tree: a -> towards[a] leads to root
            for a in tails[b]:
                if comp[a] < 0 and away[a] >= 0:
                    comp[a], towards[a] = root, b
                    members.append(a)
        for a in members:
            for b in heads[a]:
                if comp[b] == root:
                    flow[(a, b)] = 1
                    tail_units[a] += 1
                    head_units[b] += 1
        for b in reversed(reached[1:]):
            if comp[b] != root:
                away[b] = -1               # outside the component: free for a later root
            else:
                flow[(away[b], b)] += tail_units[b]
                tail_units[away[b]] += tail_units[b]
        for a in reversed(members[1:]):
            flow[(a, towards[a])] += head_units[a]
            head_units[towards[a]] += head_units[a]
    return flow


def _m_alone(n_tight: int, m_edges: frozenset[Edge], zero_saturated: bool) -> bool:
    """X = M, K = 1 is the certificate: M holds every tight edge, no zero dual is saturated."""
    return n_tight == len(m_edges) and not zero_saturated


def refine_covering(g: BipartiteGraph, m: Optional[frozenset[Edge]] = None
                    ) -> StructuredCovering:
    """Structured optimal covering of g from m, a maximum-weight b-matching of g
    (one solve supplies it when omitted; see the module notes)."""
    m_edges = matching.solve_with_covering(g).matching.edges if m is None else m
    degree = matching.check_bmatching(g, m_edges)
    vertices = g.items + g.buyers
    n_items = len(g.items)
    z = len(vertices)
    node = {v: k for k, v in enumerate(vertices)}

    weight, scale = g.scaled
    sign = [1] * n_items + [-1] * len(g.buyers)
    out = _face_arcs(g, m_edges, degree, weight, node, z)
    p, factor = _shift_by_scc(_seller_optimal(out, z), out, z)
    q = [sg * pa for sg, pa in zip(sign, p)]   # pi' in units of 1/(D * factor)

    # Verification, always on: an optimal covering, then the certificate
    # X = K * [e in M] + f(s->t) - f(t->s) (module notes), checked exactly on integers.
    optimum = sum(weight[e] for e in m_edges)
    tight: set[Edge] = set()
    least: Optional[int] = None
    for e in g.edges:
        gap = q[node[e[0]]] + q[node[e[1]]] - weight[e] * factor
        if gap < 0:
            raise InternalConsistencyError("refined dual is not a covering")
        if gap == 0:
            tight.add(e)
        elif least is None or gap < least:
            least = gap
    for x in q:
        if x < 0:
            raise InternalConsistencyError("refined dual has a negative value")
        if x > 0 and (least is None or x < least):
            least = x
    if sum(x * g.capacity[v] for x, v in zip(q, vertices)) != optimum * factor:
        raise InternalConsistencyError("refined dual is not optimal")

    cert, mult = dict.fromkeys(m_edges, 1), 1   # X, K
    if not _m_alone(len(tight), m_edges, any(x == 0 and degree[v] == g.capacity[v]
                                             for x, v in zip(q, vertices))):
        heads = [[b for b, length in arcs if length * factor + p[a] - p[b] == 0]
                 for a, arcs in enumerate(out)]
        flow = _circulation(heads)
        mult = max(flow.values(), default=0) + 1
        for e in tight:
            a, b = node[e[0]], node[e[1]]
            cert[e] = mult * (e in m_edges) + flow.get((a, b), 0) - flow.get((b, a), 0)
    load = dict.fromkeys(vertices, 0)
    for (s, t), x in cert.items():
        if not 0 <= x <= mult:
            raise InternalConsistencyError("certificate violates an edge bound")
        load[s] += x
        load[t] += x
    if any(load[v] > mult * g.capacity[v] for v in vertices):
        raise InternalConsistencyError("certificate violates a capacity")
    if sum(weight[e] * x for e, x in cert.items()) != mult * optimum:
        raise InternalConsistencyError("certificate is not a maximum-weight b-matching")

    tight_edges = frozenset(tight)
    if tight_edges != {e for e, x in cert.items() if x > 0}:
        raise InternalConsistencyError("tight/legal mismatch after refinement")
    if any((x > 0) != (load[v] == mult * g.capacity[v]) for x, v in zip(q, vertices)):
        raise InternalConsistencyError("zero-dual/saturation mismatch")

    denom = scale * factor
    covering = Covering({v: Fraction(x, denom) for v, x in zip(vertices, q)})
    slack = None if least is None else Fraction(least, denom)
    return StructuredCovering(covering, tight_edges, slack)
