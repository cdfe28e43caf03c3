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
* Witness verification, on every call.  The result must be an optimal
  covering, which certifies slack edges as non-legal and positive duals as
  always saturated.  Every tight non-M edge (s, t) needs an alternating
  t ~> s path in the tight graph with z, and every saturated zero-dual
  vertex a path from or to z.  Flipping the closed cycle gives a witness
  b-matching, checked in O(cycle length): degrees change only on the cycle,
  so capacities are checked there, and the witness is maximum iff the edges
  it adds weigh what the edges it drops weigh.  M arrives certified by its
  caller or one solve; a covering of value w(M) proves it and pi optimal.

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
    best: Optional[Fraction] = None
    for s, t in g.edges:
        gap = pi.pi[s] + pi.pi[t] - g.weight[(s, t)]
        if gap > 0 and (best is None or gap < best):
            best = gap
    for v in g.items + g.buyers:
        val = pi.pi[v]
        if val > 0 and (best is None or val < best):
            best = val
    return best


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


def _bfs(src: int, succ: list[list[int]]) -> list[Optional[int]]:
    """Parent of every node reached by a breadth-first search from src."""
    parent: list[Optional[int]] = [None] * len(succ)
    parent[src] = src
    queue = deque([src])
    while queue:
        a = queue.popleft()
        for b in succ[a]:
            if parent[b] is None:
                parent[b] = a
                queue.append(b)
    return parent


def _path(parent: list[Optional[int]], end: int) -> list[int]:
    path = [end]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]


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

    # Verification, always on.  A covering of value w(M) is optimal, and
    # certifies slack edges as non-legal and positive duals as always saturated;
    # M certifies its own edges and unsaturated vertices; every other tight edge
    # and zero dual needs a witness b-matching, checked exactly.
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

    legal = {e: e in m_edges for e in g.edges}
    saturated = [degree[v] == g.capacity[v] for v in vertices]
    # Tight graph of the face arcs: a cycle through z or through a non-M
    # edge alternates, and flipping it gives the witness.
    succ = [[b for b, length in arcs if length * factor + p[a] - p[b] == 0]
            for a, arcs in enumerate(out)]

    def witness_change(path: list[int], closing: Optional[Edge]) -> Counter:
        """Check the b-matching M xor (path + closing edge); return its degree change.

        Only the cycle's vertices change degree, and its weight is w(M) plus
        w(added) - w(dropped), where w(M) is the optimum the covering certified,
        so a witness is maximum iff the two are equal.
        """
        add = set() if closing is None else {closing}
        drop = set()
        for a, b in zip(path, path[1:]):
            if a < n_items and b != z:
                add.add((vertices[a], vertices[b]))
            elif b < n_items and a != z:
                drop.add((vertices[b], vertices[a]))
        if not drop <= m_edges or add & m_edges or not add <= g.edge_set:
            raise InternalConsistencyError("witness cycle does not alternate")
        change = Counter(v for e in add for v in e)
        change.subtract(v for e in drop for v in e)
        if any(degree[v] + d > g.capacity[v] for v, d in change.items()):
            raise InternalConsistencyError("witness violates a capacity")
        if sum(weight[e] for e in add) != sum(weight[e] for e in drop):
            raise InternalConsistencyError("witness is not a maximum-weight b-matching")
        return change

    by_buyer: dict[str, list[str]] = {}
    for s, t in g.edges:
        if (s, t) in tight and (s, t) not in m_edges:
            by_buyer.setdefault(t, []).append(s)
    for t, items in by_buyer.items():
        parent = _bfs(node[t], succ)
        for s in items:
            if parent[node[s]] is not None:
                witness_change(_path(parent, node[s]), (s, t))
                legal[(s, t)] = True
    # A saturated zero-dual item closes a cycle z ~> s -> z, a buyer t ~> z -> t.
    pred: list[list[int]] = [[] for _ in succ]
    for a, heads in enumerate(succ):
        for b in heads:
            pred[b].append(a)
    from_z, to_z = _bfs(z, succ), _bfs(z, pred)
    for k, v in enumerate(vertices):
        if q[k] != 0 or not saturated[k]:
            continue
        if k < n_items and from_z[k] is not None:
            path = _path(from_z, k)
        elif k >= n_items and to_z[k] is not None:
            path = _path(to_z, k)[::-1]
        else:
            continue
        saturated[k] = degree[v] + witness_change(path, None)[v] == g.capacity[v]

    for e in g.edges:
        if (e in tight) != legal[e]:
            raise InternalConsistencyError("tight/legal mismatch after refinement")
    for k in range(z):
        if (q[k] > 0) != saturated[k]:
            raise InternalConsistencyError("zero-dual/saturation mismatch")

    denom = scale * factor
    covering = Covering({v: Fraction(x, denom) for v, x in zip(vertices, q)})
    slack = None if least is None else Fraction(least, denom)
    return StructuredCovering(covering, frozenset(tight), slack)
