"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces each public function listed in `LAYERS` by a
wrapper at every site that binds it: the defining module, every other
`dynprice` module that imported it by name, and the package namespace.  So
`pricing.refine_covering` and `orderings.refine_covering` are both traced.
Spans stay in memory; `layer_metrics` turns them into the per-layer numbers
and `dump` writes them out.

Solver calls nest inside `matching` (a probe calls `max_weight_value`), so a
`matching` function entered from another `matching` span gets no span of
its own: only the outermost entry is a solver call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# Layer -> public functions wrapped in that layer.  The `cli` layer runs only
# during set-up, which is never traced.
LAYERS: dict[str, tuple[str, ...]] = {
    "matching": ("solve_with_covering", "max_weight_bmatching", "max_weight_value",
                 "optimal_covering", "max_weight_forced_edge",
                 "max_weight_reduced_capacity", "bfactor_exists",
                 "lexicographic_min_edge_optimum"),
    "model": ("trim_items", "check_opt_property"),
    "dual": ("refine_covering", "compute_slack", "tight_subgraph", "is_legal_edge"),
    "sets": ("min_surplus_set", "maximal_dangerous_set", "minimal_dangerous_disjoint",
             "feasible_bundle", "legal_classes_3"),
    "orderings": ("adequate_bidemand", "adequate_three_buyers", "adequate_two_buyers",
                  "combine", "verify_adequate"),
    "pricing": ("multi_round", "unit_round", "dispatch_ordering"),
    "simulation": ("best_bundles", "run_exhaustive", "run_once", "oracle_opt_value",
                   "oracle_opt", "oracle_feasible"),
}

PROBES = ("matching.max_weight_forced_edge", "matching.max_weight_reduced_capacity")
ROUNDS = ("pricing.multi_round", "pricing.unit_round")
ORDERINGS = ("orderings.adequate_bidemand", "orderings.adequate_three_buyers")


@dataclass
class Span:
    id: int
    parent: int              # -1 for a root span
    op: int                  # the benchmark operation (market) the span belongs to
    name: str                # "<layer>.<function>"
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0     # time covered by direct children
    purpose: str = ""        # matching spans only: resolve, probe, trim or bfactor
    rows_x_cols: int = 0     # matching spans only: size of the graph handed in

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "dynprice" or name.startswith("dynprice.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"dynprice.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if layer == "matching" and parent is not None and parent.layer == "matching":
                return fn(*args, **kwargs)
            span = Span(len(spans), parent.id if parent else -1, self.op, name, layer, 0.0)
            if layer == "matching":
                g = args[0]
                span.rows_x_cols = g.buyer_capacity_total() * len(g.items)
                if parent is not None and parent.name == "model.trim_items":
                    span.purpose = "trim"
                elif name in PROBES:
                    span.purpose = "probe"
                elif name == "matching.bfactor_exists":
                    span.purpose = "bfactor"
                else:
                    span.purpose = "resolve"
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list[list]:
        """Spans as [id, parent, op, name, start_s, end_s], times from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.id, s.parent, s.op, s.name, round(s.start - t0, 7), round(s.end - t0, 7)]
                for s in self.spans]


def _within(spans: list[Span], span: Span, names: tuple[str, ...]) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, summed over `spans`."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.self_s
    solver = [s for s in spans if s.layer == "matching"]
    refines = calls.get("dual.refine_covering", 0)
    orderings = sum(calls.get(n, 0) for n in ORDERINGS)
    verdicts = calls.get("simulation.run_exhaustive", 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def named_self(*names: str) -> float:
        return sum(s.self_s for s in spans if s.name in names)

    out: dict[str, float] = {}
    for purpose in ("resolve", "probe", "trim", "bfactor"):
        out[f"matching.{purpose}.calls"] = sum(1 for s in solver if s.purpose == purpose)
    out["matching.rows_x_cols"] = sum(s.rows_x_cols for s in solver)
    out["matching.self_s"] = self_s.get("matching", 0.0)
    out["dual.refine_covering.calls"] = refines
    out["dual.solves_per_refine"] = ratio(
        sum(1 for s in solver if _within(spans, s, ("dual.refine_covering",))), refines)
    out["dual.self_s"] = self_s.get("dual", 0.0)
    out["model.trim_items.calls"] = calls.get("model.trim_items", 0)
    out["model.self_s"] = self_s.get("model", 0.0)
    out["sets.min_surplus_set.calls"] = calls.get("sets.min_surplus_set", 0)
    out["sets.feasible_bundle.calls"] = calls.get("sets.feasible_bundle", 0)
    out["sets.self_s"] = self_s.get("sets", 0.0)
    out["orderings.adequate_bidemand.calls"] = calls.get("orderings.adequate_bidemand", 0)
    out["orderings.adequate_three_buyers.calls"] = calls.get(
        "orderings.adequate_three_buyers", 0)
    out["orderings.refine_per_ordering"] = ratio(
        sum(1 for s in spans
            if s.name == "dual.refine_covering" and _within(spans, s, ORDERINGS)),
        orderings)
    out["orderings.self_s"] = self_s.get("orderings", 0.0)
    out["pricing.round.calls"] = sum(calls.get(n, 0) for n in ROUNDS)
    out["pricing.self_s"] = self_s.get("pricing", 0.0)
    out["simulation.best_bundles.calls"] = calls.get("simulation.best_bundles", 0)
    out["simulation.best_bundles.self_s"] = named_self("simulation.best_bundles")
    out["simulation.oracle.self_s"] = named_self(
        "simulation.oracle_opt_value", "simulation.oracle_opt", "simulation.oracle_feasible")
    out["simulation.run_exhaustive.self_s"] = named_self("simulation.run_exhaustive")
    out["simulation.rounds_per_verdict"] = ratio(
        sum(1 for s in spans
            if s.name in ROUNDS and _within(spans, s, ("simulation.run_exhaustive",))),
        verdicts)
    return out
