"""Tests of the benchmark itself: the gate must catch a wrong answer, and the
tracer must count layers and put every function back.

Run from the repository root:  python -m pytest -q perfbench
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dynprice import Market, cli, dual, pricing, simulation  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _criterion_9_market() -> Market:
    """The bi-demand market of acceptance criterion 9 (D1 in tests/conftest.py),
    on which the reversed ordering is inadequate."""
    spec = importlib.util.spec_from_file_location("dynprice_tests_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    neighbors, items = conftest.D1_NEIGHBORS, conftest.D1_ITEMS
    values = {(t, s): Fraction(1 if s in neighbors[t] else 0)
              for t in neighbors for s in items}
    return Market.build(items, tuple(neighbors), {t: 2 for t in neighbors}, values)


def _case(m: Market) -> workloads.Case:
    return workloads.Case("d1", m, m.buyers, 0)


def test_gate_rejects_reversed_ordering_in_a_dynamic_run():
    case = _case(_criterion_9_market())
    optimum = gate.reference_optimum(case.market)
    good = workloads.dynamic_run(case, "multi")
    assert gate.dynamic_misses(good, optimum) == []
    bad = workloads.dynamic_run(case, "multi", simulation.reversed_ordering_strategy)
    assert gate.dynamic_misses(bad, optimum)


def test_gate_rejects_reversed_ordering_in_a_verdict():
    case = _case(_criterion_9_market())
    optimum = gate.reference_optimum(case.market)
    assert gate.verdict_misses(workloads.exhaustive_run(case), optimum) == []
    bad = workloads.exhaustive_run(case, simulation.reversed_ordering_strategy)
    assert gate.verdict_misses(bad, optimum)


def test_tracer_counts_unit_rounds_and_restores_functions():
    m = cli.generate_instance(3, 5, 1, (1, 3))
    order = list(m.buyers)
    random.Random(3).shuffle(order)
    case = workloads.Case("unit5", m, tuple(order), 3)
    tr = tracer.Tracer()
    with tr:
        assert hasattr(pricing.refine_covering, "__wrapped__")
        assert pricing.refine_covering is dual.refine_covering
        out = workloads.dynamic_run(case, "unit")
    assert gate.dynamic_misses(out, gate.reference_optimum(m)) == []
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["pricing.round.calls"] == len(m.buyers)
    assert metrics["dual.refine_covering.calls"] == len(m.buyers)
    assert metrics["matching.resolve.calls"] > 0
    for name, value in metrics.items():
        if name.startswith(("sets.", "orderings.")):
            assert value == 0, name
        assert value >= 0, name
    assert pricing.refine_covering is dual.refine_covering
    assert not hasattr(pricing.unit_round, "__wrapped__")
