"""Workload set-up and the timed step of each workload.

Set-up generates a workload's fixed pool of markets, relabels each one from
the seed and sends it through the public JSON path (`serialize_market` ->
`json.dumps` -> `parse_instance`), so the program only ever sees parsed
markets.  A step is one market: a dynamic run (arrivals, each after a fresh
round of prices) on the `price-*` workloads, or one `run_exhaustive` verdict
on `sweep-exhaustive`.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from dynprice import cli, errors, model, pricing, simulation

# Exceptions the engine raises on purpose; anything else is a benchmark bug.
ENGINE_ERRORS = (errors.ModelError, errors.ContractViolationError,
                 errors.UnsupportedMarketError, errors.InternalConsistencyError,
                 errors.OracleCapError)

# Generator parameters.  Each workload has a fixed pool of DRAWS markets per
# entry below, each with a fixed arrival order and tie-break seed; `--seed`
# relabels every market.  Draw 0 holds one market per entry and is the
# warm-up pass.  A timed pass over the pool takes 8-28 s on a shared two-core
# x86-64 VM with Python 3.11.7.
DRAWS = 3
BIDEMAND_MARKETS = (                          # (buyers, value range), demand 2
    (8, (1, 3)), (9, (1, 3)), (10, (1, 3)), (11, (1, 3)),         # tie-rich
    (9, (1, 12)), (10, (1, 12)), (11, (1, 12)), (12, (1, 12)),    # wide
)
# best_bundles enumerates at most 22 non-negative-margin items, so unit
# markets stay at or below 22 items and no tie-break can exceed it.
UNIT_MARKETS = ((16, (1, 3)), (16, (1, 3)), (17, (1, 3)), (18, (1, 3)), (18, (1, 3)))
# The three regimes of scripts/adversarial_sweep.py, SWEEP_PER_REGIME markets
# of each regime per draw.
SWEEP_REGIMES = (
    ("unit<=6", lambda rng: (rng.randint(2, 6), 1, (1, rng.choice([4, 20])))),
    ("three-buyer b<=4", lambda rng: (3, [rng.randint(1, 4) for _ in range(3)],
                                      (1, rng.choice([3, 8])))),
    ("bi-demand<=5", lambda rng: (rng.randint(2, 5), 2, (1, rng.choice([2, 3, 6])))),
)
SWEEP_PER_REGIME = 20


@dataclass(frozen=True)
class Case:
    """One market of a workload, with its arrival order and tie-break seed."""

    label: str
    market: model.Market
    order: tuple[str, ...]
    tiebreak_seed: int
    draw: int = 0                      # draw 0 is the warm-up pass


@dataclass
class Outcome:
    """What one step produced; the gate judges it after the timed region."""

    seconds: float = 0.0               # wall time of the step
    round_seconds: list[float] = field(default_factory=list)   # wall time per round
    ref_seconds: float = 0.0           # the step at reference speed, see `probe`
    round_scale: list[float] = field(default_factory=list)     # per round, see `probe`
    welfare: Fraction = Fraction(0)
    choices: list[tuple[str, frozenset[str]]] = field(default_factory=list)
    rounds: list[pricing.RoundPricing] = field(default_factory=list)
    ambiguous_rounds: int = 0          # multi-demand rounds without a unique bundle
    verdict: Optional[simulation.Verdict] = None
    error: Optional[str] = None
    fingerprint: Optional[tuple] = None  # what a later pass decided, see run.py


# Median wall time of `reference_work` on the reference machine (a two-core
# x86-64 VM, Python 3.11.7).  See `probe`.
REFERENCE_S = 0.0026


def reference_work() -> Fraction:
    """A fixed exact-rational computation that shares no code with dynprice."""
    acc: dict[int, Fraction] = {}
    x = Fraction(0)
    for i in range(1, 600):
        k = i % 37
        x += Fraction(i % 11 + 1, k + 1)
        acc[k] = acc.get(k, Fraction(0)) + x
    return x


def probe() -> float:
    """Wall time of one `reference_work` call.

    Other load on a shared machine slows every computation for seconds at a
    time.  A timed interval between two probes is rescaled to reference speed
    by REFERENCE_S / (mean of the two probes), which cancels that slowdown.
    """
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def generator_params(workload: str) -> dict:
    params = {
        "price-bidemand": {"demand": 2, "markets": BIDEMAND_MARKETS},
        "price-unit": {"demand": 1, "markets": UNIT_MARKETS},
        "sweep-exhaustive": {"regimes": [name for name, _ in SWEEP_REGIMES],
                             "per_regime": SWEEP_PER_REGIME},
    }[workload]
    return {**params, "draws": DRAWS}


def _pool(workload: str) -> list[tuple[str, int, model.Market, tuple[str, ...], int]]:
    """(label, draw, market, arrival order, tie-break seed) per market of the pool."""
    rng = random.Random(workload)
    specs = []
    for draw in range(DRAWS):
        if workload in ("price-bidemand", "price-unit"):
            demand = 2 if workload == "price-bidemand" else 1
            for n, values in BIDEMAND_MARKETS if demand == 2 else UNIT_MARKETS:
                specs.append((f"{'bi' if demand == 2 else 'unit'}{n}-v{values[1]}#{draw}",
                              draw, n, demand, values))
        elif workload == "sweep-exhaustive":
            for name, sample in SWEEP_REGIMES:
                for k in range(SWEEP_PER_REGIME):
                    specs.append((f"{name}#{draw}.{k}", draw, *sample(rng)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    pool = []
    for label, draw, buyers, profile, values in specs:
        m = cli.generate_instance(rng.randrange(2**31), buyers, profile, values)
        order = list(m.buyers)
        rng.shuffle(order)
        pool.append((label, draw, m, tuple(order), rng.randrange(2**31)))
    return pool


def _relabel(m: model.Market, order: tuple[str, ...], rng: random.Random
             ) -> tuple[dict, tuple[str, ...]]:
    """The serialized market with items and buyers shuffled and renamed in
    their new order, and the arrival order under the new names."""
    doc = cli.serialize_market(m)
    items = list(doc["items"])
    rng.shuffle(items)
    item_name = {s: f"s{k + 1}" for k, s in enumerate(items)}
    buyers = list(doc["buyers"])
    rng.shuffle(buyers)
    buyer_name = {b["id"]: f"t{k + 1}" for k, b in enumerate(buyers)}
    doc = {"items": [item_name[s] for s in items],
           "buyers": [{"id": buyer_name[b["id"]], "demand": b["demand"],
                       "values": {item_name[s]: v for s, v in b["values"].items()}}
                      for b in buyers]}
    return doc, tuple(buyer_name[t] for t in order)


def set_up(workload: str, seed: int) -> list[Case]:
    """Generate the pool, relabel every market from the seed, and parse it
    back from JSON.

    Relabelling reorders every canonical order the engine uses (edges, probe
    order, tie-breaks among optima), so each seed gives different inputs that
    need comparable work.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for label, draw, m, order, tiebreak_seed in _pool(workload):
        doc, new_order = _relabel(m, order, rng)
        market = cli.parse_instance(json.dumps(doc))
        cases.append(Case(label, market, new_order, tiebreak_seed, draw))
    return cases


def dynamic_run(case: Case, mode: str,
                ordering_strategy: Optional[pricing.OrderingStrategy] = None) -> Outcome:
    """Reprice the residual market before each arrival; the buyer takes a best bundle.

    Multi-demand buyers take their unique best bundle (the first one, and the
    round is counted as ambiguous, if there are several); unit-demand buyers
    break ties with the case's seeded tie-break.
    """
    out = Outcome()
    rng = random.Random(case.tiebreak_seed)
    residual = case.market
    clock = time.perf_counter
    before = probe()
    try:
        for t in case.order:
            t0 = clock()
            if mode == "unit":
                rp = pricing.unit_round(residual)
            else:
                rp = pricing.multi_round(residual, ordering_strategy)
            t1 = clock()
            out.rounds.append(rp)
            bundles = simulation.best_bundles(residual, t, rp.prices)
            if mode == "unit":
                choice = rng.choice(bundles)
            else:
                out.ambiguous_rounds += len(bundles) != 1
                choice = bundles[0]
            out.welfare += sum((residual.value[(t, s)] for s in choice), Fraction(0))
            out.choices.append((t, choice))
            residual = model.restrict_market(residual, t, choice)
            t2 = clock()
            after = probe()
            scale = 2 * REFERENCE_S / (before + after)
            before = after
            out.round_seconds.append(t1 - t0)
            out.round_scale.append(scale)
            out.seconds += t2 - t0
            out.ref_seconds += (t2 - t0) * scale
    except ENGINE_ERRORS as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def exhaustive_run(case: Case,
                   ordering_strategy: Optional[pricing.OrderingStrategy] = None) -> Outcome:
    """One `run_exhaustive` verdict over every arrival order and tie-break."""
    out = Outcome()
    before = probe()
    t0 = time.perf_counter()
    try:
        with _timed_rounds(out.round_seconds):
            out.verdict = simulation.run_exhaustive(case.market,
                                                    ordering_strategy=ordering_strategy)
    except ENGINE_ERRORS as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    scale = 2 * REFERENCE_S / (before + probe())
    out.ref_seconds = out.seconds * scale
    out.round_scale = [scale] * len(out.round_seconds)
    return out


@contextmanager
def _timed_rounds(sink: list[float]):
    """Time each pricing round `run_exhaustive` makes, from outside.

    `simulation` binds `unit_round` and `multi_round` at import; while this is
    active those names point at wrappers that append each call's duration.
    """
    clock = time.perf_counter
    saved = {name: getattr(simulation, name) for name in ("unit_round", "multi_round")}

    def timer(fn):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(clock() - t0)
        return timed

    for name, fn in saved.items():
        setattr(simulation, name, timer(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(simulation, name, fn)


def step_for(workload: str) -> Callable[[Case], Outcome]:
    if workload == "sweep-exhaustive":
        return exhaustive_run
    mode = "unit" if workload == "price-unit" else "multi"
    return lambda case: dynamic_run(case, mode)
