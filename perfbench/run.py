#!/usr/bin/env python3
"""dynprice benchmark: reprice latency and time to a verdict.

Run from the repository root:

    python3 perfbench/run.py --workload price-bidemand --seed 1 --seconds 20 --trace 0

Set-up generates the workload's fixed pool of markets and relabels each one
from the seed.  An untimed warm-up pass runs the pool's first draw (one market
per size class); then set-up is repeated and timed (the median is `setup_s`).
Timed passes run every market until `--seconds` have passed, always finishing
the pass, so each run samples every market equally.  After the timed region
every outcome goes through the correctness gate in gate.py.

`--trace 0` prints the end-to-end metrics.  `--trace 1` times one untraced
pass, then repeats traced passes until `--seconds` have passed; it prints the
per-layer metrics of one pass and writes the spans of the first traced pass,
with the tracing overhead, to perfbench/out/.  The last line of standard output
is the JSON result; the lines before it name each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "reprice_s.p50": "s", "reprice_s.p90": "s", "rounds_per_s": "1/s",
    "verdict_s.p50": "s", "verdict_s.p90": "s", "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {
    "matching.rows_x_cols": "cells",
    "dual.solves_per_refine": "solves/refine",
    "orderings.refine_per_ordering": "refines/ordering",
    "simulation.rounds_per_verdict": "rounds/verdict",
}


def _import_program():
    """Put the checkout's src/ first on the path and import dynprice from it."""
    src = ROOT / "src"
    if not (src / "dynprice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dynprice sources under {src}")
    sys.path.insert(0, str(src))
    import dynprice
    if Path(dynprice.__file__).resolve().parent != (src / "dynprice").resolve():
        raise SystemExit(f"perfbench: imported dynprice from {dynprice.__file__}, not {src}")


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density, here
    evaluated at the middle of each rank interval.

    Round and verdict times cluster by market size, so the plain sample
    quantile jumps between clusters when a relabelling moves one sample;
    the weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def _fingerprint(out) -> tuple:
    """What a step decided, for checking that every pass decides the same."""
    prices = tuple(tuple(sorted(rp.prices.price.items())) for rp in out.rounds)
    v = out.verdict
    verdict = None if v is None else (v.runs_checked, v.all_optimal, v.complete, v.optimum)
    return (tuple(out.choices), out.welfare, prices, verdict, out.error)


class Run:
    """The timed passes of one benchmark run, and their gate."""

    def __init__(self, workload: str, cases, gate) -> None:
        self.cases = cases
        self.gate = gate
        self.misses_of = (gate.verdict_misses if workload == "sweep-exhaustive"
                          else gate.dynamic_misses)
        self.passes: list[list] = []
        self.pass_seconds: list[float] = []

    def run_pass(self, step, tr=None) -> None:
        """Every market once; under the tracer `tr` when one is given."""
        outcomes = []
        t0 = time.perf_counter()
        with tr if tr is not None else nullcontext():
            for k, case in enumerate(self.cases):
                if tr is not None:
                    tr.op = k
                outcomes.append(step(case))
        self.pass_seconds.append(time.perf_counter() - t0)
        if self.passes:
            # Later passes must decide exactly what the first did; only the
            # first keeps its rounds for the adequacy check.
            for out in outcomes:
                out.fingerprint = _fingerprint(out)
                out.rounds = []
        self.passes.append(outcomes)

    def misses(self) -> dict[tuple[int, str], list[str]]:
        """Gate misses per failed step, keyed by (pass, market label)."""
        gate = self.gate
        firsts = [_fingerprint(out) for out in self.passes[0]]
        misses = {}
        for k, case in enumerate(self.cases):
            try:
                reference = gate.reference_optimum(case.market)
            except gate.ReferenceMismatch as exc:
                misses[(0, case.label)] = [str(exc)]
                continue
            for p, outcomes in enumerate(self.passes):
                out = outcomes[k]
                why = self.misses_of(out, reference)
                if p and out.fingerprint != firsts[k]:
                    why.append("output differs from the first timed pass")
                if why:
                    misses[(p, case.label)] = why
        return misses

    def outcomes(self) -> list:
        return [out for outcomes in self.passes for out in outcomes]


def _end_to_end(markets: list[float], rounds: list[float], setup_times: list[float]
                ) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "reprice_s.p50": _quantile(rounds, 0.5),
        "reprice_s.p90": _quantile(rounds, 0.9),
        "rounds_per_s": len(rounds) / sum(rounds),
        "verdict_s.p50": _quantile(markets, 0.5),
        "verdict_s.p90": _quantile(markets, 0.9),
        "verdicts_per_s": len(markets) / sum(markets),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(per_pass: list[dict[str, float]], misses: list[str]) -> dict[str, float]:
    """Counts of the first traced pass (every pass must repeat them exactly)
    and the median self time over the traced passes."""
    out = {}
    for name, value in per_pass[0].items():
        if name.endswith("self_s"):
            out[name] = statistics.median(m[name] for m in per_pass)
        else:
            if any(m[name] != value for m in per_pass):
                misses.append(f"per-layer count {name} differs between traced passes")
            out[name] = value
    return out


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("self_s"):
        return "s"
    return COUNT_UNITS.get(name, "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("price-bidemand", "price-unit", "sweep-exhaustive"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import gate
    import tracer
    import workloads

    run_misses = []                      # failed checks of the run as a whole
    cases = workloads.set_up(args.workload, args.seed)
    step = workloads.step_for(args.workload)
    for case in cases:                   # warm-up pass, not timed
        if case.draw == 0:
            step(case)
    # Set-up is timed after the warm-up, so that it runs at the same warm
    # state as the passes.
    setup_times = []                     # (wall, at reference speed)
    for _ in range(SETUP_REPEATS):
        before = workloads.probe()
        t0 = time.perf_counter()
        again = workloads.set_up(args.workload, args.seed)
        wall = time.perf_counter() - t0
        setup_times.append((wall, wall * 2 * workloads.REFERENCE_S
                            / (before + workloads.probe())))
        if again != cases:
            run_misses.append("set-up is not deterministic for this seed")

    run = Run(args.workload, cases, gate)
    traced = []
    start = time.perf_counter()
    if args.trace:
        run.run_pass(step)               # untraced base for the tracing overhead
        start = time.perf_counter()
    while not run.passes or (args.trace and not traced) or \
            time.perf_counter() - start < args.seconds:
        tr = tracer.Tracer() if args.trace else None
        run.run_pass(step, tr)
        if tr is not None:
            traced.append(tr)
    step_misses = run.misses()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "generator": workloads.generator_params(args.workload),
        "markets": len(cases), "timed_passes": len(run.passes),
        "setup_repeats": SETUP_REPEATS,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        metrics = _per_layer([tracer.layer_metrics(tr.spans) for tr in traced], run_misses)
        traced_s = statistics.median(run.pass_seconds[1:])
        overhead = {"untraced_pass_s": run.pass_seconds[0], "traced_pass_s": traced_s,
                    "overhead_s": traced_s - run.pass_seconds[0],
                    "overhead_frac": traced_s / run.pass_seconds[0] - 1}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "meta": meta, "overhead": overhead, "metrics": metrics,
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": traced[0].dump()}))
        print("trace overhead " + json.dumps(overhead))
        print(f"spans of the first traced pass written to {path.relative_to(ROOT)}")
    else:
        outs = run.outcomes()
        metrics = _end_to_end(
            [out.ref_seconds for out in outs],
            [r * k for out in outs for r, k in zip(out.round_seconds, out.round_scale)],
            [ref for _, ref in setup_times])
        wall = _end_to_end([out.seconds for out in outs],
                           [r for out in outs for r in out.round_seconds],
                           [w for w, _ in setup_times])
        meta["samples"] = {"markets": len(outs),
                           "rounds": sum(len(out.round_seconds) for out in outs)}
        meta["wall"] = {name: wall[name] for name in metrics if name != "peak_rss_mb"}

    # A failed run-level check also counts as one failed operation, so it can
    # never pass unnoticed.
    attempted = len(run.outcomes())
    failed = min(attempted, len(step_misses) + len(run_misses))
    misses = run_misses + [f"pass {p} {label}: {w}"
                           for (p, label), why in step_misses.items() for w in why]
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {_unit(name)}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} markets)")
    for m in misses[:20]:
        print(f"GATE MISS {m}", file=sys.stderr)
    print(json.dumps({
        "correct": not misses, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
