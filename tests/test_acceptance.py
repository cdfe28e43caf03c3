"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All tolerances are zero: the engine is exact, so every comparison is equality.
"""

import random
import time
from itertools import combinations

import pytest

from dynprice import (adequate_bidemand, adequate_three_buyers,
                      adequate_two_buyers, best_bundles, generate_instance,
                      market_graph, maximal_dangerous_set,
                      min_surplus_set, minimal_dangerous_disjoint, multi_round,
                      optimal_covering, oracle_opt, oracle_opt_value, refine_covering,
                      run_exhaustive, tight_subgraph, verify_adequate)
from dynprice.sets import all_dangerous_sets, is_dangerous
from dynprice.simulation import (oracle_feasible, oracle_structure,
                                 reversed_ordering_strategy)

from conftest import (brute_dangerous_sets, brute_min_surplus,
                      brute_verify_adequate, figure_market)


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _corpus_small(count=200):
    """|T| <= 4, demands <= 3, |S| = b(T) <= 10, integer values in [1, 20]."""
    out = []
    for k in range(count):
        rng = random.Random(9000 + k)
        nb = rng.randint(1, 4)
        while True:
            profile = [rng.randint(1, 3) for _ in range(nb)]
            if sum(profile) <= 10:
                break
        out.append(generate_instance(17000 + k, nb, profile, (1, 20)))
    return out


@pytest.fixture(scope="module")
def small_corpus():
    return _corpus_small()


@pytest.fixture(scope="module")
def bidemand_corpus():
    """>= 100 bi-demand instances, |T| <= 5, tie-rich values."""
    out = []
    for k in range(120):
        nb = 2 + k % 4
        hi = (2, 3, 5)[k % 3]
        out.append(generate_instance(23000 + k, nb, 2, (1, hi)))
    return out


def test_criterion_1_duality(small_corpus):
    t0 = time.perf_counter()
    for m in small_corpus:
        g = market_graph(m)
        pi = optimal_covering(g)
        assert pi.total_value(g) == oracle_opt_value(m)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"duality exact on {len(small_corpus)} instances in {elapsed:.2f}s (< 10s)")


def test_criterion_2_structured_dual(small_corpus):
    edges = verts = 0
    for m in small_corpus:
        g = market_graph(m)
        sc = refine_covering(g)
        legal, short, unused = oracle_structure(m)
        for (s, t) in g.edges:
            assert ((s, t) in sc.tight_edges) == ((s, t) in legal)
            edges += 1
        for t in m.buyers:
            assert (sc.pi.pi[t] == 0) == (t in short)
            verts += 1
        for s in m.items:
            assert (sc.pi.pi[s] == 0) == (s in unused)
            verts += 1
    report(2, True,
           f"tight<->legal on {edges} edges, zero<->unsaturated on {verts} vertices")


def test_criterion_3_adequacy(small_corpus, bidemand_corpus):
    checked = brute_checked = false_seen = covered = 0
    rng = random.Random(99)
    for m in small_corpus + bidemand_corpus:
        g = market_graph(m)
        sc = refine_covering(g)
        gpi = tight_subgraph(sc, g)
        orderings = []
        if len(m.buyers) == 2:
            orderings.append(adequate_two_buyers(gpi))
        if len(m.buyers) <= 3:
            orderings.append(adequate_three_buyers(gpi))
        if all(m.demand[t] <= 2 for t in m.buyers):
            orderings.append(adequate_bidemand(gpi))
        if not orderings:
            continue  # four buyers with a demand above two: no construction applies
        covered += 1
        for sigma in orderings:
            assert verify_adequate(gpi, sigma)
            checked += 1
        if len(gpi.items) <= 10:
            # verify_adequate vs direct b-factor enumeration, good and bad orders
            for sigma in orderings[:1]:
                assert brute_verify_adequate(gpi, sigma) == verify_adequate(gpi, sigma)
                brute_checked += 1
            shuffled = list(gpi.items)
            rng.shuffle(shuffled)
            got = verify_adequate(gpi, shuffled)
            assert got == brute_verify_adequate(gpi, shuffled)
            brute_checked += 1
            false_seen += not got
    report(3, covered >= 200 and checked >= 300 and false_seen > 0,
           f"{checked} constructed orderings adequate over {covered} instances; "
           f"verify_adequate matched brute force {brute_checked} times "
           f"({false_seen} negatives)")


def test_criterion_4_uncrossing(bidemand_corpus):
    assert len(bidemand_corpus) >= 100
    pairs = finder_checks = case2 = 0
    for m in bidemand_corpus:
        g = market_graph(m)
        sc = refine_covering(g)
        gpi = tight_subgraph(sc, g)
        danger = brute_dangerous_sets(gpi)
        assert sorted(map(sorted, all_dangerous_sets(gpi))) == sorted(map(sorted, danger))
        base = min_surplus_set(gpi)
        want_val, want_sets = brute_min_surplus(gpi)
        assert base[1] == want_val and base[0] in want_sets
        finder_checks += 1
        if want_val < 1:
            continue  # disconnected tight graph: Case 3, claims out of scope
        case2 += 1
        full = frozenset(gpi.buyers)
        for y1, y2 in combinations(danger, 2):
            if y1 | y2 == full:
                continue
            pairs += 1
            if not y1 & y2:
                common = gpi.neighbors(y1) & gpi.neighbors(y2)
                if common:
                    assert len(common) == 1
                    assert is_dangerous(gpi, y1 | y2)
            else:
                assert is_dangerous(gpi, y1 & y2)
                assert is_dangerous(gpi, y1 | y2)
        Z = maximal_dangerous_set(gpi)
        if danger:
            assert Z in danger and not any(Z < Y for Y in danger)
            X = minimal_dangerous_disjoint(gpi, Z)
            disjoint = [Y for Y in danger if not (Y & Z)]
            if X is None:
                assert not disjoint
            else:
                assert X in disjoint and not any(Y < X for Y in disjoint)
        else:
            assert Z is None
        finder_checks += 1
    report(4, pairs > 0 and case2 >= 30,
           f"uncrossing held on {pairs} dangerous pairs across {case2} case-2 "
           f"instances; finders matched enumeration in {finder_checks} checks")


def test_criterion_5_unit_demand_end_to_end():
    import math
    instances = []
    for k in range(100):
        nb = 6 if k < 50 else (5 if k < 80 else 4)
        hi = 20 if k % 3 else 4
        instances.append(generate_instance(31000 + k, nb, 1, (1, hi)))
    t0 = time.perf_counter()
    runs = 0
    for m in instances:
        v = run_exhaustive(m)
        assert v.all_optimal and v.complete
        assert v.runs_checked >= math.factorial(len(m.buyers))  # every order covered
        runs += v.runs_checked
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 60.0,
           f"{len(instances)} unit markets (50 with 720 orders), {runs} runs, "
           f"all optimal in {elapsed:.2f}s (< 60s)")


def test_criterion_6_three_buyers_end_to_end():
    runs = 0
    for k in range(100):
        rng = random.Random(41000 + k)
        profile = [rng.randint(1, 4) for _ in range(3)]
        hi = 6 if k % 2 else 3
        m = generate_instance(43000 + k, 3, profile, (1, hi))
        v = run_exhaustive(m)
        assert v.all_optimal and v.complete
        runs += v.runs_checked
    report(6, True, f"100 three-buyer markets (demands <= 4), {runs} runs, all optimal")


def test_criterion_7_bidemand_end_to_end():
    import math
    instances = []
    for k in range(200):
        nb = 2 + k % 4
        hi = 3 if k % 2 == 0 else 6
        instances.append(generate_instance(53000 + k, nb, 2, (1, hi)))
    runs = 0
    for m in instances:
        # multi-demand pricing raises if any step's best bundle is not unique,
        # so a completed sweep has exactly |T|! runs, one per arrival order
        v = run_exhaustive(m)
        assert v.all_optimal and v.complete
        assert v.runs_checked == math.factorial(len(m.buyers))
        runs += v.runs_checked
    report(7, True,
           f"200 bi-demand markets (|T| in 2..5), {runs} runs, all optimal, "
           f"unique best bundle at every step")


def test_criterion_8_figure_regression():
    m = figure_market()
    opt, allocs = oracle_opt(m)
    want = {
        frozenset([("t1", "s1"), ("t1", "s3"), ("t2", "s2"), ("t2", "s5"),
                   ("t3", "s4"), ("t3", "s6")]),
        frozenset([("t1", "s1"), ("t1", "s4"), ("t2", "s2"), ("t2", "s3"),
                   ("t3", "s5"), ("t3", "s6")]),
    }
    got = {frozenset((t, s) for t, bun in a.items() for s in bun)
           for a in allocs}
    assert got == want, "reconstruction must have exactly the two listed optima"
    legal, _, _ = oracle_structure(m)
    assert ("s1", "t1") in legal
    assert ("s3", "t1") in legal and ("s4", "t1") in legal
    assert not oracle_feasible(m, "t1", {"s3", "s4"})
    rp = multi_round(m)
    assert frozenset({"s3", "s4"}) not in best_bundles(m, "t1", rp.prices)
    v = run_exhaustive(m)
    assert v.all_optimal and v.complete
    report(8, True,
           f"figure market: optimum set is exactly the two listed matchings, "
           f"{v.runs_checked} runs all optimal, t1 never offered s3+s4")


def test_criterion_9_negative_control(d1_market):
    g = market_graph(d1_market)
    sc = refine_covering(g)
    gpi = tight_subgraph(sc, g)
    bad = reversed_ordering_strategy(gpi)
    assert not verify_adequate(gpi, bad), "control needs an inadequate ordering"
    v = run_exhaustive(d1_market, ordering_strategy=reversed_ordering_strategy)
    assert not v.all_optimal
    cx = v.counterexample
    assert cx is not None
    assert cx.final_welfare < v.optimum
    report(9, True,
           f"reversed ordering fails verify_adequate and yields a concrete "
           f"suboptimal trace ({cx.final_welfare} < {v.optimum})")
