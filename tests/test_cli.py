import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import generate_instance, parse_instance, serialize_market
from dynprice.cli import main, rational_from_str, rational_to_str
from dynprice.errors import ModelError

from conftest import figure_market


def roundtrip(m):
    return parse_instance(json.dumps(serialize_market(m)))


def test_parse_roundtrip(e1, e2):
    for m in (e1, e2, figure_market()):
        back = roundtrip(m)
        assert back.items == m.items and back.buyers == m.buyers
        assert back.demand == dict(m.demand)
        assert back.value == dict(m.value)


def test_parse_rationals():
    assert rational_from_str("3") == 3
    assert rational_from_str("5/2") == Fraction(5, 2)
    assert rational_to_str(Fraction(5, 2)) == "5/2"
    assert rational_to_str(Fraction(4, 2)) == "2"
    for bad in ("5/0", "x", "1.5", "", "3/-2", 7):
        with pytest.raises(ModelError):
            rational_from_str(bad)


def test_parse_errors():
    base = {"items": ["s1"], "buyers": [{"id": "t1", "demand": 1, "values": {"s1": "1"}}]}
    broken = json.loads(json.dumps(base))
    del broken["buyers"][0]["values"]["s1"]
    with pytest.raises(ModelError, match="missing"):
        parse_instance(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["buyers"][0]["values"]["s1"] = "5/0"
    with pytest.raises(ModelError, match="denominator"):
        parse_instance(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["items"] = ["s1", "s1"]
    with pytest.raises(ModelError):
        parse_instance(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["buyers"][0]["demand"] = 0
    with pytest.raises(ModelError, match="demand"):
        parse_instance(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["buyers"][0]["values"]["s1"] = "-2"
    with pytest.raises(ModelError, match="non-negative"):
        parse_instance(json.dumps(broken))
    # past the interpreter's 4300-digit limit on int conversion, and nested too deep
    broken = json.loads(json.dumps(base))
    broken["buyers"][0]["values"]["s1"] = "1" * 5000
    with pytest.raises(ModelError, match=r"^buyers\[0\]\.values\.s1: "):
        parse_instance(json.dumps(broken))
    with pytest.raises(ModelError, match="^invalid JSON: "):
        parse_instance(json.dumps(base).replace('"demand": 1', '"demand": ' + "9" * 5000))
    with pytest.raises(ModelError, match="^invalid JSON: "):
        parse_instance("[" * 100000 + "]" * 100000)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=100))
def test_rational_string_roundtrip(x):
    assert rational_from_str(rational_to_str(x)) == x


def test_generate_deterministic():
    a = generate_instance(12, 3, 2, (1, 9))
    b = generate_instance(12, 3, 2, (1, 9))
    assert serialize_market(a) == serialize_market(b)
    c = generate_instance(13, 3, 2, (1, 9))
    assert serialize_market(a) != serialize_market(c)


def test_generate_shapes():
    m = generate_instance(0, 3, 2, (1, 5))
    assert len(m.items) == 6
    m2 = generate_instance(0, 2, [1, 3], (1, 5))
    assert len(m2.items) == 4 and m2.demand == {"t1": 1, "t2": 3}
    with pytest.raises(ModelError):
        generate_instance(0, 2, [1], (1, 5))
    with pytest.raises(ModelError):
        generate_instance(0, 2, 2, (0, 5))


def test_generate_satisfies_saturation():
    from dynprice import check_opt_property
    for seed in range(25):
        m = generate_instance(seed, 2 + seed % 3, 2, (1, 3))
        assert check_opt_property(m).opt_property_holds
    rng = random.Random(8)
    for seed in range(60):
        nb = rng.randint(1, 5)
        profile = [rng.randint(1, 4) for _ in range(nb)]
        lo = rng.randint(1, 4)
        hi = lo if seed % 2 else lo + rng.randint(1, 6)
        m = generate_instance(seed, nb, profile, (lo, hi))
        assert check_opt_property(m).opt_property_holds


def write_market(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(serialize_market(m)))
    return str(path)


def test_cli_generate(capsys):
    assert main(["generate", "--seed", "4", "--buyers", "2", "--demands", "2,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    m = parse_instance(json.dumps(data))
    assert m.demand == {"t1": 2, "t2": 1} and len(m.items) == 3


@pytest.mark.parametrize("size", [["--buyers", "1", "--demands", "1000000000"],
                                  ["--buyers", "1000000000"]], ids=["demand", "buyers"])
def test_cli_generate_refuses_an_oversized_market(capsys, size):
    # refused before any list of that size is built
    assert main(["generate", "--seed", "1", *size]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "over the limit" in err


def test_generate_refuses_only_past_the_cell_cap():
    from dynprice.cli import GENERATE_CELL_CAP
    assert len(generate_instance(0, 1, GENERATE_CELL_CAP).items) == GENERATE_CELL_CAP
    with pytest.raises(ModelError):
        generate_instance(0, 1, GENERATE_CELL_CAP + 1)


@pytest.mark.parametrize("args", [
    (1.5, 2), ("2", 2), (True, 2),
    (2, 1.5), (2, True), (2, [1.5, 2]), (2, [2, "1"]), (2, [True, 2]),
    (2, 2, (1.5, 3)), (2, 2, (1, "3")), (2, 2, (True, 3)), (2, 2, (1, 2, 3)), (2, 2, 5)],
    ids=["buyers-float", "buyers-str", "buyers-bool", "profile-float", "profile-bool",
         "entry-float", "entry-str", "entry-bool", "lo-float", "hi-str", "lo-bool",
         "range-three", "range-int"])
def test_generate_refuses_counts_and_bounds_that_are_not_ints(args):
    with pytest.raises(ModelError):
        generate_instance(1, *args)


def test_cli_generate_rejects_malformed_demands(capsys):
    for raw in ("2,x", "x", ""):
        assert main(["generate", "--seed", "4", "--buyers", "2", "--demands", raw]) == 2
        assert "--demands" in capsys.readouterr().err


def test_cli_solve_dual_order_price(tmp_path, capsys, e2):
    path = write_market(tmp_path, e2)
    assert main(["solve", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["welfare"] == "14"
    assert sorted(out["allocation"]["t1"]) == ["s1", "s2"]
    capacity = {s: 1 for s in e2.items} | dict(e2.demand)
    assert sum(Fraction(x) * capacity[v] for v, x in out["pi"].items()) == 14

    assert main(["dual", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, out["tight_edges"])) == [
        ("s1", "t1"), ("s2", "t1"), ("s3", "t2"), ("s4", "t2")]
    assert out["slack"] is not None

    assert main(["order", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["ordering"]) == ["s1", "s2", "s3", "s4"]

    assert main(["price", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "multi" and set(out["prices"]) == set(e2.items)


def test_cli_order_methods(tmp_path, capsys, d1_market):
    # three buyers go through the labeling construction
    path = write_market(tmp_path, d1_market, "d1.json")
    assert main(["order", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "three-buyer"
    assert sorted(out["ordering"]) == sorted(d1_market.items)
    # four bi-demand buyers go through the recursive case analysis
    m4 = generate_instance(2, 4, 2, (1, 2))
    path4 = write_market(tmp_path, m4, "m4.json")
    assert main(["order", "--input", path4]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "bi-demand"
    assert out["case_trace"]  # at least one recursion level recorded
    assert sorted(out["ordering"]) == sorted(m4.items)
    # `order` and `price` pick the same construction, so the same ordering
    assert main(["price", "--input", path4]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == out["ordering"]


def test_cli_simulate_exit_codes(tmp_path, capsys, e2, d1_market):
    path = write_market(tmp_path, e2)
    assert main(["simulate", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_optimal"] is True and out["complete"] is True

    bad = write_market(tmp_path, d1_market, "d1.json")
    assert main(["simulate", "--input", bad, "--sabotage", "reversed"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["all_optimal"] is False
    assert out["counterexample"] is not None
    assert out["counterexample"]["final_welfare"] != out["optimum"]


def test_cli_simulate_sampled(tmp_path, capsys, e1):
    path = write_market(tmp_path, e1)
    assert main(["simulate", "--input", path, "--orders", "4", "--seed", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs_checked"] == 4 and out["complete"] is False


def test_cli_simulate_rejects_negative_counts(tmp_path, capsys, e1):
    path = write_market(tmp_path, e1)
    assert main(["simulate", "--input", path, "--orders", "-3"]) == 2
    assert main(["simulate", "--input", path, "--budget", "-1"]) == 2
    assert main(["simulate", "--input", path, "--budget", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_simulate_rejects_budget_with_orders(tmp_path, capsys, e1):
    # sampled runs have no budget, so a --budget there would be ignored
    path = write_market(tmp_path, e1)
    for budget in ("0", "200000"):
        assert main(["simulate", "--input", path, "--orders", "3", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget" in captured.err and "--orders" in captured.err


def test_cli_verify_searches_unconstrained_surplus_once(tmp_path, capsys, monkeypatch,
                                                        d1_market):
    # the growth of the maximal dangerous set starts from verify's own minimizer
    import dynprice.sets as sets
    from dynprice import maximal_dangerous_set
    from dynprice.pricing import tight_market
    unconstrained = 0
    real = sets._surplus_cut

    def counting(gpi, include, exclude):
        nonlocal unconstrained
        unconstrained += len(include) == 1 and len(exclude) == 1
        return real(gpi, include, exclude)

    monkeypatch.setattr(sets, "_surplus_cut", counting)
    path = write_market(tmp_path, d1_market, "d1.json")
    assert main(["verify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_surplus"] == 1
    assert unconstrained == 2 * (len(d1_market.buyers) - 1)
    assert out["maximal_dangerous"] == sorted(maximal_dangerous_set(tight_market(d1_market).gpi))


def test_cli_verify(tmp_path, capsys):
    path = write_market(tmp_path, figure_market(), "fig.json")
    assert main(["verify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_surplus"] == 1
    assert ["t1"] in out["dangerous_sets"]
    assert out["feasibility"]["t1"]["s3,s4"] is False


def test_cli_verify_draws_no_bundle_over_the_cap(tmp_path, capsys, monkeypatch):
    # each buyer has C(24, 8) = 735 471 candidate bundles, over the cap of 512
    import dynprice.cli as cli
    items = [f"s{k}" for k in range(24)]
    market = {"items": items,
              "buyers": [{"id": t, "demand": 8, "values": dict.fromkeys(items, "1")}
                         for t in ("t1", "t2", "t3")]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(market))
    drawn = 0
    real = cli.combinations

    def counting(pool, r):
        nonlocal drawn
        for combo in real(pool, r):
            drawn += 1
            yield combo

    monkeypatch.setattr(cli, "combinations", counting)
    assert main(["verify", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasibility"] == {"t1": {}, "t2": {}, "t3": {}}
    assert drawn == 0


def test_cli_verify_over_the_dangerous_set_cap(tmp_path, capsys):
    # 17 buyers: one more than all_dangerous_sets enumerates
    assert main(["generate", "--seed", "1", "--buyers", "17"]) == 0
    path = tmp_path / "m17.json"
    path.write_text(capsys.readouterr().out)
    assert main(["verify", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dangerous_sets"] is None
    assert isinstance(out["min_surplus"], int)


def test_cli_model_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"items\": 3}")
    assert main(["dual", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unsupported_market(tmp_path, capsys):
    m = generate_instance(5, 4, 3, (1, 4))
    path = write_market(tmp_path, m, "big.json")
    assert main(["price", "--input", path]) == 2
    assert main(["order", "--input", path]) == 2


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch, e2):
    # a failed self-check must not look like a counterexample (exit 1)
    import dynprice.cli as cli
    from dynprice.errors import InternalConsistencyError

    def broken(m):
        raise InternalConsistencyError("refined dual is not optimal")

    monkeypatch.setattr(cli, "multi_round", broken)
    path = write_market(tmp_path, e2)
    assert main(["price", "--input", path]) == 3
    err = capsys.readouterr().err
    assert err.strip() == "internal error: refined dual is not optimal"


def test_cli_any_other_exception_is_an_internal_error(tmp_path, capsys, monkeypatch, e2):
    # an engine bug that no self-check names still exits 3, never 1
    import dynprice.cli as cli

    def broken(m):
        raise KeyError("s9")

    monkeypatch.setattr(cli, "multi_round", broken)
    assert main(["price", "--input", write_market(tmp_path, e2)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0] == "Traceback (most recent call last):" and "KeyError" in err[-2]
    assert err[-1] == "internal error: KeyError: 's9'"


def test_cli_price_market_without_buyers(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"items": ["s1"], "buyers": []}))
    assert main(["price", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trimmed_away"] == ["s1"] and out["delta"] == "0"


def test_cli_order_and_verify_refuse_what_price_refuses(tmp_path, capsys):
    # t2 is left short in every optimum, so the saturation property fails
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"items": ["s1", "s2"], "buyers": [
        {"id": "t1", "demand": 2, "values": {"s1": "1", "s2": "0"}},
        {"id": "t2", "demand": 1, "values": {"s1": "1", "s2": "0"}}]}))
    errors = []
    for verb in ("price", "order", "verify"):
        assert main([verb, "--input", str(path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: saturation property fails")
    assert errors == [errors[0]] * 3
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"items": ["s1"], "buyers": []}))
    assert main(["order", "--input", str(empty)]) == 0
    assert json.loads(capsys.readouterr().out)["ordering"] == []


@pytest.mark.parametrize("raw, message", [
    ([], "top level must be an object"),
    ({"items": [], "buyers": {}}, "buyers: must be a list"),
    ({"items": [], "buyers": [1]}, "buyers[0]: must be an object"),
    ({"items": [], "buyers": [{"id": 1}]}, "buyers[0].id: must be a string"),
    ({"items": [], "buyers": [{"id": "t1", "demand": 1, "values": []}]},
     "buyers[0].values: must be an object"),
    ({"items": ["s1"], "buyers": [{"id": "t1", "demand": 1, "values": {"s1": "1", "s9": "1"}}]},
     "buyers[0].values: unknown items ['s9']"),
])
def test_parse_refusals_name_the_field(raw, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        parse_instance(json.dumps(raw))
