import ast
import json
import math
import random
import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprice import Market, cli, generate_instance, parse_instance, serialize_market
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
    with pytest.raises(ModelError, match="^invalid JSON: "):
        parse_instance(5)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=100))
def test_rational_string_roundtrip(x):
    assert rational_from_str(rational_to_str(x)) == x


def reference_parse_instance(raw) -> Market:
    """The format's parse written out with no code of `cli`'s: one Fraction per value,
    read by its own pattern, each refusal's message spelled out, and the weights scaled
    over the values' least common denominator here, not by `Market`'s constructors."""
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError("top level must be an object")
    items = data.get("items")
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise ModelError("items: must be a list of strings")
    if not isinstance(data.get("buyers"), list):
        raise ModelError("buyers: must be a list")
    buyers, demand, value = [], {}, {}
    for k, entry in enumerate(data["buyers"]):
        path = f"buyers[{k}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{path}: must be an object")
        if not isinstance(entry.get("id"), str):
            raise ModelError(f"{path}.id: must be a string")
        if type(entry.get("demand")) is not int or entry["demand"] < 1:
            raise ModelError(f"{path}.demand: must be a positive integer")
        if not isinstance(entry.get("values"), dict):
            raise ModelError(f"{path}.values: must be an object")
        if set(entry["values"]) - set(items):
            raise ModelError(f"{path}.values: unknown items "
                             f"{sorted(set(entry['values']) - set(items))!r}")
        for s in items:
            where = f"{path}.values.{s}"
            if s not in entry["values"]:
                raise ModelError(f"{where}: missing (value matrix is complete)")
            text = entry["values"][s]
            if not isinstance(text, str):
                raise ModelError(f"{where}: rationals must be strings, got {type(text).__name__}")
            spelled = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
            if spelled is None:
                raise ModelError(f"{where}: malformed rational {text!r}")
            try:
                p, q = int(spelled[1]), int(spelled[2] or "1")
            except ValueError as exc:
                raise ModelError(f"{where}: {exc}") from None
            if q == 0:
                raise ModelError(f"{where}: denominator must be positive in {text!r}")
            if p < 0:
                raise ModelError(f"{where}: must be non-negative")
            value[(entry["id"], s)] = Fraction(p, q)
        buyers.append(entry["id"])
        demand[entry["id"]] = entry["demand"]
    if len(set(items)) != len(items) or len(set(buyers)) != len(buyers):
        raise ModelError("duplicate ids")
    if set(items) & set(buyers):
        raise ModelError("item and buyer ids must be distinct")
    d = math.lcm(1, *(x.denominator for x in value.values()))
    weight = tuple(int(value[(t, s)] * d) for s in items for t in buyers)
    return Market(tuple(items), tuple(buyers), demand, weight, d)


_EDGE_VALUES = ["0", "-0", "0/5", "-0/5", "007", "6/3", "1" * 30, "9" * 30 + "/7",
                "12/" + "4" * 30, "1" * 4300]
_REFUSED_VALUES = ["-1", "-2/3", "1/0", "3/-5", "+1", " 1", "1.0", "\u0661", "", "1/", "/2",
                   "1" * 5000, "1/" + "7" * 5000, 1, 0, None, 1.5, True, ["1"],
                   "\u00b2", "\u0663", "1" * 4301]
# The digit fast path's boundary, listed last so that the cases before keep their ids:
# digits that `str.isdigit` accepts but are not ASCII, and the interpreter's 4300-digit
# limit on `int`.  "+1", "-0" and "007", which `int` reads too, are listed above.
_BOUNDARY_VALUES = ["1" * 4300, "\u00b2", "\u0663", "1" * 4301]
_CASES = [*(v for v in _EDGE_VALUES + _REFUSED_VALUES if v not in _BOUNDARY_VALUES),
          *_BOUNDARY_VALUES]
_VALUES = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.integers(1, 360)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(_EDGE_VALUES))


@st.composite
def market_documents(draw):
    """A market document, mostly valid: integer, "p/q" and edge-case values, and now
    and then a refused value, a value that is not a string, or a missing or extra item."""
    items = draw(st.lists(st.sampled_from(["s1", "s2", "s3", "s4"]), unique=True,
                          min_size=1, max_size=4))
    buyers = []
    for k in range(draw(st.integers(1, 3))):
        values = {s: draw(st.sampled_from(_REFUSED_VALUES)
                          if draw(st.sampled_from([False] * 7 + [True])) else _VALUES)
                  for s in items}
        change = draw(st.sampled_from(["none"] * 30 + ["drop", "extra"]))
        if change == "drop":
            del values[draw(st.sampled_from(items))]
        elif change == "extra":
            values["x9"] = "1"
        buyers.append({"id": f"t{k + 1}", "demand": draw(st.integers(1, 2)), "values": values})
    return json.dumps({"items": items, "buyers": buyers})


def _parsed(parse, raw):
    """The market's fields and its weights' types, or the ModelError's message."""
    try:
        m = parse(raw)
    except ModelError as exc:
        return str(exc)
    return (m.items, m.buyers, dict(m.demand), m.weight, m.denominator,
            {type(w) for w in m.weight})


def test_parse_is_the_one_fraction_per_value_reference():
    # an integer value is handed over as an int, a "p/q" value as a Fraction; the
    # market, or the refusal and its message, is the reference parse's
    seen = []

    @settings(max_examples=400, deadline=None)
    @given(market_documents())
    def check(raw):
        seen.append(_parsed(parse_instance, raw))
        assert seen[-1] == _parsed(reference_parse_instance, raw)

    check()
    # the documents meet integer and fractional markets and each kind of refusal
    markets = [m for m in seen if isinstance(m, tuple)]
    errors = " ".join(m for m in seen if isinstance(m, str))
    assert sum(m[4] > 1 for m in markets) > 50 and sum(m[4] == 1 for m in markets) > 50
    for message in ("malformed rational", "denominator must be positive", "must be non-negative",
                    "rationals must be strings", "missing (value matrix is complete)",
                    "unknown items"):
        assert message in errors, message


@pytest.mark.parametrize("value", _CASES, ids=[f"{k}:{v!r:.12}" for k, v in enumerate(_CASES)])
def test_parse_of_each_edge_case_is_the_reference(value):
    # each value of the documents above, alone and beside a "p/q" value
    for values in ({"s1": value}, {"s1": value, "s2": "1/2"}):
        raw = json.dumps({"items": list(values), "buyers": [
            {"id": "t1", "demand": 1, "values": values}]})
        parsed = _parsed(parse_instance, raw)
        assert parsed == _parsed(reference_parse_instance, raw)
        assert isinstance(parsed, str) == (value in _REFUSED_VALUES)


def test_generate_draws_one_int_per_value_in_buyer_order():
    # the same random draws as a market of one Fraction per value, over denominator one
    for seed, buyers, profile, (lo, hi) in [(1, 3, 2, (1, 3)), (7, 4, [1, 3, 2, 1], (2, 9)),
                                            (12, 2, 1, (10**20, 10**20 + 5))]:
        m = generate_instance(seed, buyers, profile, (lo, hi))
        rng = random.Random(seed)
        drawn = [rng.randint(lo, hi) for _ in m.buyers for _ in m.items]
        assert [x for t in m.buyers for x in m.column(t)] == drawn and m.denominator == 1
        assert m == Market.build(m.items, m.buyers, m.demand,
                                 {key: Fraction(v) for key, v in m.value.items()})


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


# the output of `dynprice generate --seed 1 --buyers 4 --demands 2`, pinned byte for byte
_GENERATED_SEED_1 = (
    '{"buyers": [{"demand": 2, "id": "t1", "values": {"s1": "5", "s2": "19", "s3": "3", '
    '"s4": "9", "s5": "4", "s6": "16", "s7": "15", "s8": "16"}}, {"demand": 2, "id": "t2", '
    '"values": {"s1": "13", "s2": "7", "s3": "4", "s4": "16", "s5": "1", "s6": "13", "s7": '
    '"14", "s8": "20"}}, {"demand": 2, "id": "t3", "values": {"s1": "1", "s2": "15", "s3": '
    '"9", "s4": "8", "s5": "19", "s6": "4", "s7": "11", "s8": "1"}}, {"demand": 2, "id": '
    '"t4", "values": {"s1": "1", "s2": "1", "s3": "18", "s4": "1", "s5": "13", "s6": "7", '
    '"s7": "14", "s8": "1"}}], "items": ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]}')


def test_cli_generate_prints_the_same_bytes(capsys):
    assert main(["generate", "--seed", "1", "--buyers", "4", "--demands", "2"]) == 0
    assert capsys.readouterr().out == _GENERATED_SEED_1 + "\n"


def reference_serialize_market(m: Market) -> dict:
    """`serialize_market` with one `rational_to_str` per value, read through `Market.value`."""
    return {"items": list(m.items),
            "buyers": [{"id": t, "demand": m.demand[t],
                        "values": {s: rational_to_str(m.value[(t, s)]) for s in m.items}}
                       for t in m.buyers]}


@st.composite
def value_markets(draw):
    """A market of up to 4 items and 4 buyers: ints, zeros, and now and then Fractions."""
    items = [f"s{k + 1}" for k in range(draw(st.integers(0, 4)))]
    buyers = [f"t{k + 1}" for k in range(draw(st.integers(0, 4)))]
    values = st.integers(0, 30) | st.sampled_from([0, 10**40])
    if draw(st.booleans()):
        values |= st.fractions(0, 30, max_denominator=12)
    return Market.build(items, buyers, {t: draw(st.integers(1, 2)) for t in buyers},
                        {(t, s): draw(values) for t in buyers for s in items})


@settings(max_examples=150, deadline=None)
@given(value_markets())
def test_serialize_is_the_one_string_per_value_reference(m):
    # every value, in item order, over the market's denominator or as the int it is
    assert json.dumps(serialize_market(m)) == json.dumps(reference_serialize_market(m))
    assert parse_instance(json.dumps(serialize_market(m))) == m


def test_serialize_meets_ints_zeros_and_denominators_above_one():
    zeros = Market.build(["s1", "s2"], ["t1"], {"t1": 1}, {("t1", "s1"): 0, ("t1", "s2"): 0})
    halves = Market.build(["s1", "s2"], ["t1", "t2"], {"t1": 1, "t2": 1},
                          {("t1", "s1"): Fraction(1, 2), ("t1", "s2"): 0,
                           ("t2", "s1"): Fraction(7, 6), ("t2", "s2"): 3})
    assert halves.denominator == 6
    for m in (generate_instance(5, 3, 2, (1, 9)), zeros, halves):
        assert serialize_market(m) == reference_serialize_market(m)
    assert serialize_market(halves)["buyers"][1]["values"] == {"s1": "7/6", "s2": "3"}
    assert serialize_market(zeros)["buyers"][0]["values"] == {"s1": "0", "s2": "0"}


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


@pytest.mark.parametrize("profile", [1, [1, 1, 1]], ids=["uniform", "list"])
def test_generate_refuses_a_negative_buyer_count_by_name(profile, capsys):
    # refused before the cell cap and the profile are read, naming the buyers
    with pytest.raises(ModelError, match="^buyers must be an int >= 0$"):
        generate_instance(1, -3, profile)
    assert main(["generate", "--seed", "1", "--buyers", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: buyers must be an int >= 0\n")
    assert generate_instance(1, 0, []).buyers == ()


@pytest.mark.parametrize("seed", [1.5, "1", True, None, [1]],
                         ids=["float", "str", "bool", "none", "list"])
def test_generate_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ModelError, match="^seed must be an int$"):
        generate_instance(seed, 3, 1)


def test_cli_generate_rejects_malformed_demands(capsys):
    for raw in ("2,x", "x", ""):
        assert main(["generate", "--seed", "4", "--buyers", "2", "--demands", raw]) == 2
        assert "--demands" in capsys.readouterr().err


def test_cli_solve_dual_order_price(tmp_path, capsys, e2):
    path = write_market(tmp_path, e2)
    assert main(["solve", "--input", path]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert text == json.dumps({
        "allocation": {"t1": ["s1", "s2"], "t2": ["s3", "s4"]},
        "matching": [["s1", "t1"], ["s2", "t1"], ["s3", "t2"], ["s4", "t2"]],
        "pi": {"s1": "0", "s2": "0", "s3": "0", "s4": "0", "t1": "4", "t2": "3"},
        "welfare": "14"}, sort_keys=True) + "\n"
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


def test_cli_solve_lists_an_empty_bundle(tmp_path, capsys):
    # t3 values nothing and gets nothing: its bundle is listed, empty
    path = tmp_path / "t3.json"
    path.write_text(json.dumps({"items": ["s1", "s2"], "buyers": [
        {"id": "t1", "demand": 1, "values": {"s1": "3", "s2": "1"}},
        {"id": "t2", "demand": 1, "values": {"s1": "1", "s2": "0"}},
        {"id": "t3", "demand": 1, "values": {"s1": "0", "s2": "0"}}]}))
    assert main(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps({
        "allocation": {"t1": ["s1"], "t2": ["s2"], "t3": []},
        "matching": [["s1", "t1"], ["s2", "t2"]],
        "pi": {"s1": "1", "s2": "0", "t1": "2", "t2": "0", "t3": "0"},
        "welfare": "3"}, sort_keys=True) + "\n"


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
    # the growth of the maximal dangerous set starts from verify's own minimizer:
    # verify makes one unconstrained surplus search, the growth only constrained ones
    import dynprice.sets as sets
    from dynprice import maximal_dangerous_set
    from dynprice.pricing import tight_market
    searches = []
    real = sets.min_surplus_set

    def counting(gpi, include=(), exclude=()):
        searches.append((frozenset(include), frozenset(exclude)))
        return real(gpi, include, exclude)

    monkeypatch.setattr(sets, "min_surplus_set", counting)
    path = write_market(tmp_path, d1_market, "d1.json")
    assert main(["verify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_surplus"] == 1
    assert searches.count((frozenset(), frozenset())) == 1
    assert len(searches) > 1 and all(inc for inc, _ in searches[1:])
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


@pytest.mark.parametrize("demand", [1, 2])
def test_refine_refusing_trims_optimum_is_an_internal_error(tmp_path, capsys, monkeypatch, demand):
    # trim's optimum less one edge is below the optimum: refine refuses it, and
    # that is an engine fault, so exit 3, not the caller's exit 2
    from dynprice import model, multi_round, pricing, unit_round
    from dynprice.errors import InternalConsistencyError

    def short_trim(m):
        trimmed, g, removed, best = model.trim_items(m)
        return trimmed, g, removed, best - {min(best)}

    monkeypatch.setattr(pricing, "trim_items", short_trim)
    m = generate_instance(1, 4, demand, (1, 4))
    for round_fn in (unit_round if demand == 1 else multi_round, pricing.tight_market):
        with pytest.raises(InternalConsistencyError, match="^trimmed optimum refused: "):
            round_fn(m)
    path = write_market(tmp_path, m)
    for verb in ("price", "order", "verify", "simulate"):
        assert main([verb, "--input", path]) == 3
        assert capsys.readouterr().err.startswith("internal error: trimmed optimum refused: ")


@pytest.mark.parametrize("argv, code", [
    (["--seed", "14", "--buyers", "6", "--demand", "2", "--value-hi", "2"], 0),
    (["--buyers", "10", "--demand", "2"], 2),
    (["--buyers", "3", "--demand", "2"], 3)],
    ids=["all-cases", "past-oracle-cap", "engine-fault"])
def test_price_walkthrough_exit_codes(monkeypatch, capsys, argv, code):
    # the walkthrough keeps `dynprice`'s exit codes: an engine fault is 3, never 1
    import dynprice
    from dynprice.errors import InternalConsistencyError

    def broken(m, ordering_strategy=None):
        raise InternalConsistencyError("refined dual is not optimal")

    if code == 3:       # the script imports multi_round when it runs
        monkeypatch.setattr(dynprice, "multi_round", broken)
    script = Path(__file__).resolve().parents[1] / "scripts" / "price_walkthrough.py"
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    assert runpy.run_path(str(script))["main"]() == code
    out, err = capsys.readouterr()
    if code == 3:
        assert err == "internal error: refined dual is not optimal\n"
    elif code:
        assert err == "error: oracle limited to 12 items\n"
    else:
        cases = {c for ln in out.splitlines() if ln.startswith("  case trace:")
                 for c in ast.literal_eval(ln.split(":", 1)[1])}
        assert cases == {"base", "1", "2.1", "2.2.1", "2.2.2", "3"}
        assert out.endswith("final welfare 24 (optimum 24)\n")


def test_cli_pretty_prints_indented_sorted_json(tmp_path, capsys, e2):
    path = write_market(tmp_path, e2)
    assert main(["price", "--input", path]) == 0
    plain = capsys.readouterr().out
    assert main(["price", "--input", path, "--pretty"]) == 0
    pretty = capsys.readouterr().out
    assert plain == json.dumps(json.loads(plain), sort_keys=True) + "\n"
    assert pretty == json.dumps(json.loads(plain), indent=2, sort_keys=True) + "\n"
    assert pretty.startswith('{\n  "delta": ')


def test_cli_missing_input_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for verb in ("solve", "dual", "order", "price", "simulate", "verify"):
        assert main([verb, "--input", missing]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "missing.json" in err


def test_cli_help_lists_the_seven_verbs_in_order(capsys):
    verbs = ["generate", "solve", "dual", "order", "price", "simulate", "verify"]
    with pytest.raises(SystemExit, match="^0$"):
        main(["--help"])
    out = capsys.readouterr().out
    assert "{" + ",".join(verbs) + "}" in out
    assert [ln.split()[0] for ln in out.splitlines()
            if ln.startswith("    ") and ln.split()[0] in verbs] == verbs


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
