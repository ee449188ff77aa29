"""DSL parsing, printing, and the command-line front end."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaussdens import (
    Complement,
    Constant,
    Delimited,
    Difference,
    Dilate,
    Empty,
    Exponential,
    FiniteSet,
    FinitePairs,
    FullP,
    FullQuadrant,
    IntComplement,
    IntIntersection,
    IntUnion,
    Intersection,
    Lattice,
    Multiples,
    Power,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    ValidationError,
    contains,
    parse_expression,
    to_dsl,
)
from gaussdens import cli
from gaussdens.cli import main
from gaussdens.corpus import CORPUS
from gaussdens.dsl import MAX_NESTING, ParseError
from gaussdens.sets import grid_mask


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_examples():
    got = parse_expression("inter(lattice(2,3), lattice(3,2))")
    assert got == Intersection(Lattice(2, 3), Lattice(3, 2))
    got = parse_expression("delim(pow(1,0.5), pow(1,2))")
    assert got == Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    assert parse_expression("P2") == FullQuadrant()


def test_parse_rational_literals():
    got = parse_expression("delim(pow(1,1/2), pow(1,2))")
    assert got.lower.alpha == Fraction(1, 2)
    got = parse_expression("delim(const(3/2), pow(2,2))")
    assert got.lower.k == Fraction(3, 2)


def test_parse_whitespace_insensitive():
    a = parse_expression(" union(  lattice( 2 , 3 ),\n translate(P2, 1, 0) ) ")
    b = parse_expression("union(lattice(2,3),translate(P2,1,0))")
    assert a == b


def test_parse_validation_error_domination():
    with pytest.raises(ParseError):
        parse_expression("delim(pow(1,2), pow(1,0.5))")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("lattice(2,)")
    assert err.value.line == 1
    assert err.value.col == 11
    with pytest.raises(ParseError) as err:
        parse_expression("union(P2,\n  bogus(1))")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_expression("delim(pow(1,1/3),7ow(1,3))")
    assert (err.value.line, err.value.col) == (1, 18)
    assert "found '7'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expression("prod(mult(2),\n 7)")
    assert (err.value.line, err.value.col) == (2, 2)
    assert "found '7'" in str(err.value)


@pytest.mark.parametrize("text,col", [
    ("lattice(²,1)", 9),      # superscript two: str.isdigit, but not a digit to int()
    ("lattice(2²,1)", 10),
    ("lattice(٣,1)", 9),      # Arabic-Indic three
])
def test_non_ascii_digits_are_parse_errors(text, col, capsys):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert main(["exact", text]) == 2
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and f"column {col}" in message


def test_parse_rejects_trailing_and_unknown():
    with pytest.raises(ParseError):
        parse_expression("P2 extra")
    with pytest.raises(ParseError):
        parse_expression("frobnicate(2)")
    with pytest.raises(ParseError):
        parse_expression("lattice(0,2)")


def test_roundtrip_on_corpus():
    for entry in CORPUS:
        back = parse_expression(to_dsl(entry.expr))
        assert (grid_mask(back, 1, 64, 64) == grid_mask(entry.expr, 1, 64, 64)).all(), entry.name


_fractions = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=12)
_ints = st.recursive(
    st.one_of(
        st.just(FullP()),
        st.builds(Multiples, st.integers(1, 10 ** 30)),
        st.builds(lambda xs: FiniteSet(tuple(xs)), st.lists(st.integers(1, 99), max_size=4)),
    ),
    lambda inner: st.one_of(
        st.builds(IntUnion, inner, inner),
        st.builds(IntIntersection, inner, inner),
        st.builds(IntComplement, inner),
    ),
    max_leaves=4,
)


def _delimited(pair):
    try:
        return Delimited(*pair)
    except ValidationError:
        return None


_bands = st.builds(
    _delimited,
    st.tuples(
        st.one_of(st.builds(Constant, st.fractions(1, 3, max_denominator=12)),
                  st.builds(Power, st.fractions(1, 2, max_denominator=12), _fractions)),
        st.one_of(st.builds(Power, st.fractions(3, 4, max_denominator=12),
                            st.fractions(3, 4, max_denominator=12)),
                  st.builds(Exponential, st.fractions(3, 4, max_denominator=12),
                            st.fractions(2, 3, max_denominator=12))),
    ),
).filter(lambda band: band is not None)

# far parameters: exponents far from 1, coefficients and bases up to 10^400,
# a base just above 1, and quadrant cuts up to 10^6 above the band
_far_coefs = st.one_of(st.integers(1, 4), st.integers(1, 10 ** 400))
_far_exps = st.sampled_from([Fraction(1, 1000), Fraction(1, 7), Fraction(2 ** 70)])
_far_bases = st.one_of(st.just(1 + Fraction(1, 10 ** 400)), st.integers(2, 10 ** 400))
_far_band = st.builds(
    _delimited,
    st.tuples(
        st.one_of(st.builds(Constant, _far_coefs), st.builds(Power, _far_coefs, _far_exps),
                  st.builds(Exponential, _far_coefs, _far_bases)),
        st.one_of(st.builds(Power, _far_coefs, _far_exps),
                  st.builds(Exponential, _far_coefs, _far_bases)),
    ),
).filter(lambda band: band is not None)
_far_bands = st.one_of(_far_band, st.builds(
    Intersection, _far_band,
    st.builds(UpperQuadrant, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))))

_exprs = st.recursive(
    st.one_of(
        st.just(FullQuadrant()),
        st.just(Empty()),
        st.builds(Lattice, st.integers(1, 10 ** 30), st.integers(1, 9)),
        st.builds(Product, _ints, _ints),
        st.builds(lambda ps: FinitePairs(tuple(ps)),
                  st.lists(st.tuples(st.integers(1, 99), st.integers(1, 99)), max_size=3)),
        st.builds(UpperQuadrant, st.integers(1, 9), st.integers(1, 9)),
        _bands,
    ),
    lambda inner: st.one_of(
        st.builds(Translate, inner, st.tuples(st.integers(0, 9), st.integers(0, 9))),
        st.builds(Dilate, st.tuples(st.integers(1, 9), st.integers(1, 9)), inner),
        st.builds(Union, inner, inner),
        st.builds(Intersection, inner, inner),
        st.builds(Complement, inner),
        st.builds(Difference, inner, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_exprs)
def test_print_parse_roundtrip(e):
    # the printer writes each node's fields in the order the parser reads them
    assert parse_expression(to_dsl(e)) == e


def test_parse_finite_and_prod_forms():
    e = parse_expression("finite{(1,2),(3,4)}")
    assert contains(e, (1, 2)) and not contains(e, (2, 1))
    e = parse_expression("prod(compl(mult(2)), P)")
    assert contains(e, (3, 17)) and not contains(e, (2, 17))
    e = parse_expression("prod(set{3,5}, inter(mult(2), mult(3)))")
    assert contains(e, (3, 6)) and not contains(e, (3, 3))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exact_table(capsys):
    code = main(["exact", "lattice(2,3)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/6" in out
    assert "product-rule" in out and "multiples-rule" in out


def test_cli_exact_json(capsys):
    code = main(["exact", "delim(pow(1,1/2), pow(1,2))", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["numerator"] == 1 and doc["denominator"] == 3


def test_cli_parse_error_exit_code(capsys):
    assert main(["exact", "lattice(2,)"]) == 2
    assert main(["exact", "delim(pow(1,2), pow(1,0.5))"]) == 2
    assert "error" in capsys.readouterr().err


def test_nesting_limit_is_a_parse_error(capsys):
    deep = "compl(" * 1500 + "P2" + ")" * 1500
    with pytest.raises(ParseError):
        parse_expression(deep)
    assert main(["exact", deep]) == 2
    assert "nesting" in capsys.readouterr().err
    ok = "compl(" * MAX_NESTING + "P2" + ")" * MAX_NESTING
    assert main(["exact", ok]) == 0


def test_cli_estimate_and_compare(capsys):
    code = main(["estimate", "lattice(2,2)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "extrapolated" in out
    code = main(["compare", "dilate(2,5,P2)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "discrepancy" in out
    assert "0.1" in out


def test_cli_strict_nonconvergent_exit(capsys):
    # generic intersection cannot meet the default eps near s=1
    code = main(["estimate", "inter(delim(const(1),pow(1,2)), lattice(2,2))",
                 "--strict", "--budget", "1000000"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["estimate", "P2", "--budget", "0"],
    ["estimate", "P2", "--degree", "0"],
    ["check", "--workers", "0"],
    ["oracle", "P2", "--N", "0"],
    ["oracle", "P2", "--N", "20000"],
    ["sweep", "P2", "--points", "1"],
    ["sweep", "P2", "--budget", "many"],
    ["sweep", "P2", "--eps", "-1"],
    ["estimate", "P2", "--eps", "0"],
    ["estimate", "P2", "--eps", "nan"],
    ["compare", "P2", "--eps", "inf"],
    ["estimate", "P2", "--eps", "small"],
    # s = 1 + 0.5*2^-52 rounds to 1.0
    ["estimate", "P2", "--schedule", "46..52"],
    ["sweep", "P2", "--points", "2", "--schedule", "0..52"],
])
def test_cli_numeric_flags_validated(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # seven scheduled points cannot carry a degree-9 fit
    ["estimate", "P2", "--degree", "9"],
    ["estimate", "lattice(2,3)", "--schedule", "0..2"],
    ["compare", "lattice(2,3)", "--schedule", "0..3", "--degree", "5"],
])
def test_cli_schedule_shorter_than_the_fit_is_a_usage_error(argv, capsys):
    # each flag is valid alone; together they leave fewer points than the fit needs
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: schedule length") and captured.err.count("\n") == 1


def test_cli_tiny_exponent_band_is_unmet_not_a_crash(capsys):
    # the first direct row of a pow(1, 10^-6) lower side lies past 2^62
    text = "delim(pow(1,1/1000000),pow(1,1000000))"
    for command in ("estimate", "compare"):
        assert main([command, text]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "error" not in captured.err
        assert "converged=False" in captured.out or "budget-limited" in captured.out


# each subcommand but check, with the small flags it takes
_FLAGS_SMALL = {"exact": [],
                "estimate": ["--schedule", "0..3", "--budget", "200000"],
                "compare": ["--schedule", "0..3", "--budget", "200000"],
                "sweep": ["--schedule", "0..3", "--budget", "200000", "--points", "2"],
                "oracle": ["--N", "20"]}


def test_cli_exponent_below_the_float_range(capsys):
    # alpha = 10^-400 is 0.0 as a float, and 1/alpha overflows one
    text = f"delim(pow(1000,1/{10 ** 400}),pow(1000,2))"
    for command, extra in _FLAGS_SMALL.items():
        assert main([command, text] + extra) == 0, command
        assert capsys.readouterr().err == "", command


def test_cli_coefficient_beyond_the_float_range(capsys):
    c = 10 ** 400
    text = f"delim(pow({c},1/2),pow({c},2))"
    assert main(["estimate", text, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error" not in captured.err
    points = json.loads(captured.out)["points"]
    assert points and all(0.0 <= float(p["tail_bound"]) < math.inf for p in points)
    assert main(["exact", text]) == 0
    assert "density   = 1/3" in capsys.readouterr().out


def test_cli_constant_beyond_the_float_range_is_not_a_crash(capsys):
    # sets._coef takes log 10^400 from its digits, so domination is
    # decided exactly: exp(1,2) stays below 10^400 up to m = 1328, so that
    # pair is rejected as delim(const(3),exp(1,2)) is, and exp(10^400,2)
    # dominates it
    c = 10 ** 400
    for command in ("exact", "estimate", "compare", "sweep", "oracle"):
        assert main([command, f"delim(const({c}),exp(1,2))"]) == 2
        captured = capsys.readouterr()
        assert "must dominate" in captured.err and "Traceback" not in captured.err
    assert main(["exact", f"delim(const({c}),exp({c},2))"]) == 0
    assert "density   = 1 = 1.0" in capsys.readouterr().out


def _json_points(command, doc):
    if command == "sweep":
        return doc
    return doc["points"] if command == "estimate" else doc["estimate"]["points"]


def test_cli_exponent_beyond_the_float_range_saturates_past_row_one(capsys):
    # every row past the first of pow(1, 10^400) is past 2^62, as it is for
    # pow(1, 1000): the points of the two bands agree within both tail bounds
    far, near = (f"delim(pow(1,1/2),pow(1,{a}))" for a in (10 ** 400, 1000))
    extra = {"sweep": ["--points", "3"]}
    for command in ("estimate", "compare", "sweep"):
        argv = ["--schedule", "0..3", "--format", "json"] + extra.get(command, [])
        got, want = (_json_points(command, json.loads(_run([command, text] + argv, capsys)))
                     for text in (far, near))
        assert len(got) == len(want) > 0
        for p, q in zip(got, want):
            assert p["s"] == q["s"]
            gap = abs(float(p["value"]) - float(q["value"]))
            assert gap <= float(p["tail_bound"]) + float(q["tail_bound"]), command
    # the oracle's row cuts are exact integers: row 1 is c, later rows saturate
    assert "oracle=" in _run(["oracle", far], capsys)


def test_cli_oracle_on_a_fractional_exponent_beyond_the_float_range(capsys):
    # row 1 of pow(1, (2*10^400+1)/2) is 1 and every later row saturates
    alpha = Fraction(2 * 10 ** 400 + 1, 2)
    assert "oracle=" in _run(["oracle", f"delim(const(1),pow(1,{alpha}))"], capsys)


def test_cli_oracle_on_an_exponential_beyond_the_float_range(capsys):
    # c = 10^-400 and the base 10^401 are past the float range: row 1 holds
    # n = 1..10 and every later row saturates
    text = f"delim(const(1),exp(1/{10 ** 400},{10 ** 401}))"
    doc = json.loads(_run(["oracle", text, "--N", "50", "--format", "json"], capsys))
    sums = [row for row in doc if row["check"] == "partial_sum"]
    assert len(sums) == 4
    assert all(float(row["rel_diff"]) <= 1e-12 for row in sums)


_BIG = 10 ** 400


@pytest.mark.parametrize("text", [f"upper({_BIG},1)", f"translate(P2,{_BIG},0)",
                                  f"lattice({_BIG},3)", f"prod(mult({_BIG}),P)",
                                  f"prod(set{{{_BIG}}},P)", f"finite{{({_BIG},1)}}"],
                         ids=["upper", "translate", "lattice", "mult", "set", "finite"])
def test_cli_sums_past_the_float_range(text, capsys):
    # an axis whose first term or step is past the float range: the first
    # two take their Euler-Maclaurin tail in logs, and a term below the float
    # range is 0.0
    extra = {"estimate": ["--schedule", "0..3"], "compare": ["--schedule", "0..3"],
             "sweep": ["--schedule", "0..3", "--points", "2"], "oracle": ["--N", "20"]}
    for command in ("exact", "estimate", "compare", "sweep", "oracle"):
        assert main([command, text] + extra.get(command, [])) == 0, command
        assert capsys.readouterr().err == "", command


@pytest.mark.parametrize("text", [
    f"translate(delim(const(1),pow(1,2)),{_BIG},0)",
    f"translate(delim(const(1),pow(1,2)),0,{_BIG})",
    f"dilate({_BIG},1,delim(const(1),pow(1,2)))",
    f"translate(delim(const(1),pow(1,2)),{10 ** 308},0)",
    f"translate(delim(const(1),const(5)),0,{_BIG})",
], ids=["translate-u", "translate-v", "dilate", "translate-u-1e308", "constant-band-v"])
def test_cli_delimited_atoms_past_the_float_range(text, capsys):
    # a delimited atom on an axis past the float range is charged its whole
    # mass, and a band between constants is two product atoms whose far
    # column axes are summed in logs: each point reads 0.0 with a finite bound
    for command in ("estimate", "compare", "sweep"):
        argv = [command, text, "--format", "json"] + _FLAGS_SMALL[command]
        points = _json_points(command, json.loads(_run(argv, capsys)))
        assert points, command
        for p in points:
            assert float(p["value"]) == 0.0, command
            assert 0.0 < float(p["tail_bound"]) < math.inf, command


def _run_with_closed_stdout(*argv) -> tuple[int, bytes]:
    """Exit code and stderr of the CLI whose reader closes the pipe before
    the first write."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "gaussdens.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def test_cli_closed_stdout_exits_1_quietly():
    assert _run_with_closed_stdout("estimate", "P2", "--format", "json") == (1, b"")


def test_cli_closed_reader_at_the_out_path_exits_1_quietly():
    # a broken pipe is not an unwritable path
    assert _run_with_closed_stdout("estimate", "P2", "--format", "json",
                                   "--out", "/dev/stdout") == (1, b"")


@pytest.mark.parametrize("argv", [
    ["exact", "P2", "--out", "{missing}/x.txt"],
    ["exact", "P2", "--out", ""],
    ["estimate", "P2", "--format", "csv", "--schedule", "0..3", "--out", "{missing}/x.csv"],
    ["estimate", "P2", "--format", "csv", "--schedule", "0..3", "--out", ""],
    ["sweep", "P2", "--points", "2", "--out", "{missing}/sweep.csv"],
])
def test_cli_unwritable_out_path_is_a_usage_error(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out") and captured.err.count("\n") == 1


def test_cli_exact_exponents_past_the_float_range_stay_rational(capsys):
    big = 10 ** 400
    assert main(["exact", f"delim(pow(1,1/{big}),pow(1,{big}))", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = 1 / (1 + Fraction(1, big)) - Fraction(1, 1 + big)
    assert doc["kind"] == "rational"
    assert Fraction(doc["numerator"], doc["denominator"]) == expected
    assert doc["trace"] == ["power-bounds"]


def test_cli_exponent_past_the_float_range_under_an_exponential_is_rejected(capsys):
    big = 10 ** 400
    text = f"delim(pow(1,{big}),exp({big},2))"
    for command in ("exact", "estimate", "compare", "sweep", "oracle"):
        assert main([command, text]) == 2, command
        err = capsys.readouterr().err
        assert "upper bound must dominate" in err and err.count("\n") == 1, command


def test_cli_oracle_modulus_beyond_int64(capsys):
    assert main(["oracle", "lattice(100000000000000000000,1)"]) == 0
    assert "oracle=0.0" in capsys.readouterr().out


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "lattice(2,2)", "--out", str(out), "--points", "9"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,value,tail_bound,terms_used,method"
    assert len(lines) == 10
    for line in lines[1:]:
        s, value = line.split(",")[:2]
        assert float(value) == pytest.approx(4.0 ** -float(s), rel=1e-12)


# every format of every subcommand: one renderer writes them all

_SMALL = ["--schedule", "0..3", "--budget", "200000"]


def _run(argv, capsys):
    """stdout of a run that exits 0 and writes nothing to stderr"""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", argv
    return captured.out


def test_cli_exact_csv(capsys):
    lines = _run(["exact", "lattice(2,3)", "--format", "csv"], capsys).split("\n")
    assert lines[0] == "kind,value,numerator,denominator,trace"
    assert lines[1].startswith("rational,") and ",1,6," in lines[1]
    assert lines[2:] == [""]


def test_cli_empty_constant_band_exits_0(capsys):
    # no integer lies in [3/2, 17/10]: density 0 with a trace, and 0.0 at
    # every point
    text = "delim(const(3/2),const(17/10))"
    doc = json.loads(_run(["exact", text, "--format", "json"], capsys))
    assert (doc["kind"], doc["numerator"], doc["trace"]) == ("rational", 0, ["empty-set"])
    for command in ("estimate", "compare", "sweep"):
        argv = [command, text, "--format", "json"] + _FLAGS_SMALL[command]
        points = _json_points(command, json.loads(_run(argv, capsys)))
        assert points and all(float(p["value"]) == 0.0 for p in points), command


def test_cli_estimate_json_and_csv_on_stdout(capsys):
    doc = json.loads(_run(["estimate", "lattice(2,3)", "--format", "json"] + _SMALL, capsys))
    assert set(doc) == {"extrapolated", "raw_extrapolated", "clamped", "fit_residual", "drift",
                        "converged", "budget_limited", "points", "exact_reference"}
    assert [set(p) for p in doc["points"]] == [
        {"s", "value", "tail_bound", "terms_used", "method"}] * 4
    assert doc["exact_reference"]["denominator"] == 6
    # the points table, a blank line, the summary table
    out = _run(["estimate", "lattice(2,3)", "--format", "csv"] + _SMALL, capsys)
    points, summary = out.split("\n\n")
    points = points.split("\n")
    assert points[0] == "s,value,tail_bound,terms_used,method" and len(points) == 5
    summary = summary.split("\n")
    assert summary[0] == "extrapolated,fit_residual,drift,converged,clamped,budget_limited,exact"
    assert len(summary) == 3 and summary[2] == ""


def test_cli_compare_csv_and_json(capsys):
    lines = _run(["compare", "lattice(2,3)", "--format", "csv"] + _SMALL, capsys).split("\n")
    assert lines[0] == "exact,extrapolated,discrepancy,converged"
    assert len(lines) == 3 and lines[2] == ""
    doc = json.loads(_run(["compare", "lattice(2,3)", "--format", "json"] + _SMALL, capsys))
    assert set(doc) == {"exact", "estimate", "discrepancy"}
    assert doc["exact"]["kind"] == "rational" and len(doc["estimate"]["points"]) == 4
    # an unknown density has no discrepancy
    unknown = "inter(delim(pow(1,1/2),pow(1,2)),lattice(2,2))"
    doc = json.loads(_run(["compare", unknown, "--format", "json", "--schedule", "0..3",
                           "--budget", "20000"], capsys))
    assert set(doc) == {"exact", "estimate"} and doc["exact"]["kind"] == "unknown"


def test_cli_sweep_json_and_table(capsys):
    argv = ["sweep", "lattice(2,2)", "--points", "3"] + _SMALL
    rows = json.loads(_run(argv + ["--format", "json"], capsys))
    assert [set(r) for r in rows] == [{"s", "value", "tail_bound", "terms_used", "method"}] * 3
    # sweep's table is its CSV
    table = _run(argv, capsys)
    assert table == _run(argv + ["--format", "csv"], capsys)
    assert table.startswith("s,value,tail_bound,terms_used,method\n") and table.count("\n") == 4


def test_cli_check_json_and_table(tmp_path, capsys):
    rows = json.loads(_run(["check", "--format", "json"], capsys))
    assert rows and all(set(r) == {"check", "subject", "status", "detail"} for r in rows)
    lines = _run(["check"], capsys).split("\n")
    assert len(lines) == len(rows) + 2 and lines[-1] == ""
    assert all(line.startswith("pass  ") for line in lines[:-2])
    assert lines[-2] == f"{len(rows)}/{len(rows)} checks passed"
    # written to a file, check's table is its CSV
    out = tmp_path / "check.txt"
    assert main(["check", "--out", str(out)]) == 0
    assert out.read_text() == _run(["check", "--format", "csv"], capsys)
    assert out.read_text().startswith("check,subject,status,detail\n")


_FUZZ_FLAGS = {"exact": [],
               "estimate": ["--budget", "20000", "--schedule", "0..3"],
               "compare": ["--budget", "20000", "--schedule", "0..3"],
               "sweep": ["--budget", "20000", "--schedule", "0..3", "--points", "2"],
               "oracle": ["--N", "20"]}


# the DSL's own characters and some it rejects
_EDIT_CHARS = "()0123456789,/^-²\n {}.abcdefgilmnoprstuxPQ"


@st.composite
def _mutated_texts(draw):
    """A corpus text after 1-4 random character edits (insert, delete, replace)."""
    text = draw(st.sampled_from([to_dsl(entry.expr) for entry in CORPUS]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        new = "" if op == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:i] + new + text[i + (op != "insert"):]
    return text


@settings(max_examples=60, deadline=None)
@given(st.one_of(_exprs.map(to_dsl), _far_bands.map(to_dsl), _mutated_texts()),
       st.sampled_from(("table", "csv", "json")))
def test_cli_fuzz_every_subcommand_exits_with_a_contract_code(text, fmt):
    for command, extra in _FUZZ_FLAGS.items():
        argv = [command, text, "--format", fmt] + extra
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse reads a text that starts with '-' as a flag
                code = exc.code
        assert code in ((0, 2) if command == "exact" else (0, 1, 2, 3)), (argv, err.getvalue())


def test_cli_estimate_csv_pair(tmp_path):
    base = tmp_path / "report.csv"
    code = main(["estimate", "lattice(2,3)", "--format", "csv", "--out", str(base)])
    assert code == 0
    points = (tmp_path / "report.points.csv").read_text().splitlines()
    summary = (tmp_path / "report.summary.csv").read_text().splitlines()
    assert points[0] == "s,value,tail_bound,terms_used,method"
    assert len(points) == 8
    assert summary[0].startswith("extrapolated,")


def test_cli_oracle(capsys):
    code = main(["oracle", "lattice(2,2)", "--N", "60", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        if line.startswith("partial_sum"):
            rel = float(line.rsplit(",", 1)[1])
            assert rel <= 1e-12
    lines = _run(["oracle", "lattice(2,2)", "--N", "60"], capsys).split("\n")
    assert lines[0] == "expression: lattice(2,2)"
    assert [line[:4] for line in lines[1:5]] == ["  s="] * 4
    assert lines[5].startswith("  box count ratio at N=60: ") and lines[6:] == [""]
    rows = json.loads(_run(["oracle", "lattice(2,2)", "--N", "60", "--format", "json"], capsys))
    assert [r["check"] for r in rows] == ["partial_sum"] * 4 + ["counting"]
    assert all(set(r) == {"check", "s", "N", "oracle", "engine", "rel_diff"} for r in rows)


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# sweep settings\nschedule = 0..3\npoints = 5\nformat = csv\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "lattice(2,2)", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 points from the config

    # explicit flags beat config values
    code = main(["sweep", "lattice(2,2)", "--config", str(cfg),
                 "--points", "3", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 4

    bad = tmp_path / "bad.conf"
    bad.write_text("frobnicate = 1\n")
    assert main(["sweep", "lattice(2,2)", "--config", str(bad)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_cli_config_keeps_its_place_and_forms(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("schedule = 0..3\npoints = 3\nformat = json\n")
    want = _run(["sweep", "lattice(2,2)", "--config", str(cfg)], capsys)
    assert len(json.loads(want)) == 3
    for argv in (["--config", str(cfg), "sweep", "lattice(2,2)"],
                 ["sweep", f"--config={cfg}", "lattice(2,2)"]):
        assert _run(argv, capsys) == want, argv
    # one error line and exit 2: a missing path, a missing subcommand, no path
    for argv in (["sweep", "P2", "--config", str(tmp_path / "missing.conf")],
                 ["--config", str(cfg)],
                 ["sweep", "P2", "--config"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv


@pytest.mark.parametrize("command,key", [("exact", "eps"), ("exact", "strict"),
                                         ("oracle", "schedule"), ("check", "budget"),
                                         ("sweep", "degree"), ("estimate", "N")])
def test_cli_config_key_the_subcommand_does_not_take_is_an_error(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"{key} = 1\n")
    argv = [command] + ([] if command == "check" else ["P2"]) + ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:1: unknown option {key!r} for {command}\n"


# the options each subcommand takes, and nothing else
_OPTIONS = {
    "exact": {"--format", "--out", "--config"},
    "estimate": {"--schedule", "--eps", "--budget", "--degree", "--workers", "--strict",
                 "--format", "--out", "--config"},
    "compare": {"--schedule", "--eps", "--budget", "--degree", "--workers", "--strict",
                "--format", "--out", "--config"},
    "sweep": {"--schedule", "--eps", "--budget", "--points", "--format", "--out", "--config"},
    "oracle": {"--N", "--format", "--out", "--config"},
    "check": {"--workers", "--format", "--out", "--config"},
}
_VALUES = {"--schedule": "0..1", "--eps": "1e-3", "--budget": "5", "--degree": "1",
           "--workers": "2", "--points": "3", "--N": "20"}
# estimate's nine options that another subcommand does not take
_REMOVED = [(command, flag) for command, flags in _OPTIONS.items()
            for flag in sorted(_OPTIONS["estimate"] - flags)]


def test_cli_each_subcommand_takes_only_its_own_options():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got, slots = {}, 0
    for command, p in sub.choices.items():
        options = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        got[command] = options
        slots += len(options) + sum(not a.option_strings for a in p._actions)
    assert got == _OPTIONS
    assert slots == 41      # the options and the expression positionals
    assert len(_REMOVED) == 20


@pytest.mark.parametrize("command,flag", _REMOVED)
def test_cli_an_option_the_subcommand_does_not_take_is_a_usage_error(command, flag, capsys):
    argv = [command] + ([] if command == "check" else ["P2"]) + [flag]
    argv += [_VALUES[flag]] if flag in _VALUES else []
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err and "Traceback" not in captured.err


def test_cli_an_unexpected_failure_is_one_engine_error_line(monkeypatch, capsys):
    def fail(expr):
        return 1 / 0

    monkeypatch.setattr(cli, "exact_density", fail)
    assert main(["exact", "P2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "engine error: division by zero\n"
    assert "Traceback" not in captured.err


def test_cli_check_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["check", "--format", "csv", "--out", str(a)]) == 0
    assert main(["check", "--format", "csv", "--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "FAIL" not in text
