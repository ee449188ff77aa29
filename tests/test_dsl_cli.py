"""DSL parsing, printing, and the command-line front end."""

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


def test_cli_engine_error_exit(capsys):
    # seven scheduled points cannot carry a degree-9 fit
    code = main(["estimate", "P2", "--degree", "9"])
    assert code == 1
    assert "engine error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exact", "P2", "--budget", "0"],
    ["estimate", "P2", "--degree", "0"],
    ["check", "--workers", "0"],
    ["oracle", "P2", "--N", "0"],
    ["sweep", "P2", "--points", "1"],
    ["exact", "P2", "--budget", "many"],
    ["sweep", "P2", "--eps", "-1"],
    ["estimate", "P2", "--eps", "0"],
    ["estimate", "P2", "--eps", "nan"],
    ["compare", "P2", "--eps", "inf"],
    ["estimate", "P2", "--eps", "small"],
])
def test_cli_numeric_flags_validated(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_cli_tiny_exponent_band_is_unmet_not_a_crash(capsys):
    # the first direct row of a pow(1, 10^-6) lower side lies past 2^62
    text = "delim(pow(1,1/1000000),pow(1,1000000))"
    for command in ("estimate", "compare"):
        assert main([command, text]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "error" not in captured.err
        assert "converged=False" in captured.out or "budget-limited" in captured.out


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
    # Constant.log_value takes log 10^400 from its digits, so domination is
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


def test_cli_exponent_beyond_the_float_range_is_an_engine_error(capsys):
    # the series engine takes a power's exponent as a float
    text = f"delim(pow(1,1/2),pow(1,{10 ** 400}))"
    assert main(["estimate", text]) == 1
    captured = capsys.readouterr()
    assert "engine error" in captured.err and "Traceback" not in captured.err
    # the oracle's row cuts are exact integers: row 1 is c, later rows saturate
    assert main(["oracle", text]) == 0
    captured = capsys.readouterr()
    assert "oracle=" in captured.out and captured.err == ""


def test_cli_closed_stdout_exits_1_quietly():
    # the reader closes the pipe before the first write
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gaussdens.cli", "estimate", "P2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


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


def test_cli_check_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["check", "--format", "csv", "--out", str(a)]) == 0
    assert main(["check", "--format", "csv", "--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "FAIL" not in text
