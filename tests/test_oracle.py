"""Brute-force oracles and their agreement with the fast engine."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaussdens import (
    Constant,
    Delimited,
    Exponential,
    FullQuadrant,
    Lattice,
    Power,
    brute_partial_sum,
    contains,
    counting_density,
    exact_density,
    partial_double_sum,
)
from gaussdens.corpus import by_tag
from gaussdens.sets import grid_mask
from test_dsl_cli import _exprs as _dsl_exprs
from test_sets import _exprs as _set_exprs


def test_brute_examples():
    assert brute_partial_sum(FullQuadrant(), 2.0, 2) == pytest.approx(1.5625, rel=1e-15)
    assert brute_partial_sum(Lattice(2, 2), 2.0, 4) == pytest.approx(25.0 / 256.0, rel=1e-15)


def _per_point_partial_sum(e, s, N):
    # the brute oracle's sum taken point by point through contains, in the
    # same order: every column, empty ones too, with one call per point
    total = 0.0
    neg_s = -s
    for m in range(1, N + 1):
        row = 0.0
        for n in range(1, N + 1):
            if contains(e, (m, n)):
                row += float(m * n) ** neg_s
        total += row
    return total


@settings(max_examples=150, deadline=None)
@given(st.one_of(_set_exprs, _dsl_exprs), st.sampled_from([1.5, 2.0, 1.0078125]),
       st.integers(1, 40))
def test_column_sections_keep_every_bit_of_the_per_point_sum(e, s, N):
    assert brute_partial_sum(e, s, N).hex() == _per_point_partial_sum(e, s, N).hex()


def test_brute_scale_guard():
    with pytest.raises(ValueError):
        brute_partial_sum(FullQuadrant(), 2.0, 10 ** 4 + 1)
    with pytest.raises(ValueError):
        brute_partial_sum(FullQuadrant(), 1.0, 100)


def test_counting_scale_guard():
    with pytest.raises(ValueError):
        counting_density(FullQuadrant(), 10 ** 5 + 1)


def test_counting_examples():
    report = counting_density(Lattice(2, 2), 100)
    assert report.count == 2500
    assert report.ratio == pytest.approx(0.25)
    assert counting_density(FullQuadrant(), 10).ratio == 1.0


def test_oracle_equivalence_small():
    # the full-scale equivalence run lives in the acceptance suite
    for entry in by_tag("oracle"):
        for s in (1.25, 2.0):
            brute = brute_partial_sum(entry.expr, s, 120)
            fast = partial_double_sum(entry.expr, s, 120)
            assert abs(brute - fast) <= 1e-12 * max(abs(brute), 1e-300), (entry.name, s)


def test_counting_cross_check_product_families():
    for entry in by_tag("counting"):
        report = counting_density(entry.expr, 10 ** 4)
        exact = exact_density(entry.expr)
        assert exact.is_known
        assert abs(report.ratio - exact.as_float()) <= 0.02, entry.name


def test_counting_is_not_an_oracle_for_power_delimited():
    """Box counting diverges from the series density on power-delimited sets.

    For sqrt(m) <= n <= m^2 almost every box point is eventually inside the
    band, so the box ratio drifts toward 1 while the series density is 1/3.
    The test pins the separation so nobody mistakes the counting report for a
    general-purpose reference.
    """
    e = Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    dens = exact_density(e).as_float()
    r1 = counting_density(e, 1000).ratio
    r2 = counting_density(e, 4000).ratio
    assert dens == pytest.approx(1.0 / 3.0)
    assert r1 > 0.9           # nowhere near 1/3
    assert r2 > r1            # and still climbing toward 1


def test_fractional_exponent_beyond_the_float_range_on_a_box():
    # row 1 of pow(1, (2*10^400+1)/2) is 1 and every later row saturates
    e = Delimited(Constant(1), Power(1, Fraction(2 * 10 ** 400 + 1, 2)))
    mask = grid_mask(e, 1, 20, 20)
    assert mask[0].tolist() == [True] + [False] * 19 and mask[1:].all()
    assert all(contains(e, (m, n)) == mask[m - 1, n - 1]
               for m in range(1, 21) for n in range(1, 21))
    want = math.fsum(float(m * n) ** -2.0 for m in range(1, 21) for n in range(1, 21)
                     if mask[m - 1, n - 1])
    assert brute_partial_sum(e, 2.0, 20) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_exponential_beyond_the_float_range_on_a_box():
    # c = 10^-400 is 0.0 as a float and the base 10^401 overflows one, so
    # the values come from log c + m log a: row 1 is 10, every later row
    # saturates
    e = Delimited(Constant(1), Exponential(Fraction(1, 10 ** 400), 10 ** 401))
    assert [n for n in range(1, 21) if contains(e, (1, n))] == list(range(1, 11))
    mask = grid_mask(e, 1, 20, 20)
    assert mask[0].tolist() == [True] * 10 + [False] * 10 and mask[1:].all()
    assert all(contains(e, (m, n)) == mask[m - 1, n - 1]
               for m in range(1, 21) for n in range(1, 21))
    want = math.fsum(float(m * n) ** -2.0 for m in range(1, 21) for n in range(1, 21)
                     if mask[m - 1, n - 1])
    assert brute_partial_sum(e, 2.0, 20) == pytest.approx(want, rel=1e-14, abs=0.0)
