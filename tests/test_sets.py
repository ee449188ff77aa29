"""Set-expression semantics: membership, sections, normalisation."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    normalize,
    predicate,
)
from gaussdens.atoms import _atom_contains, compile_set
from gaussdens.sets import (
    ALL,
    EMPTY,
    _check_positive_int,
    _dominates,
    grid_mask,
    int_contains,
    int_mask,
    sections,
)

# ---------------------------------------------------------------------------
# membership examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,point,expected",
    [
        (Lattice(2, 3), (4, 6), True),
        (Lattice(2, 3), (4, 7), False),
        (Translate(FullQuadrant(), (1, 1)), (1, 5), False),
        (Translate(FullQuadrant(), (1, 1)), (2, 2), True),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), (4, 2), True),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), (4, 1), False),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), (4, 16), True),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), (4, 17), False),
        (Dilate((2, 5), FullQuadrant()), (4, 10), True),
        (Dilate((2, 5), FullQuadrant()), (4, 11), False),
        (UpperQuadrant(3, 4), (3, 4), True),
        (UpperQuadrant(3, 4), (2, 9), False),
        (FinitePairs(((1, 7),)), (1, 7), True),
        (FinitePairs(((1, 7),)), (7, 1), False),
        (Empty(), (1, 1), False),
        (Complement(Empty()), (1, 1), True),
        (Difference(Lattice(2, 2), Lattice(4, 4)), (2, 2), True),
        (Difference(Lattice(2, 2), Lattice(4, 4)), (4, 4), False),
        (Delimited(Constant(1), Power(1, 100)), (1, 2), False),   # row 1 is {1}
    ],
)
def test_contains_examples(expr, point, expected):
    assert contains(expr, point) is expected


def test_contains_rejects_boundary_points():
    with pytest.raises(ValidationError):
        contains(FullQuadrant(), (0, 1))
    with pytest.raises(ValidationError):
        contains(FullQuadrant(), (1, 0))


def test_exponential_membership_huge_rows():
    # 2^m overflows floats far before m=1000; membership must stay total
    c = Delimited(Constant(1), Exponential(1, 2))
    assert contains(c, (1000, 999999))
    assert contains(c, (40, 2 ** 40))
    assert not contains(c, (3, 9))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def row_section(e, n):
    """The row n of e as a predicate over m (the construction A_n)."""
    _check_positive_int(n, "row index")
    pred = predicate(e)
    return lambda m: m >= 1 and pred(m, n)


def col_section(e, m):
    """The column m of e as a predicate over n (the construction A^m)."""
    _check_positive_int(m, "column index")
    pred = predicate(e)
    return lambda n: n >= 1 and pred(m, n)


def test_row_section_of_lattice_is_multiples():
    sec = row_section(Lattice(2, 3), 3)
    want = predicate(Product(Multiples(2), FullP()))
    assert [m for m in range(1, 65) if sec(m)] == [m for m in range(1, 65) if m % 2 == 0]
    sec4 = row_section(Lattice(2, 3), 4)
    assert not any(sec4(m) for m in range(1, 65))


def test_row_section_of_delimited_inverts_bound():
    sec = row_section(Delimited(Constant(1), Power(1, 2)), 5)
    # n=5 needs m^2 >= 5, so m >= 3
    assert [m for m in range(1, 10) if sec(m)] == [3, 4, 5, 6, 7, 8, 9]


def test_col_section_examples():
    sec = col_section(Lattice(2, 3), 2)
    assert [n for n in range(1, 13) if sec(n)] == [3, 6, 9, 12]
    assert [n for n in range(1, 10) if col_section(FinitePairs(((1, 7),)), 1)(n)] == [7]
    assert not any(col_section(UpperQuadrant(3, 4), 2)(n) for n in range(1, 30))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_delimited_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        Delimited(Power(1, 2), Power(1, Fraction(1, 2)))


def test_delimited_rejects_lower_below_one():
    with pytest.raises(ValidationError):
        Delimited(Power(Fraction(1, 2), 1), Power(1, 2))  # f(1) = 1/2 < 1


def test_delimited_rejects_exponential_lower_power_upper():
    with pytest.raises(ValidationError):
        Delimited(Exponential(1, 2), Power(1, 50))


def test_delimited_power_exponential_dip_scan():
    # the ratio a^m / m^alpha dips in a middle window; the check must catch
    # 2^3 = 8 < 9 = 3^2 even though the exponential wins eventually
    with pytest.raises(ValidationError):
        Delimited(Power(1, 2), Exponential(1, 2))
    Delimited(Power(1, 2), Exponential(2, 2))   # 2*2^m >= m^2 everywhere
    Delimited(Power(1, 2), Exponential(1, 3))   # 3^m >= m^2 everywhere


@settings(max_examples=200, deadline=None)
@given(st.fractions(Fraction(1, 4), 20, max_denominator=4), st.integers(11, 40),
       st.fractions(Fraction(1, 4), 20, max_denominator=4), st.integers(0, 12),
       st.integers(1, 4))
def test_power_below_exponential_agrees_with_an_exact_scan(c_up, a10, c_lo, p, q):
    # (upper/lower)^q at every row up to two past the ratio's minimum,
    # m* = alpha / log a, in integers; within 1e-9 of 1 the float logs decide
    upper, lower = Exponential(c_up, Fraction(a10, 10)), Power(c_lo, Fraction(p, q))
    worst = min((upper.c * upper.a ** m) ** q / (lower.c ** q * m ** p)
                for m in range(1, int(lower.alpha / math.log(upper.a)) + 3))
    if worst >= 1:
        assert _dominates(upper, lower)
    elif worst < 1 - 1e-9:
        assert not _dominates(upper, lower)


def test_domination_with_parameters_past_the_float_range():
    huge = 10 ** 400
    # m^(10^400) passes 10^400 * 2^m from row 2 on
    with pytest.raises(ValidationError, match="must dominate"):
        Delimited(Power(1, huge), Exponential(huge, 2))
    # a base within 10^-31 of 1 keeps below m^2 up to m ~ 10^33
    with pytest.raises(ValidationError, match="must dominate"):
        Delimited(Power(1, 2), Exponential(1, 1 + Fraction(1, 10 ** 31)))
    # log a = 10^-400 = alpha: the ratio is smallest at row 1, where it is 2
    Delimited(Power(1, Fraction(1, huge)), Exponential(2, 1 + Fraction(1, huge)))
    Delimited(Constant(huge), Exponential(huge, 1 + Fraction(1, huge)))


def test_constructor_validation():
    with pytest.raises(ValidationError):
        Multiples(0)
    with pytest.raises(ValidationError):
        Lattice(0, 1)
    with pytest.raises(ValidationError):
        UpperQuadrant(0, 1)
    with pytest.raises(ValidationError):
        Translate(Empty(), (-1, 0))
    with pytest.raises(ValidationError):
        Dilate((0, 1), Empty())
    with pytest.raises(ValidationError):
        Constant(Fraction(1, 2))
    with pytest.raises(ValidationError):
        Exponential(1, 1)
    with pytest.raises(ValidationError):
        FiniteSet((0,))


def test_power_zero_exponent_equals_constant():
    for c in (3, Fraction(5, 2)):
        p = Power(c, 0)
        k = Constant(c)
        cuts = [(math.ceil(c), math.floor(c))] * 49
        assert [(p.ceil_at(m), p.floor_at(m)) for m in range(1, 50)] == cuts
        assert [(k.ceil_at(m), k.floor_at(m)) for m in range(1, 50)] == cuts


# a cut is checked against the exact one wherever the value lies farther than
# this from an integer (the float value's error is far below 2^-40 relative),
# and saturates wherever the value is at least _CUT_SATURATES
_CUT_SLACK = Fraction(1, 10 ** 9), Fraction(1, 2 ** 40)
_CUT_SATURATES = 2 ** 62 + 2 ** 32
_COEFS = st.one_of(
    st.integers(1, 10 ** 4).map(Fraction),
    st.fractions(Fraction(1, 10 ** 4), 10 ** 4, max_denominator=10 ** 4).filter(bool),
    st.builds(lambda k, sign, j: k + sign * Fraction(1, 10 ** j),
              st.integers(1, 10 ** 4), st.sampled_from((-1, 1)), st.integers(1, 30)),
)
_ROWS = st.lists(st.one_of(st.integers(1, 40), st.integers(1, 1000), st.integers(1, 10 ** 6)),
                 min_size=1, max_size=8)


def _exact_sign(b, m):
    """v -> the sign of b(m) - v for a rational v >= 0, in exact arithmetic: a
    power with alpha = p/q compares c^q·m^p with v^q, an exponential c·base^m
    with v."""
    if isinstance(b, Power):
        q = b.alpha.denominator
        x = b.c ** q * m ** b.alpha.numerator
        return lambda v: (x > v ** q) - (x < v ** q)
    x = b.c * b.a ** m
    return lambda v: (x > v) - (x < v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(Power, _COEFS, st.builds(Fraction, st.integers(0, 48), st.integers(1, 12))),
    st.builds(Exponential, _COEFS,
              st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 100), st.integers(1, 12)))),
    _ROWS)
# values 1e-7, 2e-8 and 8e-9 off an integer, (1 + 10^-9)·2^62, just past
# _CUT_SATURATES, and 10^10, where the float power 10.0^310 overflows
@example(Power(3 + Fraction(1, 10 ** 7), 1), [1, 10, 1000])
@example(Power(5 - Fraction(1, 10 ** 8), Fraction(1, 2)), [4, 9])
@example(Exponential(1 + Fraction(1, 10 ** 9), 2), [3, 61, 62])
@example(Exponential(Fraction(1, 10 ** 300), 10), [309, 310, 311])
def test_cuts_against_the_exact_rational_cut(b, rows):
    f = b.floats
    for m in rows:
        cuts = b.ceil_at(m), b.floor_at(m)
        log_value = f.log_c + (f.alpha * math.log(m) if isinstance(b, Power) else m * f.alpha)
        if log_value > 50.0:       # far past 2^62, where the exact value is too long
            assert cuts == (2 ** 62, 2 ** 62), (b, m)
            continue
        sign = _exact_sign(b, m)
        if sign(_CUT_SATURATES) >= 0:
            assert cuts == (2 ** 62, 2 ** 62), (b, m)
        elif sign(2 ** 39) < 0:    # above 2^39 the slack passes 1/2
            k = math.floor(math.exp(log_value))
            while sign(k) < 0:
                k -= 1
            while sign(k + 1) >= 0:
                k += 1
            near, rel = _CUT_SLACK
            if sign((k + near) / (1 - rel)) > 0 and sign((k + 1 - near) / (1 + rel)) < 0:
                assert cuts == (k + 1, k), (b, m)


def test_a_base_within_2_to_the_minus_53_of_1_keeps_its_log():
    # 1 + 10^-20 rounds to the float 1.0; its log comes from log1p, so the
    # value at m = 10^21 is e^10 = 22026.47
    b = Exponential(1, 1 + Fraction(1, 10 ** 20))
    assert (b.ceil_at(10 ** 21), b.floor_at(10 ** 21)) == (22027, 22026)
    band = Delimited(Constant(1), b)
    assert contains(band, (10 ** 21, 22026))
    assert not contains(band, (10 ** 21, 22027))


@pytest.mark.parametrize("c,m,cuts", [
    (Fraction(1, 10 ** 400), 35099233809252, (0, 0)),
    (Fraction(1, 10 ** 400), 2 * 10 ** 17, (1, 0)),
    (Fraction(1, 10 ** 300), 35099233809252, (348213523279, 348213523278)),
])
def test_a_power_whose_float_product_overflows_cuts_from_its_log(c, m, cuts):
    # m^23 passes the float range while c·m^23 is 5e-89, 0.008 or 3.5e11; the
    # first is within INT_SNAP of 0, so both its cuts snap onto 0
    b = Power(c, 23)
    assert (b.ceil_at(m), b.floor_at(m)) == cuts


# the bounds of test_cuts_against_the_exact_rational_cut, with parameters past
# the float range, an exponent past 2^62 or under the least float, and a base
# within 2^-53 of 1
_FAR_COEFS = st.one_of(_COEFS, st.sampled_from([Fraction(10) ** 400, Fraction(1, 10 ** 400)]))
_ARRAY_CUT_BOUNDS = st.one_of(
    st.builds(Constant, st.one_of(_COEFS.map(lambda k: k + 1), st.just(Fraction(10) ** 400))),
    st.builds(Power, _FAR_COEFS, st.one_of(
        st.builds(Fraction, st.integers(0, 48), st.integers(1, 12)),
        st.sampled_from([Fraction(2 ** 70), Fraction(1, 10 ** 400)]))),
    st.builds(Exponential, _FAR_COEFS, st.one_of(
        st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 100), st.integers(1, 12)),
        st.sampled_from([1 + Fraction(1, 10 ** 20), Fraction(10) ** 400]))),
)


def _row_near_2_to_the_61(b):
    """A row where b's value is about 2^61.5 (1 when every row is past it,
    2^62 when none is)."""
    f = b.floats
    gap = 61.5 * math.log(2) - f.log_c
    if gap <= 0.0 or f.alpha == 0.0:
        return 1 if gap <= 0.0 else 2 ** 62
    x = math.exp(min(gap / f.alpha, 50.0)) if isinstance(b, Power) else gap / f.alpha
    return int(min(max(x, 1.0), 2.0 ** 62))


@settings(max_examples=300, deadline=None)
@given(_ARRAY_CUT_BOUNDS, st.booleans(), st.integers(-40, 10 ** 6), st.integers(0, 80))
# values 1e-9 off an integer, one ulp either side of INT_SNAP where numpy's
# power and libm's differ by an ulp (on AVX-512), the rows around the snap at
# 3.0000000001·m, an exponent past int64 on row 1 alone, and an exponential
# whose float power overflows from row 309 on
@example(Power(Fraction(4822433305072417, 2 ** 58), Fraction(4, 3)), False, 49, 0)
@example(Power(Fraction(2734393439370925, 2 ** 58), Fraction(5, 2)), False, 10, 0)
@example(Power(Fraction(1999885989517589, 2 ** 55), Fraction(1, 2)), False, 2921, 0)
@example(Power(Fraction("3.0000000001"), 1), False, 1, 19)
@example(Power(1, 10 ** 200), False, 1, 0)
@example(Power(3, 2), True, 0, 20)
@example(Exponential(7, 3), True, -10, 20)
@example(Exponential(Fraction(1, 10 ** 300), 10), False, 300, 20)
def test_cut_rows_is_the_scalar_cut_row_by_row(b, near_saturation, start, width):
    # near_saturation: rows from start past a row valued about 2^61.5
    # (across 2^61, where integer parameters leave int64 arithmetic, and
    # 2^62); otherwise rows from start
    lo = max(1, start + (_row_near_2_to_the_61(b) if near_saturation else 0))
    for up in (True, False):
        got = b.cut_rows(lo, lo + width, up)
        assert got.dtype == np.int64
        assert got.tolist() == [b._cut(m, up) for m in range(lo, lo + width + 1)], (lo, up)


# ---------------------------------------------------------------------------
# normalisation rules
# ---------------------------------------------------------------------------


def test_normalize_dilated_lattice():
    assert normalize(Dilate((2, 3), Lattice(2, 1))) == Lattice(4, 3)


def test_normalize_lattice_intersection_lcm():
    assert normalize(Intersection(Lattice(2, 3), Lattice(3, 2))) == Lattice(6, 6)


def test_normalize_product_of_multiples():
    assert normalize(Product(Multiples(2), Multiples(3))) == Lattice(2, 3)
    assert normalize(Product(Multiples(1), Multiples(3))) == Lattice(1, 3)


def test_normalize_nested_translate_sums_offsets():
    out = normalize(Translate(Translate(Empty(), (1, 0)), (0, 1)))
    assert out == Translate(Empty(), (1, 1))


def test_normalize_nested_dilate_multiplies():
    out = normalize(Dilate((2, 2), Dilate((3, 1), Delimited(Constant(1), Power(1, 2)))))
    assert out == Dilate((6, 2), Delimited(Constant(1), Power(1, 2)))


def test_normalize_drops_identity_wrappers():
    d = Delimited(Constant(1), Power(1, 2))
    assert normalize(Translate(d, (0, 0))) == d
    assert normalize(Dilate((1, 1), d)) == d
    assert normalize(Complement(Complement(d))) == d


@pytest.mark.parametrize("m,n,p,q,s,t", [(2, 3, 3, 5, 1, 7), (3, 2, 2, 5, 5, 3),
                                         (4, 1, 7, 2, 3, 9), (1, 6, 5, 1, 4, 5)])
def test_normalize_coprime_intersection_gcd_form(m, n, p, q, s, t):
    # gcd(p,s)=1 and gcd(q,t)=1, so lcm(mp,ms) = m*p*s and lcm(nq,nt) = n*q*t
    import math
    assert math.gcd(p, s) == 1 and math.gcd(q, t) == 1
    got = normalize(Intersection(Lattice(m * p, n * q), Lattice(m * s, n * t)))
    assert got == Lattice(m * p * s, n * q * t)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_int_sets = st.recursive(
    st.one_of(
        st.just(FullP()),
        st.builds(Multiples, st.integers(1, 8)),
        st.builds(lambda xs: FiniteSet(tuple(xs)),
                  st.lists(st.integers(1, 40), min_size=0, max_size=4)),
    ),
    lambda inner: st.one_of(
        st.builds(IntUnion, inner, inner),
        st.builds(IntIntersection, inner, inner),
        st.builds(IntComplement, inner),
    ),
    max_leaves=3,
)

_bounds_lower = st.one_of(
    st.builds(Constant, st.integers(1, 3)),
    st.builds(Power, st.integers(1, 2),
              st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])),
)
_bounds_upper = st.one_of(
    st.builds(Constant, st.integers(1, 6)),
    st.builds(Power, st.integers(1, 3),
              st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])),
    st.builds(Exponential, st.integers(1, 2), st.integers(2, 3)),
)


def _try_delimited(pair):
    lower, upper = pair
    try:
        return Delimited(lower, upper)
    except ValidationError:
        return Delimited(Constant(1), Power(1, 2))


_leaves = st.one_of(
    st.just(Empty()),
    st.just(FullQuadrant()),
    st.builds(Lattice, st.integers(1, 6), st.integers(1, 6)),
    st.builds(Product, _int_sets, _int_sets),
    st.builds(UpperQuadrant, st.integers(1, 5), st.integers(1, 5)),
    st.builds(lambda ps: FinitePairs(tuple(ps)),
              st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)),
                       min_size=0, max_size=4)),
    st.builds(_try_delimited, st.tuples(_bounds_lower, _bounds_upper)),
)

_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Intersection, inner, inner),
        st.builds(Complement, inner),
        st.builds(Difference, inner, inner),
        st.builds(Translate, inner, st.tuples(st.integers(0, 3), st.integers(0, 3))),
        st.builds(lambda f, e: Dilate(f, e),
                  st.tuples(st.integers(1, 3), st.integers(1, 3)), inner),
    ),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_normalize_preserves_membership_on_grid(e):
    assert (grid_mask(e, 1, 64, 64) == grid_mask(normalize(e), 1, 64, 64)).all()


@settings(max_examples=60, deadline=None)
@given(_exprs, st.integers(1, 64), st.integers(1, 64))
def test_membership_realisations_agree(e, m, n):
    # one drawn point, where grid_mask starts past row 1
    direct = contains(e, (m, n))
    assert predicate(e)(m, n) is direct
    assert row_section(e, n)(m) is direct
    assert col_section(e, m)(n) is direct
    assert bool(grid_mask(e, m, m, n)[0, n - 1]) is direct
    # and every point of a box
    box = grid_mask(e, 1, 24, 24)
    pred = predicate(e)
    rows = [row_section(e, k) for k in range(1, 25)]
    secs = sections(e)
    for i in range(1, 25):
        col = col_section(e, i)
        # a column compiled to EMPTY has no member, one compiled to ALL has
        # every member, in the independent vectorised realisation too
        sec = secs(i)
        if sec is EMPTY:
            assert not box[i - 1].any()
        elif sec is ALL:
            assert box[i - 1].all()
        for k in range(1, 25):
            want = bool(box[i - 1, k - 1])
            assert contains(e, (i, k)) is want
            assert pred(i, k) is want
            assert rows[k - 1](i) is want
            assert col(k) is want


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_compiled_atoms_weigh_each_point_by_its_membership(e):
    # the signed multiset of atoms is exact on indicator functions, constant
    # sides compiled as cuts included, under every node _exprs draws
    atoms = compile_set(e)
    for m in range(1, 13):
        for n in range(1, 13):
            weight = sum(c * _atom_contains(a, m, n) for a, c in atoms.items())
            assert weight == contains(e, (m, n)), (m, n)


@settings(max_examples=60, deadline=None)
@given(_int_sets)
def test_int_membership_realisations_agree(e):
    assert not int_contains(e, 0)
    want = int_mask(e, np.arange(1, 65)).tolist()
    assert [int_contains(e, m) for m in range(1, 65)] == want


@settings(max_examples=40, deadline=None)
@given(_exprs, st.integers(1, 3), st.integers(1, 3))
def test_dilate_membership_law(e, a, b):
    dilated = Dilate((a, b), e)
    for m in range(1, 65, 7):
        for n in range(1, 65, 7):
            want = m % a == 0 and n % b == 0 and contains(e, (m // a, n // b))
            assert contains(dilated, (m, n)) is want


@settings(max_examples=40, deadline=None)
@given(_exprs, st.integers(0, 3), st.integers(0, 3))
def test_translate_membership_law(e, m0, n0):
    shifted = Translate(e, (m0, n0))
    for m in range(1, 40, 5):
        for n in range(1, 40, 5):
            want = m > m0 and n > n0 and contains(e, (m - m0, n - n0))
            assert contains(shifted, (m, n)) is want


def _band(c, alpha, dc, dalpha, base):
    """c·m^alpha below (c + dc)·m^(alpha + dalpha), or below (c + dc)·base^m
    where that dominates."""
    lower, upper = Power(c, alpha), Power(c + dc, alpha + dalpha)
    if base is not None and _dominates(Exponential(c + dc, base), lower):
        upper = Exponential(c + dc, base)
    return Delimited(lower, upper)


_fracs = st.builds(Fraction, st.integers(0, 36), st.integers(1, 12))
_bands = st.builds(_band, _COEFS.map(lambda k: k + 1), _fracs, _COEFS | st.just(Fraction(0)),
                   _fracs, st.none() | st.builds(lambda p, q: 1 + Fraction(p, q),
                                                 st.integers(1, 12), st.integers(1, 12)))


@settings(max_examples=60, deadline=None)
@given(st.recursive(_bands, lambda inner: st.one_of(
           st.builds(Intersection, inner, st.builds(Lattice, st.integers(1, 3), st.integers(1, 3))),
           st.builds(Union, inner, inner),
           st.builds(Complement, inner),
           st.builds(Translate, inner, st.tuples(st.integers(0, 5), st.integers(0, 5))),
           st.builds(lambda f, e: Dilate(f, e), st.tuples(st.integers(1, 3), st.integers(1, 3)),
                     inner)),
       max_leaves=3),
       st.integers(1, 400), st.integers(0, 40), st.integers(1, 300))
def test_grid_mask_cuts_band_rows_as_contains_does(e, m_lo, rows, n_hi):
    # band sides with rational parameters and values near integers, where
    # grid_mask reads the array cut and contains the scalar one
    box = grid_mask(e, m_lo, m_lo + rows, n_hi)
    for i in range(rows + 1):
        want = [contains(e, (m_lo + i, n)) for n in range(1, n_hi + 1)]
        assert box[i].tolist() == want, m_lo + i



def test_grid_mask_modulus_above_int64():
    # a modulus above the box matches nothing, without int64 arithmetic
    assert not grid_mask(Lattice(10 ** 20, 1), 1, 5, 5).any()
    huge = Product(FiniteSet((2, 10 ** 20)), IntComplement(Multiples(10 ** 20)))
    mask = grid_mask(huge, 1, 5, 5)
    assert mask[1].all() and mask.sum() == 5


def test_contains_keeps_each_column_under_threads():
    # contains keeps the section of the last m it was asked about; threads
    # that walk one expression with m changing at every call share that memo,
    # so a section torn from its m would show as a wrong member
    e = Union(Difference(Lattice(2, 3), FinitePairs(((2, 3),))),
              Translate(Delimited(Constant(2), Power(2, 1)), (1, 2)))
    box = grid_mask(e, 1, 30, 30)
    points = [(m, n) for n in range(1, 31) for m in range(1, 31)] * 20
    start = threading.Barrier(8)

    def walk():
        start.wait(timeout=10)
        return sum(contains(e, (m, n)) is not bool(box[m - 1, n - 1]) for m, n in points)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(walk) for _ in range(8)]
            assert [f.result(timeout=60) for f in futures] == [0] * 8
    finally:
        sys.setswitchinterval(old)


def test_finite_pairs_cap():
    with pytest.raises(ValidationError):
        FinitePairs(tuple((m, 1) for m in range(1, 10 ** 6 + 2)))
