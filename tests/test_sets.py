"""Set-expression semantics: membership, sections, normalisation."""

from fractions import Fraction

import numpy as np
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
    col_section,
    contains,
    normalize,
    predicate,
    row_section,
)
from gaussdens.sets import grid_mask, int_contains, int_mask

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
    # the ratio a^m / m^alpha dips in a middle window; the scan must catch
    # 2^3 = 8 < 9 = 3^2 even though the exponential wins eventually
    with pytest.raises(ValidationError):
        Delimited(Power(1, 2), Exponential(1, 2))
    Delimited(Power(1, 2), Exponential(2, 2))   # 2*2^m >= m^2 everywhere
    Delimited(Power(1, 2), Exponential(1, 3))   # 3^m >= m^2 everywhere


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
    p = Power(3, 0)
    k = Constant(3)
    assert all(p.value(m) == k.value(m) for m in range(1, 50))
    assert all(p.ceil_at(m) == k.ceil_at(m) for m in range(1, 50))


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
    for i in range(1, 25):
        col = col_section(e, i)
        for k in range(1, 25):
            want = bool(box[i - 1, k - 1])
            assert contains(e, (i, k)) is want
            assert pred(i, k) is want
            assert rows[k - 1](i) is want
            assert col(k) is want


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


def test_grid_mask_modulus_above_int64():
    # a modulus above the box matches nothing, without int64 arithmetic
    assert not grid_mask(Lattice(10 ** 20, 1), 1, 5, 5).any()
    huge = Product(FiniteSet((2, 10 ** 20)), IntComplement(Multiples(10 ** 20)))
    mask = grid_mask(huge, 1, 5, 5)
    assert mask[1].all() and mask.sum() == 5


def test_finite_pairs_cap():
    with pytest.raises(ValidationError):
        FinitePairs(tuple((m, 1) for m in range(1, 10 ** 6 + 2)))
