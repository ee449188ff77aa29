"""Closed-form density rules and their algebraic identities."""

import math
from fractions import Fraction
from functools import reduce

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
    contains,
    exact_density,
    exact_density_1d,
)
from gaussdens import atoms, exact
from gaussdens.atoms import ATOM_CAP, _CapExceeded, _compile, _product
from gaussdens.corpus import CORPUS
from gaussdens.dsl import parse_expression
from gaussdens.exact import _finite_axes
from gaussdens.sets import int_contains
from test_sets import _exprs as _set_exprs


# union_i translate(lattice(p_i, q_i), (6i, 6i)), (p, q) cycling: 2^k - 1 raw
# atoms that merge to 11, density 4/9 for every k >= 4
_CYCLE = ((2, 3), (3, 2), (2, 2), (3, 3))


def cycling_union(k):
    return reduce(Union, [Translate(Lattice(*_CYCLE[i % 4]), (6 * i, 6 * i))
                          for i in range(k)])


def prime_union(primes):
    """union_i lattice(p_i, p_(i+1)), indices cyclic: 2^k - 1 distinct atoms
    for k distinct primes, density 1 - prod_i (1 - 1/(p_i p_(i+1)))."""
    return reduce(Union, [Lattice(p, q) for p, q in zip(primes, primes[1:] + primes[:1])])


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


# no atom rule meets a finite row with a band: one generic atom, whose finite
# axis section gives density 0
FINITE_ROW_BAND = Intersection(Product(FiniteSet((3,)), FullP()),
                               Delimited(Constant(1), Power(1, 2)))


def frac(e):
    v = exact_density(e)
    assert v.kind == "rational", f"expected rational, got {v.kind}"
    return v.rational


# ---------------------------------------------------------------------------
# one-dimensional engine
# ---------------------------------------------------------------------------


def test_1d_basic_rules():
    assert exact_density_1d(FullP()).rational == 1
    assert exact_density_1d(FiniteSet((1, 2, 3))).rational == 0
    assert exact_density_1d(Multiples(5)).rational == Fraction(1, 5)
    assert exact_density_1d(IntComplement(Multiples(4))).rational == Fraction(3, 4)


def test_1d_intersection_matches_enumeration():
    # M_2 and M_3 meet exactly in M_6 (checked by enumeration), density 1/6
    members = [m for m in range(1, 10 ** 4 + 1) if m % 2 == 0 and m % 3 == 0]
    assert members == [m for m in range(1, 10 ** 4 + 1) if m % 6 == 0]
    got = exact_density_1d(IntIntersection(Multiples(2), Multiples(3)))
    assert got.rational == Fraction(1, 6)


def test_1d_union_inclusion_exclusion():
    got = exact_density_1d(IntUnion(Multiples(2), Multiples(3)))
    assert got.rational == Fraction(1, 2) + Fraction(1, 3) - Fraction(1, 6)
    got = exact_density_1d(IntUnion(Multiples(2), FiniteSet((3, 5))))
    assert got.rational == Fraction(1, 2)
    # odd numbers or multiples of 3: 1/2 + 1/3 - 1/6
    got = exact_density_1d(IntUnion(IntComplement(Multiples(2)), Multiples(3)))
    assert got.rational == Fraction(2, 3)


def test_1d_unknown_is_a_value():
    # eleven primes: 2047 distinct progressions, above the atom cap
    v = exact_density_1d(reduce(IntUnion, [Multiples(p) for p in _PRIMES]))
    assert v.kind == "unknown" and not v.is_known


_int_sets = st.recursive(
    st.one_of(
        st.just(FullP()),
        st.builds(Multiples, st.integers(1, 4)),
        st.builds(lambda xs: FiniteSet(tuple(xs)), st.lists(st.integers(1, 9), max_size=3)),
    ),
    lambda inner: st.one_of(
        st.builds(IntUnion, inner, inner),
        st.builds(IntIntersection, inner, inner),
        st.builds(IntComplement, inner),
    ),
    max_leaves=5,
)


@settings(max_examples=100, deadline=None)
@given(_int_sets, _int_sets)
def test_1d_density_is_the_residue_share_and_restricts_products(a, b):
    # beyond the finite elements (all <= 9) membership has period 12, so a
    # set with no member in one such period is finite
    shares = []
    for e in (a, b):
        v = exact_density_1d(e)
        assert v.kind == "rational"
        assert v.rational == Fraction(sum(int_contains(e, 9 + i) for i in range(1, 13)), 12)
        shares.append(v.rational)
    assert frac(Product(a, b)) == shares[0] * shares[1]
    # a merged progression never cancels to a finite set (the indicators of
    # "multiples of d" are linearly independent), so an axis is finite
    # exactly when its density is 0 -- or when the other side is empty
    empty = not all(any(int_contains(e, x) for x in range(1, 22)) for e in (a, b))
    assert _finite_axes(Product(a, b), {}) == tuple(empty or d == 0 for d in shares)


# ---------------------------------------------------------------------------
# two-dimensional rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,expected",
    [
        (Empty(), 0),
        (FullQuadrant(), 1),
        (FinitePairs(((1, 1), (4, 9))), 0),
        (UpperQuadrant(7, 2), 1),
        (Lattice(2, 3), Fraction(1, 6)),
        (Lattice(1, 1), 1),
        (Product(Multiples(3), Multiples(5)), Fraction(1, 15)),
        (Product(IntComplement(Multiples(2)), FullP()), Fraction(1, 2)),
        (Intersection(Lattice(2, 3), Lattice(3, 2)), Fraction(1, 36)),
        (Intersection(Lattice(4, 6), Lattice(6, 4)), Fraction(1, 144)),
        (Translate(Lattice(2, 2), (7, 9)), Fraction(1, 4)),
        (Dilate((2, 5), FullQuadrant()), Fraction(1, 10)),
        (Dilate((2, 3), Lattice(2, 1)), Fraction(1, 12)),
        (Union(Lattice(2, 3), Lattice(3, 2)), Fraction(11, 36)),
        (Complement(Lattice(2, 2)), Fraction(3, 4)),
        (Difference(Lattice(2, 2), Lattice(4, 4)), Fraction(3, 16)),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), Fraction(1, 3)),
        (Delimited(Power(1, 1), Power(1, 3)), Fraction(1, 4)),
        (Delimited(Constant(1), Power(1, 2)), Fraction(2, 3)),
        (Delimited(Constant(1), Exponential(1, 2)), 1),
        (Delimited(Power(1, 1), Exponential(1, 2)), Fraction(1, 2)),
        (Delimited(Exponential(1, 2), Exponential(1, 3)), 0),
        (Delimited(Power(2, Fraction(1, 2)), Power(3, 2)), Fraction(1, 3)),
        (Union(Union(Translate(Lattice(2, 3), (0, 0)), Translate(Lattice(3, 2), (6, 6))),
               Translate(Lattice(2, 2), (12, 12))), Fraction(5, 12)),
        (cycling_union(9), Fraction(4, 9)),
        (cycling_union(10), Fraction(4, 9)),
        (cycling_union(12), Fraction(4, 9)),
        # 1023 distinct atoms, within the cap
        (prime_union(_PRIMES[:10]),
         1 - math.prod(1 - Fraction(1, p * q)
                       for p, q in zip(_PRIMES[:10], _PRIMES[1:10] + (2,)))),
        (FINITE_ROW_BAND, 0),
        (Intersection(Union(FINITE_ROW_BAND, Lattice(2, 2)), UpperQuadrant(5, 5)),
         Fraction(1, 4)),
    ],
)
def test_exact_density_values(expr, expected):
    assert frac(expr) == Fraction(expected)


def test_trace_for_lattice():
    v = exact_density(Lattice(2, 3))
    assert v.trace == ("product-rule", "multiples-rule")


def test_trace_nonempty_whenever_known():
    for entry in CORPUS:
        v = exact_density(entry.expr)
        if v.is_known:
            assert v.trace


def test_unknown_when_no_rule_applies():
    v = exact_density(Intersection(Delimited(Constant(1), Power(1, 2)), Lattice(2, 2)))
    assert v.kind == "unknown"
    assert v.trace == ()


_BAND = "delim(pow(1,1/2),pow(1,2))"


@pytest.mark.parametrize("text,expected", [
    (f"union({_BAND},{_BAND})", Fraction(1, 3)),
    (f"inter({_BAND},{_BAND})", Fraction(1, 3)),
    # the same band twice: v >= 3 below pow(3,2), once as a constant lower
    # side and once as a quadrant cut
    ("diff(delim(const(3),pow(3,2)),inter(delim(const(1),pow(3,2)),upper(1,3)))", 0),
    # a band between constants is two quadrants, which meet bands and lattices
    ("inter(delim(const(1),const(5)),delim(const(1),pow(1,2)))", 0),
    ("inter(delim(const(1),const(5)),lattice(2,2))", 0),
])
def test_an_atom_meets_itself(text, expected):
    assert frac(parse_expression(text)) == expected


def test_unknown_above_the_atom_cap():
    # eleven primes: 2047 distinct atoms
    v = exact_density(prime_union(_PRIMES))
    assert v.kind == "unknown"
    assert v.trace == ()


def test_product_stops_at_the_atom_cap():
    # 2000 x 2000 distinct pairs: the product stops one meet past the cap
    meets = []

    def meet(a, b):
        meets.append((a, b))
        return a, b

    big = dict.fromkeys(range(2000), 1)
    with pytest.raises(_CapExceeded):
        _product(big, big, meet)
    assert len(meets) == ATOM_CAP + 1


def test_exact_matches_corpus_table():
    for entry in CORPUS:
        v = exact_density(entry.expr)
        if entry.density is None:
            assert not v.is_known, entry.name
        else:
            assert v.kind == "rational", entry.name
            assert v.rational == entry.density, entry.name


# ---------------------------------------------------------------------------
# proposition suite: additivity, monotonicity, inclusion-exclusion
# ---------------------------------------------------------------------------

def _disjoint_by_enumeration(a, b, bound=200):
    return not any(
        contains(a, (m, n)) and contains(b, (m, n))
        for m in range(1, bound + 1)
        for n in range(1, bound + 1)
    )


def _disjoint_lattice_pairs():
    # residue-incompatible pairs: translated even grids against even grids
    evens = Lattice(2, 2)
    odd_grid = Translate(Lattice(2, 2), (1, 1))
    col_shift = Translate(Lattice(2, 2), (1, 0))
    row_shift = Translate(Lattice(2, 2), (0, 1))
    return [
        (evens, odd_grid),
        (evens, col_shift),
        (evens, row_shift),
        (odd_grid, col_shift),
        (Lattice(3, 3), Translate(Lattice(3, 3), (1, 1))),
        (Translate(Lattice(4, 4), (2, 0)), Lattice(4, 4)),
    ]


def test_additivity_on_disjoint_pairs():
    for a, b in _disjoint_lattice_pairs():
        # structural residue argument backed by enumeration
        assert _disjoint_by_enumeration(a, b)
        da, db = frac(a), frac(b)
        du = frac(Union(a, b))
        assert du == da + db, (a, b)


def test_monotone_under_union():
    for a, b in [(Lattice(2, 2), Lattice(3, 3)), (Lattice(4, 5), Lattice(2, 3)),
                 (Lattice(6, 6), Lattice(2, 2))]:
        assert frac(a) <= frac(Union(a, b))


def test_inclusion_exclusion_exact():
    pairs = [
        (Lattice(2, 3), Lattice(3, 2)),
        (Lattice(2, 2), Lattice(4, 4)),
        (Lattice(3, 5), Lattice(5, 3)),
        (Lattice(2, 5), Lattice(3, 7)),
    ]
    for a, b in pairs:
        du = frac(Union(a, b))
        di = frac(Intersection(a, b))
        assert du + di == frac(a) + frac(b)


def test_difference_rule():
    for a, b in [(Lattice(2, 2), Lattice(4, 4)), (Lattice(2, 3), Lattice(3, 2))]:
        assert frac(Difference(a, b)) == frac(a) - frac(Intersection(a, b))


def test_complement_rule():
    for e in [Lattice(2, 2), Union(Lattice(2, 3), Lattice(3, 2))]:
        assert frac(Complement(e)) == 1 - frac(e)


# the signature failure of countable additivity: singletons cover the
# quadrant, every singleton has density 0, the quadrant has density 1
def test_not_sigma_additive_witness():
    for pt in [(1, 1), (2, 3), (10, 10), (123, 7)]:
        assert frac(FinitePairs((pt,))) == 0
    assert frac(FullQuadrant()) == 1


def test_heavy_tail_exact_on_corpus():
    for entry in CORPUS:
        if entry.density is None:
            continue
        for corner in [(1, 1), (5, 5), (8, 3)]:
            v = exact_density(Intersection(entry.expr, UpperQuadrant(*corner)))
            assert v.is_known and v.rational == entry.density, (entry.name, corner)


def test_alpha_beta_product_one_identity():
    for beta in (2, 3, 4):
        v = frac(Delimited(Power(1, Fraction(1, beta)), Power(1, beta)))
        assert v == Fraction(beta - 1, beta + 1)


_shifted_lattices = st.recursive(
    st.builds(lambda p, q, off: Translate(Lattice(p, q), off),
              st.integers(1, 4), st.integers(1, 4),
              st.tuples(st.integers(0, 3), st.integers(0, 3))),
    lambda inner: st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Intersection, inner, inner),
        st.builds(Difference, inner, inner),
        st.builds(Complement, inner),
        st.builds(Translate, inner, st.tuples(st.integers(0, 3), st.integers(0, 3))),
        st.builds(lambda f, e: Dilate(f, e),
                  st.tuples(st.integers(1, 2), st.integers(1, 2)), inner),
    ),
    max_leaves=4,
)


def _period_and_start(e):
    """Per-axis period of membership, and a corner beyond which it holds."""
    if isinstance(e, Lattice):
        return (e.p, e.q), (0, 0)
    if isinstance(e, Complement):
        return _period_and_start(e.inner)
    if isinstance(e, Translate):
        period, (m0, n0) = _period_and_start(e.inner)
        return period, (m0 + e.offset[0], n0 + e.offset[1])
    if isinstance(e, Dilate):
        (pm, pn), (m0, n0) = _period_and_start(e.inner)
        a, b = e.factor
        return (a * pm, b * pn), (a * m0, b * n0)
    (pa, sa), (pb, sb) = _period_and_start(e.left), _period_and_start(e.right)
    return ((math.lcm(pa[0], pb[0]), math.lcm(pa[1], pb[1])),
            (max(sa[0], sb[0]), max(sa[1], sb[1])))


@settings(max_examples=60, deadline=None)
@given(_shifted_lattices)
def test_exact_density_is_the_residue_share_of_one_period(e):
    # at most four lattices stay far below the atom cap, so the value is
    # always known
    v = exact_density(e)
    assert v.kind == "rational"
    (pm, pn), (m0, n0) = _period_and_start(e)
    members = sum(contains(e, (m0 + i, n0 + j))
                  for i in range(1, pm + 1) for j in range(1, pn + 1))
    assert v.rational == Fraction(members, pm * pn)


# ---------------------------------------------------------------------------
# axis sections
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,expected",
    [
        (FinitePairs(((1, 1), (2, 5))), (True, True)),
        (Product(FiniteSet((3,)), FullP()), (True, False)),
        (Lattice(2, 2), (False, False)),
        (Delimited(Constant(1), Power(1, 2)), (False, False)),
        (UpperQuadrant(3, 3), (False, False)),
        (Union(FinitePairs(((1, 1),)), Lattice(2, 2)), (False, False)),
        (Union(FinitePairs(((1, 1),)), FinitePairs(((2, 2),))), (True, True)),
        (Intersection(Lattice(2, 2), Complement(Lattice(2, 2))), (False, False)),
        (Intersection(Product(FiniteSet((3,)), FullP()), Lattice(2, 2)), (True, False)),
        (Translate(FinitePairs(((1, 1),)), (3, 3)), (True, True)),
        (Dilate((2, 2), Product(FullP(), FiniteSet((1, 2)))), (False, True)),
        (Product(IntIntersection(Multiples(2), Multiples(3)), FiniteSet((1,))), (False, True)),
    ],
)
def test_axis_section_analysis(expr, expected):
    assert _finite_axes(expr, {}) == expected


def test_finite_axis_forces_zero_density():
    assert frac(Product(FiniteSet((3,)), FullP())) == 0
    assert frac(Product(FullP(), FiniteSet((1, 5, 9)))) == 0
    assert frac(Dilate((3, 2), Product(FiniteSet((3,)), FullP()))) == 0


_IDENTITY_MAPS = {
    "bare": lambda x: x,
    "translate-0": lambda x: Translate(x, (0, 0)),
    "dilate-1": lambda x: Dilate((1, 1), x),
}


@pytest.mark.parametrize("wrap", _IDENTITY_MAPS.values(), ids=_IDENTITY_MAPS)
def test_double_complement_in_generic_atom_keeps_finite_axis(wrap):
    # Delimited ∩ Product has no atom rule, so this is one generic atom; the
    # double complement compiles back to the product's own atoms, through an
    # identity map too
    e = Intersection(Delimited(Constant(1), Power(1, 2)),
                     Complement(wrap(Complement(Product(FiniteSet((1, 2)), FullP())))))
    v = exact_density(e)
    assert v.rational == 0
    assert v.trace[-1] == "finite-axis-section"


def test_a_complemented_product_in_a_generic_atom_has_finite_rows():
    # compl(prod(compl(F), P)) compiles to the rows F, though no node of it
    # is a finite product
    v = exact_density(parse_expression(
        "inter(compl(prod(compl(set{2,7}),P)),delim(const(1),pow(1,2)))"))
    assert v.rational == 0
    assert v.trace[-1] == "finite-axis-section"


@settings(max_examples=150, deadline=None)
@given(_set_exprs, st.lists(st.integers(1, 9), min_size=1, max_size=3), st.booleans(),
       st.booleans(), st.sampled_from([*_IDENTITY_MAPS.values(),
                                       lambda x: Complement(Complement(x))]))
def test_a_set_within_finitely_many_rows_or_columns_has_density_zero(x, f, columns, left,
                                                                       wrap):
    axis = FiniteSet(tuple(f))
    strip = Product(FullP(), axis) if columns else Product(axis, FullP())
    e = Intersection(x, wrap(strip)) if left else Intersection(wrap(strip), x)
    assert exact_density(e).rational == 0


def test_a_nested_generic_atom_is_decided_once_per_node(monkeypatch):
    # compl(compl(union(e, inter(band, rows j)))) nested k deep compiles to
    # generic atoms over the levels below, each with finite rows: deciding
    # each level afresh compiles about 4^(k/2) nodes (1,506 at k = 8)
    calls = []
    monkeypatch.setattr(exact, "_compile", lambda e, memo: calls.append(e) or _compile(e, memo))
    band = Delimited(Constant(1), Power(1, 2))

    def rows(r):
        return Intersection(band, Product(FiniteSet((r,)), FullP()))

    k = 8
    e = rows(1)
    for j in range(k):
        e = Complement(Complement(Union(e, rows(j + 2))))
    assert exact_density(e).rational == 0
    assert len(calls) <= 2 * k + 1


def test_a_deep_chain_of_generic_atoms_compiles_each_node_once(monkeypatch):
    # each complement level is decided on its compiled atoms, generic atoms
    # over the level below; compiling every level afresh recompiles the whole
    # chain below it (3,783 compiles at depth 30, 14,763 at 60)
    calls = []
    monkeypatch.setattr(atoms, "_compile", lambda e, memo=None: calls.append(e) or _compile(e, memo))
    band = Delimited(Constant(1), Power(1, 2))

    def compiles(depth):
        e = Lattice(3, 5)
        for j in range(depth):
            rows = Intersection(band, Product(FiniteSet((j + 1,)), FullP()))
            e = Complement(Complement(Intersection(Union(e, rows), Lattice(2, 1))))
        calls.clear()
        assert exact_density(e).rational is None
        return len(calls)

    shallow, deep = compiles(30), compiles(60)
    assert deep <= 2 * shallow + 30, (shallow, deep)


def test_deep_python_built_union():
    # deeper than the DSL allows: the engine must not recurse through
    # structural equality of the whole tree
    e = reduce(Union, [Translate(Lattice(2, 3), (i % 2, i % 3)) for i in range(400)])
    assert exact_density(e).rational == 1


def test_exact_rational_for_wide_fraction_parameters():
    alpha = Fraction(math.sqrt(2))  # the float's exact binary expansion, denominator 2^52
    v = exact_density(Delimited(Power(1, alpha), Power(1, 2)))
    assert v.kind == "rational"
    assert v.rational == 1 / (1 + alpha) - Fraction(1, 3)


def test_density_value_fields():
    known = exact_density(Lattice(2, 3))
    assert (known.kind, known.is_known, known.as_float()) == ("rational", True, 1 / 6)
    assert known.to_dict() == {"kind": "rational", "trace": ["product-rule", "multiples-rule"],
                               "value": repr(1 / 6), "numerator": 1, "denominator": 6}
    unknown = exact_density(Intersection(Delimited(Constant(1), Power(1, 2)), Lattice(2, 2)))
    assert (unknown.kind, unknown.is_known, unknown.rational) == ("unknown", False, None)
    assert unknown.to_dict() == {"kind": "unknown", "trace": []}
    with pytest.raises(ValueError):
        unknown.as_float()
