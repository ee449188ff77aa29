"""Expression language for sets of Gaussian integers in the open first quadrant.

A Gaussian integer m + i*n with m, n >= 1 is identified with the pair (m, n).
Sets are described symbolically:

* ``IntSetExpr`` describes subsets of the positive integers (used for the
  horizontal/vertical factors of product sets).
* ``GaussSetExpr`` describes subsets of the quadrant, closed under union,
  intersection, complement (relative to the full quadrant), difference,
  translation, dilation, and delimitation between two bound functions.
* ``BoundFn`` is a concrete delimiting function: a constant, c*m^alpha,
  or c*a^m.  A delimited set collects the points with
  ``lower(m) <= n <= upper(m)``, so its column section at m is
  [ceil lower(m), floor upper(m)].  A bound holds its exact rational
  parameters and, taken once, their float view ``floats``; one cut
  procedure (``ceil_at`` and ``floor_at``) reads both, and ``cut_rows``
  gives its cuts over a range of rows as an array.

Expressions are immutable after construction and every operation here is a
pure function, so values can be shared freely between threads.

Membership has one procedure, :func:`sections` (and ``_int_predicate`` for
one-dimensional sets), which compiles an expression into its column sections
A^m = {n : (m, n) in A}: each is EMPTY, ALL or a flat test over n.
:func:`predicate` is its two-argument view, and :func:`contains` and
:func:`int_contains` are the validated entry points.  :func:`grid_mask`
decides the same relation vectorised over a box of points, a band's rows
through ``cut_rows``.

Boundary convention: coordinates with m = 0 or n = 0 are outside every set;
constructors and membership reject them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "ValidationError",
    "IntSetExpr",
    "FullP",
    "FiniteSet",
    "Multiples",
    "IntUnion",
    "IntIntersection",
    "IntComplement",
    "BoundFn",
    "BoundFloats",
    "Constant",
    "Power",
    "Exponential",
    "GaussSetExpr",
    "Empty",
    "FullQuadrant",
    "FinitePairs",
    "Product",
    "Lattice",
    "Translate",
    "Dilate",
    "Union",
    "Intersection",
    "Complement",
    "Difference",
    "UpperQuadrant",
    "Delimited",
    "contains",
    "predicate",
    "sections",
    "EMPTY",
    "ALL",
    "normalize",
    "int_contains",
    "int_mask",
    "grid_mask",
]

INT_SNAP = 1e-9            # floats this close to an integer are snapped before rounding
_HUGE = 2 ** 62            # bound values beyond this are treated as "effectively infinite"
_LOG_HUGE = math.log(float(_HUGE))
_RADIUS = 2.0 ** -40       # relative error radius of a cut's float value, far above numpy's
FINITE_PAIRS_CAP = 10 ** 6

NumberLike = Union[int, float, str, Fraction]


class ValidationError(ValueError):
    """Raised when an expression violates a structural invariant."""


def _as_fraction(x: NumberLike, what: str) -> Fraction:
    try:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool):
            raise TypeError
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x)  # exact binary expansion
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"{what} must be a rational number, got {x!r}")


def _check_positive_int(value, what: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# One-dimensional sets
# ---------------------------------------------------------------------------

class IntSetExpr:
    """Symbolic description of a subset of the positive integers."""

    __slots__ = ()


@dataclass(frozen=True)
class FullP(IntSetExpr):
    """All positive integers."""


@dataclass(frozen=True)
class FiniteSet(IntSetExpr):
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        for e in elems:
            _check_positive_int(e, "FiniteSet element")
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class Multiples(IntSetExpr):
    """The set M_p of positive multiples of p."""

    modulus: int

    def __post_init__(self):
        _check_positive_int(self.modulus, "Multiples modulus")


@dataclass(frozen=True)
class IntUnion(IntSetExpr):
    left: IntSetExpr
    right: IntSetExpr


@dataclass(frozen=True)
class IntIntersection(IntSetExpr):
    left: IntSetExpr
    right: IntSetExpr


@dataclass(frozen=True)
class IntComplement(IntSetExpr):
    inner: IntSetExpr


def _multiples_mask(values: np.ndarray, p: int) -> np.ndarray:
    # a modulus above every value matches nothing (and would overflow int64)
    if p > values.max(initial=0):
        return np.zeros(values.shape, dtype=bool)
    return values % p == 0


def int_mask(e: IntSetExpr, values: np.ndarray) -> np.ndarray:
    """Vectorised membership over an array of positive integers."""
    if isinstance(e, FullP):
        return np.ones(values.shape, dtype=bool)
    if isinstance(e, FiniteSet):
        # likewise an element above every value, which int64 could not hold
        top = values.max(initial=0)
        return np.isin(values, np.asarray([x for x in e.elements if x <= top],
                                          dtype=values.dtype))
    if isinstance(e, Multiples):
        return _multiples_mask(values, e.modulus)
    if isinstance(e, IntUnion):
        return int_mask(e.left, values) | int_mask(e.right, values)
    if isinstance(e, IntIntersection):
        return int_mask(e.left, values) & int_mask(e.right, values)
    if isinstance(e, IntComplement):
        return ~int_mask(e.inner, values)
    raise TypeError(f"unknown IntSetExpr node {e!r}")


def _int_predicate(e: IntSetExpr) -> Callable[[int], bool]:
    """The one-dimensional :func:`predicate`: a closure over m >= 1."""
    if isinstance(e, FullP):
        return lambda m: True
    if isinstance(e, FiniteSet):
        elems = frozenset(e.elements)
        return lambda m: m in elems
    if isinstance(e, Multiples):
        p = e.modulus
        return lambda m: m % p == 0
    if isinstance(e, IntUnion):
        f, g = _int_predicate(e.left), _int_predicate(e.right)
        return lambda m: f(m) or g(m)
    if isinstance(e, IntIntersection):
        f, g = _int_predicate(e.left), _int_predicate(e.right)
        return lambda m: f(m) and g(m)
    if isinstance(e, IntComplement):
        f = _int_predicate(e.inner)
        return lambda m: not f(m)
    raise TypeError(f"unknown IntSetExpr node {e!r}")


def int_contains(e: IntSetExpr, m: int) -> bool:
    """Membership of an integer in a one-dimensional set (False below 1)."""
    return m >= 1 and _int_predicate(e)(m)


# ---------------------------------------------------------------------------
# Bound functions
# ---------------------------------------------------------------------------

class BoundFloats(NamedTuple):
    """A bound function in floats: c*m^alpha for a Power (alpha 0 for a
    Constant), c*exp(alpha*m) = c*base^m for an Exponential.

    Past the float range c is inf or 0.0 and base is inf, and a base within
    2^-53 of 1 is 1.0, while log_c and alpha still hold the logarithms.  A
    power exponent past 2^62 (past the float range, even) is taken as 2^62:
    every row past the first saturates either way, as the exact cut
    saturates an integer power.
    """

    kind: type
    c: float
    log_c: float
    alpha: float    # the exponent of a power, log(base) of an exponential
    exact: Optional[tuple[int, int]]    # (c, exponent or base) when both are integers
    base: float     # the base of an Exponential, else 0


class BoundFn:
    """Concrete delimiting function, always evaluated at integer m >= 1.  Its
    ``floats`` (a BoundFloats, taken once per bound) is what membership here
    and the series engine's row kernel both read."""

    __slots__ = ()

    @cached_property
    def _level(self) -> Optional[tuple[int, int]]:
        """(ceil, floor) of a side constant in m, capped at 2^62; None for a
        side that grows."""
        form = power_form(self)
        if form is None or form[1]:
            return None
        return min(math.ceil(form[0]), _HUGE), min(math.floor(form[0]), _HUGE)

    def _cut(self, m: int, up: bool) -> int:
        """The ceil (up) or floor of the value at m, saturating at 2^62.  It is
        exact for a side constant in m or integer parameters; otherwise the
        float value is rounded, after moving onto an integer within INT_SNAP."""
        level = self._level
        if level is not None:
            return level[0] if up else level[1]
        f = self.floats
        if f.kind is Power:
            if f.exact:
                c, a = f.exact
                # an int compared with a float never overflows; row 1 is c for any a
                if m > 1 and a >= _LOG_HUGE / math.log(m):
                    return _HUGE
                return min(c * m ** a, _HUGE)
            log_v = f.log_c + f.alpha * math.log(m)
            if log_v >= _LOG_HUGE:
                return _HUGE
            try:
                v = f.c * float(m) ** f.alpha
            except OverflowError:       # m^alpha alone passes the float range
                v = math.exp(log_v)
        else:
            log_v = f.log_c + m * f.alpha
            if log_v >= _LOG_HUGE:
                return _HUGE
            if f.exact:
                c, a = f.exact
                return min(c * a ** m, _HUGE)
            # c or the base past the float range, or a near 1, leave only the log
            inside = 0.0 < f.c < math.inf and 1.0 < f.base < math.inf
            try:
                v = f.c * f.base ** m if inside else math.exp(log_v)
            except OverflowError:       # a^m alone passes the float range
                v = math.exp(log_v)
        r = round(v)
        if abs(v - r) <= INT_SNAP:
            return r
        return math.ceil(v) if up else math.floor(v)

    @cached_property
    def _exact_top(self) -> int:
        """The last row m whose exact value (an integer power) is at most
        2^61, 0 when none is."""
        c, a = self.floats.exact
        top = _HUGE // 2
        if c > top:
            return 0
        if a > 61:
            return 1
        m = int((top / c) ** (1 / a))
        while c * (m + 1) ** a <= top:
            m += 1
        while c * m ** a > top:
            m -= 1
        return m

    def cut_rows(self, m_lo: int, m_hi: int, up: bool) -> np.ndarray:
        """``[self._cut(m, up) for m in m_lo..m_hi]`` as an int64 array.

        ``_cut`` stays the one decision rule: this path takes only the rows
        of a power where it provably decides as ``_cut`` does, and asks
        ``_cut`` for the rest and for every row of an exponential.  A side
        constant in m reads its level.  An integer power is computed exactly
        up to the value 2^61.  Any other power rounds numpy's float value
        where it lies farther than ``_RADIUS`` * value from the snap edge
        INT_SNAP, a radius that covers numpy's few ulps of difference from
        libm's ``pow``.
        """
        level = self._level
        if level is not None:
            return np.full(m_hi - m_lo + 1, level[0] if up else level[1], dtype=np.int64)
        f = self.floats
        out = np.empty(m_hi - m_lo + 1, dtype=np.int64)
        ok = np.zeros(len(out), dtype=bool)
        if f.kind is Power and f.exact:
            top = min(self._exact_top, m_hi)
            if top >= m_lo:     # then c is at most 2^61
                c, a = f.exact
                ok[:top - m_lo + 1] = True
                mi = np.arange(m_lo, top + 1, dtype=np.int64)
                # past 61, only row 1 is exact, and int64 cannot hold a 10^200 exponent
                out[ok] = c * mi ** min(a, 62)
        elif f.kind is Power:
            # float(m) of each row: a float arange steps by its first difference
            ms = np.arange(m_lo, m_hi + 1, dtype=np.int64).astype(np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                v = f.c * np.power(ms, f.alpha)
                r = np.round(v)
                d = np.abs(v - r)
                # False for NaN, inf and every value past 2^39, where the radius passes 1/2
                ok = np.abs(d - INT_SNAP) > _RADIUS * v
                out[ok] = np.where(d <= INT_SNAP, r, np.ceil(v) if up else np.floor(v))[ok]
        for i in np.flatnonzero(~ok).tolist():
            out[i] = self._cut(m_lo + i, up)
        return out

    def ceil_at(self, m: int) -> int:
        """ceil of the value: first admissible integer above."""
        return self._cut(m, True)

    def floor_at(self, m: int) -> int:
        """floor of the value, saturating at a huge sentinel."""
        return self._cut(m, False)


def _coef(q: Fraction) -> tuple[float, float]:
    """(float(q), log q) of a positive rational.  Past the float range float(q)
    is inf or 0.0, and log q comes from the numerator and the denominator."""
    try:
        f = float(q)
    except OverflowError:
        f = math.inf
    if 0.0 < f < math.inf:
        return f, math.log(f)
    return f, math.log(q.numerator) - math.log(q.denominator)


def _ints(c: Fraction, p: int | Fraction) -> Optional[tuple[int, int]]:
    """(c, p) as integers when both are, else None."""
    return (c.numerator, p.numerator) if c.denominator == p.denominator == 1 else None


@dataclass(frozen=True)
class Constant(BoundFn):
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", _as_fraction(self.k, "Constant level"))
        if self.k < 1:
            raise ValidationError(f"Constant bound requires k >= 1, got {self.k}")

    @cached_property
    def floats(self) -> BoundFloats:
        return BoundFloats(Constant, *_coef(self.k), 0.0, _ints(self.k, 0), 0.0)


@dataclass(frozen=True)
class Power(BoundFn):
    """m |-> c * m^alpha with c > 0 and alpha >= 0."""

    c: Fraction
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c, "Power coefficient"))
        object.__setattr__(self, "alpha", _as_fraction(self.alpha, "Power exponent"))
        if self.c <= 0:
            raise ValidationError(f"Power coefficient must be > 0, got {self.c}")
        if self.alpha < 0:
            raise ValidationError(f"Power exponent must be >= 0, got {self.alpha}")

    @cached_property
    def floats(self) -> BoundFloats:
        return BoundFloats(Power, *_coef(self.c), float(min(self.alpha, _HUGE)),
                           _ints(self.c, self.alpha), 0.0)


@dataclass(frozen=True)
class Exponential(BoundFn):
    """m |-> c * a^m with c > 0 and a > 1."""

    c: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c, "Exponential coefficient"))
        object.__setattr__(self, "a", _as_fraction(self.a, "Exponential base"))
        if self.c <= 0:
            raise ValidationError(f"Exponential coefficient must be > 0, got {self.c}")
        if self.a <= 1:
            raise ValidationError(f"Exponential base must be > 1, got {self.a}")

    @cached_property
    def floats(self) -> BoundFloats:
        base, log_base = _coef(self.a)
        log_base = log_base or math.log1p(float(self.a - 1))    # where a rounds to 1.0
        return BoundFloats(Exponential, *_coef(self.c), log_base, _ints(self.c, self.a), base)


def power_form(b: BoundFn) -> Optional[tuple[Fraction, Fraction]]:
    """(c, alpha) with b(m) = c * m^alpha, a Constant k being (k, 0); None for
    an Exponential."""
    if isinstance(b, Constant):
        return b.k, Fraction(0)
    if isinstance(b, Power):
        return b.c, b.alpha
    return None


def _bound_ge_one(f: BoundFn) -> bool:
    """Does f(m) >= 1 hold for every integer m >= 1?

    Every variant is nondecreasing in m, so the minimum sits at m = 1.
    """
    if isinstance(f, Constant):
        return True  # k >= 1 by construction
    if isinstance(f, Power):
        return f.c >= 1
    if isinstance(f, Exponential):
        return f.c * f.a >= 1
    raise TypeError(f"unknown BoundFn {f!r}")


def _dominates(upper: BoundFn, lower: BoundFn) -> bool:
    """Does upper(m) >= lower(m) hold for every integer m >= 1?

    Decided per variant pair: compare growth classes first, then coefficients;
    a power below an exponential is checked where their ratio is smallest.
    """
    lo_kind = type(lower)
    up_kind = type(upper)

    if up_kind in (Constant, Power) and lo_kind in (Constant, Power):
        c_up, a_up = power_form(upper)
        c_lo, a_lo = power_form(lower)
        if a_up < a_lo:
            return False  # upper grows strictly slower: fails for large m
        return c_up >= c_lo  # ratio nondecreasing, minimum at m = 1

    if up_kind is Exponential and lo_kind in (Constant, Power):
        c_lo, alpha = power_form(lower)
        # log(upper/lower) = gap + m log a - alpha log m is convex in m with its
        # minimum at m* = alpha / log a, so over the integers it is smallest
        # next to m*.  The logs are floats and the rest is Fraction
        # arithmetic, so no parameter is ever taken as a float.
        a = upper.a
        log_a = Fraction(_coef(a)[1]) if a >= 2 else Fraction(math.log1p(float(a - 1)))
        log_a = log_a or a - 1   # where a - 1 underflows, log a = a - 1 to that precision
        gap = Fraction(_coef(upper.c)[1]) - Fraction(_coef(c_lo)[1])
        m0 = max(1, math.floor(alpha / log_a))
        return all(gap + m * log_a - alpha * Fraction(math.log(m)) >= -1e-12
                   for m in (m0, m0 + 1))

    if up_kind in (Constant, Power) and lo_kind is Exponential:
        return False  # exponential lower overtakes any power upper

    if up_kind is Exponential and lo_kind is Exponential:
        if upper.a > lower.a:
            return upper.c * upper.a >= lower.c * lower.a
        if upper.a == lower.a:
            return upper.c >= lower.c
        return False

    raise TypeError(f"unknown BoundFn pair {upper!r}, {lower!r}")


# ---------------------------------------------------------------------------
# Two-dimensional sets
# ---------------------------------------------------------------------------

class GaussSetExpr:
    """Symbolic description of a subset of the open first quadrant."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(GaussSetExpr):
    pass


@dataclass(frozen=True)
class FullQuadrant(GaussSetExpr):
    pass


@dataclass(frozen=True)
class FinitePairs(GaussSetExpr):
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(set((int(m), int(n)) for m, n in self.pairs)))
        if len(pairs) > FINITE_PAIRS_CAP:
            raise ValidationError(f"FinitePairs capped at {FINITE_PAIRS_CAP} elements")
        for m, n in pairs:
            _check_positive_int(m, "FinitePairs first coordinate")
            _check_positive_int(n, "FinitePairs second coordinate")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class Product(GaussSetExpr):
    """Cartesian product h x v of two one-dimensional sets."""

    h: IntSetExpr
    v: IntSetExpr


@dataclass(frozen=True)
class Lattice(GaussSetExpr):
    """M_(p,q): multiples of p crossed with multiples of q."""

    p: int
    q: int

    def __post_init__(self):
        _check_positive_int(self.p, "Lattice p")
        _check_positive_int(self.q, "Lattice q")


@dataclass(frozen=True)
class Translate(GaussSetExpr):
    """Shift every point by a nonnegative offset; (0,0) is the identity."""

    inner: GaussSetExpr
    offset: tuple[int, int]

    def __post_init__(self):
        m0, n0 = self.offset
        _check_positive_int(m0, "Translate offset", minimum=0)
        _check_positive_int(n0, "Translate offset", minimum=0)
        object.__setattr__(self, "offset", (m0, n0))


@dataclass(frozen=True)
class Dilate(GaussSetExpr):
    """Scale coordinates by (a, b); membership demands exact divisibility."""

    factor: tuple[int, int]
    inner: GaussSetExpr

    def __post_init__(self):
        a, b = self.factor
        _check_positive_int(a, "Dilate factor")
        _check_positive_int(b, "Dilate factor")
        object.__setattr__(self, "factor", (a, b))


@dataclass(frozen=True)
class Union(GaussSetExpr):
    left: GaussSetExpr
    right: GaussSetExpr


@dataclass(frozen=True)
class Intersection(GaussSetExpr):
    left: GaussSetExpr
    right: GaussSetExpr


@dataclass(frozen=True)
class Complement(GaussSetExpr):
    """Complement relative to the full quadrant."""

    inner: GaussSetExpr


@dataclass(frozen=True)
class Difference(GaussSetExpr):
    """left minus right (relative complement of right in left)."""

    left: GaussSetExpr
    right: GaussSetExpr


@dataclass(frozen=True)
class UpperQuadrant(GaussSetExpr):
    """The tail region {m >= m0 and n >= n0}."""

    m0: int
    n0: int

    def __post_init__(self):
        _check_positive_int(self.m0, "UpperQuadrant m0")
        _check_positive_int(self.n0, "UpperQuadrant n0")


@dataclass(frozen=True)
class Delimited(GaussSetExpr):
    """Points with lower(m) <= n <= upper(m).

    Construction requires upper(m) >= lower(m) >= 1 for every integer m >= 1,
    decided analytically per bound-function pair.
    """

    lower: BoundFn
    upper: BoundFn

    def __post_init__(self):
        if not _bound_ge_one(self.lower):
            raise ValidationError(
                f"delimited lower bound must stay >= 1 for all m >= 1: {self.lower}"
            )
        if not _dominates(self.upper, self.lower):
            raise ValidationError(
                f"delimited upper bound must dominate the lower bound: "
                f"{self.upper} < {self.lower} somewhere"
            )


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

# A column section A^m = {n : (m, n) in e} is EMPTY (no n is a member), ALL
# (every n >= 1 is) or a flat test over n >= 1.
EMPTY = False
ALL = True


def _complement(a):
    if a is EMPTY or a is ALL:
        return not a
    return lambda n: not a(n)


def _union(a, b):
    if a is ALL or b is EMPTY:
        return a
    if b is ALL or a is EMPTY:
        return b
    return lambda n: a(n) or b(n)


def _meet(a, b):
    if a is EMPTY or b is ALL:
        return a
    if b is EMPTY or a is ALL:
        return b
    return lambda n: a(n) and b(n)


def _shift(a, n0: int):
    """The section of a translate by n0 along n."""
    if a is EMPTY or n0 == 0:
        return a
    if a is ALL:
        return lambda n: n > n0
    return lambda n: n > n0 and a(n - n0)


def _stride(a, b: int):
    """The section of a dilate by b along n."""
    if a is EMPTY or b == 1:
        return a
    if a is ALL:
        return lambda n: n % b == 0
    return lambda n: n % b == 0 and a(n // b)


def sections(e: GaussSetExpr) -> Callable[[int], object]:
    """Compile e into its column sections: a closure m -> A^m.

    This is the one membership procedure.  A section is three-valued:
    ``EMPTY`` (no n is a member), ``ALL`` (every n >= 1 is a member), or a
    flat one-argument test over n >= 1.  The structural recursion runs once
    here; each node then combines its children's sections once per column
    (a lattice's column is EMPTY off its modulus, a band's is its two cuts,
    a complement swaps EMPTY and ALL), so the points of one column take one
    flat call each.  The closure expects m >= 1.
    """
    if isinstance(e, Empty):
        return lambda m: EMPTY
    if isinstance(e, FullQuadrant):
        return lambda m: ALL
    if isinstance(e, FinitePairs):
        cols: dict[int, set[int]] = {}
        for m, n in e.pairs:
            cols.setdefault(m, set()).add(n)
        tests = {m: frozenset(ns).__contains__ for m, ns in cols.items()}
        return lambda m: tests.get(m, EMPTY)
    if isinstance(e, Product):
        f = _int_predicate(e.h)
        col = ALL if isinstance(e.v, FullP) else _int_predicate(e.v)
        return lambda m: col if f(m) else EMPTY
    if isinstance(e, Lattice):
        p, q = e.p, e.q
        col = ALL if q == 1 else (lambda n: n % q == 0)
        return lambda m: EMPTY if m % p else col
    if isinstance(e, UpperQuadrant):
        m0, n0 = e.m0, e.n0
        col = ALL if n0 == 1 else (lambda n: n >= n0)
        return lambda m: col if m >= m0 else EMPTY
    if isinstance(e, Translate):
        m0, n0 = e.offset
        f = sections(e.inner)
        return lambda m: _shift(f(m - m0), n0) if m > m0 else EMPTY
    if isinstance(e, Dilate):
        a, b = e.factor
        f = sections(e.inner)
        return lambda m: EMPTY if m % a else _stride(f(m // a), b)
    if isinstance(e, Union):
        f, g = sections(e.left), sections(e.right)
        return lambda m: _union(f(m), g(m))
    if isinstance(e, Intersection):
        f, g = sections(e.left), sections(e.right)
        return lambda m: _meet(f(m), g(m))
    if isinstance(e, Complement):
        f = sections(e.inner)
        return lambda m: _complement(f(m))
    if isinstance(e, Difference):
        f, g = sections(e.left), sections(e.right)
        return lambda m: _meet(f(m), _complement(g(m)))
    if isinstance(e, Delimited):
        lower, upper = e.lower, e.upper

        def band(m):
            lo, hi = lower.ceil_at(m), upper.floor_at(m)
            return EMPTY if lo > hi else (lambda n: lo <= n <= hi)

        return band
    raise TypeError(f"unknown GaussSetExpr node {e!r}")


def predicate(e: GaussSetExpr) -> Callable[[int, int], bool]:
    """The two-argument view ``(m, n) -> bool`` of :func:`sections`.

    It keeps the section of the last m it was asked about, so a walk that
    holds m while n varies builds each section once.  The closure expects
    m, n >= 1, which :func:`contains` checks.
    """
    col = sections(e)
    last = (None, EMPTY)     # replaced whole, so a race costs only a rebuild

    def member(m, n):
        nonlocal last
        at, sec = last
        if at != m:
            sec = col(m)
            last = (m, sec)
        return sec is ALL or (sec is not EMPTY and sec(n))

    return member


# The predicate ``contains`` built last: callers test many points of one
# expression in a row (a period block, the points of a finite atom).  One
# tuple replaced whole, so a race between threads costs only a rebuild.
_last_predicate: tuple = (None, None)


def contains(e: GaussSetExpr, point: tuple[int, int]) -> bool:
    """Membership of one point: the validated entry point to :func:`predicate`.

    Total over points with m, n >= 1 and rejects any other point.  Called
    again with the same expression object, it reuses the predicate it built,
    and with it the section of the last m.
    """
    global _last_predicate
    m, n = point
    _check_positive_int(m, "point m")
    _check_positive_int(n, "point n")
    last, pred = _last_predicate
    if last is not e:
        pred = predicate(e)
        _last_predicate = (e, pred)
    return pred(m, n)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

def _normalize_int(e: IntSetExpr) -> IntSetExpr:
    if isinstance(e, Multiples) and e.modulus == 1:
        return FullP()
    if isinstance(e, IntUnion):
        return IntUnion(_normalize_int(e.left), _normalize_int(e.right))
    if isinstance(e, IntIntersection):
        return IntIntersection(_normalize_int(e.left), _normalize_int(e.right))
    if isinstance(e, IntComplement):
        inner = _normalize_int(e.inner)
        if isinstance(inner, IntComplement):
            return inner.inner
        return IntComplement(inner)
    return e


def normalize(e: GaussSetExpr) -> GaussSetExpr:
    """Apply membership-preserving rewrites, bottom up.

    Rules: dilation of a lattice scales its moduli; intersection of lattices
    is the lattice of coordinatewise lcms; a product of multiples (with the
    full line read as multiples of 1) becomes a lattice; Multiples(1) becomes
    the full line; nested translations add their offsets and nested dilations
    multiply their factors; identity translations/dilations and double
    complements are dropped.  The result denotes exactly the same set.
    """
    if isinstance(e, Product):
        h = _normalize_int(e.h)
        v = _normalize_int(e.v)
        ph = 1 if isinstance(h, FullP) else (h.modulus if isinstance(h, Multiples) else None)
        pv = 1 if isinstance(v, FullP) else (v.modulus if isinstance(v, Multiples) else None)
        if ph is not None and pv is not None:
            return Lattice(ph, pv)
        return Product(h, v)
    if isinstance(e, Intersection):
        left = normalize(e.left)
        right = normalize(e.right)
        if isinstance(left, Lattice) and isinstance(right, Lattice):
            return Lattice(math.lcm(left.p, right.p), math.lcm(left.q, right.q))
        return Intersection(left, right)
    if isinstance(e, Dilate):
        inner = normalize(e.inner)
        a, b = e.factor
        if isinstance(inner, Dilate):
            a2, b2 = inner.factor
            return normalize(Dilate((a * a2, b * b2), inner.inner))
        if isinstance(inner, Lattice):
            return Lattice(a * inner.p, b * inner.q)
        if a == 1 and b == 1:
            return inner
        return Dilate((a, b), inner)
    if isinstance(e, Translate):
        inner = normalize(e.inner)
        m0, n0 = e.offset
        if isinstance(inner, Translate):
            m1, n1 = inner.offset
            return normalize(Translate(inner.inner, (m0 + m1, n0 + n1)))
        if m0 == 0 and n0 == 0:
            return inner
        return Translate(inner, (m0, n0))
    if isinstance(e, Complement):
        inner = normalize(e.inner)
        if isinstance(inner, Complement):
            return inner.inner
        return Complement(inner)
    if isinstance(e, Union):
        return Union(normalize(e.left), normalize(e.right))
    if isinstance(e, Difference):
        return Difference(normalize(e.left), normalize(e.right))
    return e


# ---------------------------------------------------------------------------
# Vectorised membership over a rectangle
# ---------------------------------------------------------------------------

def _outer_mask(row_in: np.ndarray, col_in: np.ndarray) -> np.ndarray:
    """The product set of two axis masks: the column mask broadcast into
    each member row (a row copy, where ``np.outer`` multiplies every cell)."""
    out = np.zeros((len(row_in), len(col_in)), dtype=bool)
    out[row_in] = col_in
    return out


def grid_mask(e: GaussSetExpr, m_lo: int, m_hi: int, n_hi: int) -> np.ndarray:
    """Boolean membership over rows m_lo..m_hi and columns 1..n_hi.

    Decides the same relation as ``contains`` on every grid point; row i of
    the result corresponds to m = m_lo + i.  A band cuts each side once over
    its rows (``BoundFn.cut_rows``) and fills each non-empty row by one
    slice.
    """
    if m_lo < 1 or m_hi < m_lo or n_hi < 1:
        raise ValidationError("grid_mask requires 1 <= m_lo <= m_hi and n_hi >= 1")
    rows = m_hi - m_lo + 1
    ms = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    ns = np.arange(1, n_hi + 1, dtype=np.int64)

    if isinstance(e, Empty):
        return np.zeros((rows, n_hi), dtype=bool)
    if isinstance(e, FullQuadrant):
        return np.ones((rows, n_hi), dtype=bool)
    if isinstance(e, FinitePairs):
        out = np.zeros((rows, n_hi), dtype=bool)
        for m, n in e.pairs:
            if m_lo <= m <= m_hi and n <= n_hi:
                out[m - m_lo, n - 1] = True
        return out
    if isinstance(e, Product):
        return _outer_mask(int_mask(e.h, ms), int_mask(e.v, ns))
    if isinstance(e, Lattice):
        return _outer_mask(_multiples_mask(ms, e.p), _multiples_mask(ns, e.q))
    if isinstance(e, UpperQuadrant):
        return _outer_mask(ms >= e.m0, ns >= e.n0)
    # every branch returns a fresh array, so the set operations work in place
    if isinstance(e, Complement):
        out = grid_mask(e.inner, m_lo, m_hi, n_hi)
        return np.logical_not(out, out=out)
    if isinstance(e, (Union, Intersection, Difference)):
        out = grid_mask(e.left, m_lo, m_hi, n_hi)
        right = grid_mask(e.right, m_lo, m_hi, n_hi)
        if isinstance(e, Union):
            out |= right
        elif isinstance(e, Intersection):
            out &= right
        else:
            out &= np.logical_not(right, out=right)
        return out
    if isinstance(e, Translate):
        m0, n0 = e.offset
        out = np.zeros((rows, n_hi), dtype=bool)
        in_lo = max(m_lo - m0, 1)
        in_hi = m_hi - m0
        in_cols = n_hi - n0
        if in_hi >= in_lo and in_cols >= 1:
            inner = grid_mask(e.inner, in_lo, in_hi, in_cols)
            out[(in_lo + m0) - m_lo:, n0:] = inner
        return out
    if isinstance(e, Dilate):
        a, b = e.factor
        out = np.zeros((rows, n_hi), dtype=bool)
        u_lo = (m_lo + a - 1) // a
        u_hi = m_hi // a
        v_hi = n_hi // b
        if u_hi >= u_lo and v_hi >= 1:
            inner = grid_mask(e.inner, u_lo, u_hi, v_hi)
            row_idx = np.arange(u_lo, u_hi + 1) * a - m_lo
            col_idx = np.arange(1, v_hi + 1) * b - 1
            out[np.ix_(row_idx, col_idx)] = inner
        return out
    if isinstance(e, Delimited):
        out = np.zeros((rows, n_hi), dtype=bool)
        lo = np.maximum(e.lower.cut_rows(m_lo, m_hi, True), 1).tolist()
        hi = np.minimum(e.upper.cut_rows(m_lo, m_hi, False), n_hi).tolist()
        for i, (a, b) in enumerate(zip(lo, hi)):
            if a <= b:
                out[i, a - 1:b] = True
        return out
    raise TypeError(f"unknown GaussSetExpr node {e!r}")
