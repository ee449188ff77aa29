"""The set-algebra compiler shared by the exact and the series engine.

The density is finitely additive, translation invariant and scales by 1/(ab)
under dilation by (a, b).  So every set the calculus handles is an integer
combination of *atoms*, pieces whose density and double series each engine
evaluates on its own:

* ``ProdAtom``: a progression (or finite list) on each axis;
* ``DelimAtom``: a delimited band, affinely mapped and cut below;
* ``FinAtom``: finitely many points;
* ``GenAtom``: an expression no rule reduces.

``compile_set`` returns the canonical signed multiset of an expression: an
insertion-ordered map from atom to a non-zero integer coefficient, whose
weighted sum of atom indicator functions is the set's indicator function.
Each node is built from its compiled children,

    c(A u B) = c(A) + c(B) - c(A)c(B)       c(A \\ B) = c(A) - c(A)c(B)
    c(not A) = full - c(A)                  c(A n B) = c(A)c(B),

where the product intersects atoms pairwise (CRT on progressions, filtering
of finite lists, quadrant cuts on bands and generic atoms, and an atom with
itself) and merges equal atoms.  When a pair of atoms has no intersection
rule, the whole product becomes one ``GenAtom`` of the intersection.  When
any node's merged map, or a product while it is being built, holds more
than ``ATOM_CAP`` atoms, the whole expression compiles to one ``GenAtom``.

A side constant in m is an integer cut, exact at any size (``BoundFn``
saturates it past 2^62): a band between constants lo and hi is every row
times the columns lo..hi, two product atoms, and a constant lower side is
``Constant(1)`` cut at v >= lo.  No ``DelimAtom`` has a constant upper side.

``compile_set`` keeps the last expression object it compiled and its map, as
``sets.contains`` keeps its predicate: the exact reference of an estimate,
the estimate's points and every point of a sweep read one compile.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Optional

from .sets import (
    BoundFn,
    Complement,
    Constant,
    Delimited,
    Difference,
    Dilate,
    Empty,
    FiniteSet,
    FinitePairs,
    FullP,
    FullQuadrant,
    GaussSetExpr,
    IntComplement,
    IntIntersection,
    IntSetExpr,
    IntUnion,
    Intersection,
    Lattice,
    Multiples,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    contains,
    power_form,
)

__all__ = [
    "ATOM_CAP",
    "Prog",
    "Fin",
    "ProdAtom",
    "FinAtom",
    "DelimAtom",
    "GenAtom",
    "compile_set",
]

# a union of ten lattices in general position has 2^10 - 1 distinct atoms
ATOM_CAP = 1024


@dataclass(frozen=True)
class Prog:
    """{first + k*step : k >= 0}, first >= 1."""

    step: int
    first: int


@dataclass(frozen=True)
class Fin:
    values: tuple[int, ...]


@dataclass(frozen=True)
class ProdAtom:
    h: object  # Prog | Fin
    v: object


@dataclass(frozen=True)
class FinAtom:
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DelimAtom:
    """Rows u >= u_min with f(u) <= v <= g(u) and v >= v_min, mapped to the
    points (am*u + bm, an*v + bn)."""

    lower: BoundFn
    upper: BoundFn
    am: int
    bm: int
    an: int
    bn: int
    u_min: int
    v_min: int


@dataclass(frozen=True)
class GenAtom:
    expr: GaussSetExpr


class _Unsupported(Exception):
    """No rule intersects the two atoms."""


class _CapExceeded(Exception):
    """A node's merged map holds more than ATOM_CAP atoms."""


_FULL_1D = {Prog(1, 1): 1}
_FULL = {ProdAtom(Prog(1, 1), Prog(1, 1)): 1}


_last_compiled: tuple = (None, None)


def compile_set(e: GaussSetExpr) -> Mapping[object, int]:
    """The canonical signed multiset of atoms of e (see the module docstring).

    Called again with the same expression object, it returns the map it
    built, read-only since every caller shares it.
    """
    global _last_compiled
    last, atoms = _last_compiled
    if last is not e:
        try:
            atoms = MappingProxyType(_compile(e))
        except _CapExceeded:
            atoms = MappingProxyType({GenAtom(e): 1})
        _last_compiled = (e, atoms)
    return atoms


# ---------------------------------------------------------------------------
# Signed multisets
# ---------------------------------------------------------------------------

def _canonical(out: dict) -> dict:
    out = {a: c for a, c in out.items() if c}
    if len(out) > ATOM_CAP:
        raise _CapExceeded
    return out


def _combine(*parts: tuple[int, dict]) -> dict:
    """sum of sign * map over the parts."""
    out: dict = {}
    for sign, part in parts:
        for atom, c in part.items():
            out[atom] = out.get(atom, 0) + sign * c
    return _canonical(out)


def _product(ca: dict, cb: dict, meet) -> dict:
    """c(A)c(B): pairwise intersections by meet (None when empty); stops as
    soon as the map passes the cap rather than finishing len(ca)*len(cb) meets."""
    out: dict = {}
    for a, x in ca.items():
        for b, y in cb.items():
            ab = meet(a, b)
            if ab is not None:
                out[ab] = out.get(ab, 0) + x * y
                if len(out) > ATOM_CAP:
                    raise _CapExceeded
    return _canonical(out)


def _meet(ca: dict, cb: dict, left: GaussSetExpr, right: GaussSetExpr) -> dict:
    try:
        return _product(ca, cb, _atom_intersect)
    except _Unsupported:
        return {GenAtom(Intersection(left, right)): 1}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _compile_1d(e: IntSetExpr) -> dict:
    if isinstance(e, FullP):
        return dict(_FULL_1D)
    if isinstance(e, Multiples):
        return {Prog(e.modulus, e.modulus): 1}
    if isinstance(e, FiniteSet):
        return {Fin(e.elements): 1} if e.elements else {}
    if isinstance(e, IntComplement):
        return _combine((1, _FULL_1D), (-1, _compile_1d(e.inner)))
    if isinstance(e, IntUnion):
        ca, cb = _compile_1d(e.left), _compile_1d(e.right)
        return _combine((1, ca), (1, cb), (-1, _product(ca, cb, _atom1d_intersect)))
    if isinstance(e, IntIntersection):
        return _product(_compile_1d(e.left), _compile_1d(e.right), _atom1d_intersect)
    raise TypeError(f"unknown IntSetExpr node {e!r}")


def _compile(e: GaussSetExpr) -> dict:
    if isinstance(e, Empty):
        return {}
    if isinstance(e, FullQuadrant):
        return dict(_FULL)
    if isinstance(e, Lattice):
        return {ProdAtom(Prog(e.p, e.p), Prog(e.q, e.q)): 1}
    if isinstance(e, UpperQuadrant):
        return {ProdAtom(Prog(1, e.m0), Prog(1, e.n0)): 1}
    if isinstance(e, Product):
        return _product(_compile_1d(e.h), _compile_1d(e.v), ProdAtom)
    if isinstance(e, FinitePairs):
        return {FinAtom(e.pairs): 1} if e.pairs else {}
    if isinstance(e, Delimited):
        lo, hi = _constant_cut(e.lower, math.ceil), _constant_cut(e.upper, math.floor)
        if hi is not None:      # (then so is lo: validation forbids a growing lower side)
            return {} if lo > hi else {ProdAtom(Prog(1, 1), Prog(1, lo)): 1,
                                       ProdAtom(Prog(1, 1), Prog(1, hi + 1)): -1}
        if lo is None:
            return {DelimAtom(e.lower, e.upper, 1, 0, 1, 0, 1, 1): 1}
        return {DelimAtom(Constant(1), e.upper, 1, 0, 1, 0, 1, lo): 1}
    if isinstance(e, (Translate, Dilate)):
        return {_map_atom(a, e): c for a, c in _compile(e.inner).items()}
    if isinstance(e, Union):
        ca, cb = _compile(e.left), _compile(e.right)
        return _combine((1, ca), (1, cb), (-1, _meet(ca, cb, e.left, e.right)))
    if isinstance(e, Difference):
        ca, cb = _compile(e.left), _compile(e.right)
        return _combine((1, ca), (-1, _meet(ca, cb, e.left, e.right)))
    if isinstance(e, Complement):
        return _combine((1, _FULL), (-1, _compile(e.inner)))
    if isinstance(e, Intersection):
        return _meet(_compile(e.left), _compile(e.right), e.left, e.right)
    raise TypeError(f"unknown GaussSetExpr node {e!r}")


def _constant_cut(b: BoundFn, rounding) -> Optional[int]:
    """The exact cut (math.ceil or math.floor) of a side constant in m, as
    membership takes it below 2^62; None for a growing side."""
    form = power_form(b)
    return None if form is None or form[1] else rounding(form[0])


# ---------------------------------------------------------------------------
# Affine maps (injective, so they never merge atoms)
# ---------------------------------------------------------------------------

def _map_1d(a, f: int, t: int):
    if isinstance(a, Prog):
        return Prog(f * a.step, f * a.first + t)
    return Fin(tuple(f * x + t for x in a.values))


def _map_atom(a, node):
    """Image of the atom under a Translate or Dilate node: x -> f*x + t per axis."""
    if isinstance(node, Translate):
        (fm, fn), (tm, tn) = (1, 1), node.offset
    else:
        (fm, fn), (tm, tn) = node.factor, (0, 0)
    if isinstance(a, ProdAtom):
        return ProdAtom(_map_1d(a.h, fm, tm), _map_1d(a.v, fn, tn))
    if isinstance(a, FinAtom):
        return FinAtom(tuple((fm * m + tm, fn * n + tn) for m, n in a.pairs))
    if isinstance(a, DelimAtom):
        return DelimAtom(a.lower, a.upper, fm * a.am, fm * a.bm + tm,
                         fn * a.an, fn * a.bn + tn, a.u_min, a.v_min)
    if isinstance(a, GenAtom):
        return GenAtom(replace(node, inner=a.expr))
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Membership and intersection
# ---------------------------------------------------------------------------

def _prog_intersect(a: Prog, b: Prog) -> Optional[Prog]:
    """CRT intersection of two progressions; None when they are disjoint."""
    g = math.gcd(a.step, b.step)
    if (b.first - a.first) % g != 0:
        return None
    step = math.lcm(a.step, b.step)
    # solve x = a.first (mod a.step), x = b.first (mod b.step)
    t = ((b.first - a.first) // g * pow(a.step // g, -1, b.step // g)) % (b.step // g)
    x0 = a.first + a.step * t
    lo = max(a.first, b.first)
    if x0 < lo:
        x0 += ((lo - x0 + step - 1) // step) * step
    return Prog(step, x0)


def _atom1d_contains(a, x: int) -> bool:
    if isinstance(a, Prog):
        return x >= a.first and (x - a.first) % a.step == 0
    return x in a.values


def _atom1d_intersect(a, b):
    """Intersection of 1-D atoms; None when empty."""
    if isinstance(a, Fin):
        vals = tuple(x for x in a.values if _atom1d_contains(b, x))
        return Fin(vals) if vals else None
    if isinstance(b, Fin):
        return _atom1d_intersect(b, a)
    return _prog_intersect(a, b)


def _atom_contains(a, m: int, n: int) -> bool:
    if isinstance(a, ProdAtom):
        return _atom1d_contains(a.h, m) and _atom1d_contains(a.v, n)
    if isinstance(a, FinAtom):
        return (m, n) in a.pairs
    if isinstance(a, DelimAtom):
        if (m - a.bm) % a.am or (n - a.bn) % a.an:
            return False
        u = (m - a.bm) // a.am
        v = (n - a.bn) // a.an
        if u < a.u_min or v < a.v_min:
            return False
        return a.lower.ceil_at(u) <= v <= a.upper.floor_at(u)
    if isinstance(a, GenAtom):
        return contains(a.expr, (m, n))
    raise TypeError(a)


def _atom_intersect(a, b):
    """Intersection of atoms; None when empty, _Unsupported when no rule applies."""
    if isinstance(a, FinAtom) or isinstance(b, FinAtom):
        fin, other = (a, b) if isinstance(a, FinAtom) else (b, a)
        pts = tuple(p for p in fin.pairs if _atom_contains(other, p[0], p[1]))
        return FinAtom(pts) if pts else None
    if isinstance(a, ProdAtom) and isinstance(b, ProdAtom):
        h = _atom1d_intersect(a.h, b.h)
        v = _atom1d_intersect(a.v, b.v)
        if h is None or v is None:
            return None
        return ProdAtom(h, v)
    # bands and generic atoms meet only quadrants {m >= m0, n >= n0}
    x, quad = (a, b) if isinstance(b, ProdAtom) else (b, a)
    if not (isinstance(quad, ProdAtom)
            and all(isinstance(p, Prog) and p.step == 1 for p in (quad.h, quad.v))):
        if a == b:
            return a
        raise _Unsupported
    m0, n0 = quad.h.first, quad.v.first
    if isinstance(x, GenAtom):
        return x if (m0, n0) == (1, 1) else GenAtom(Intersection(x.expr, UpperQuadrant(m0, n0)))
    # the corner becomes lower cuts in (u, v)
    u_min = max(x.u_min, -(-(m0 - x.bm) // x.am))
    v_min = max(x.v_min, -(-(n0 - x.bn) // x.an))
    return DelimAtom(x.lower, x.upper, x.am, x.bm, x.an, x.bn, max(u_min, 1), max(v_min, 1))
