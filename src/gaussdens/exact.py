"""Closed-form density rules over the compiled atoms.

An expression is compiled (``gaussdens.atoms``) into a merged signed
multiset of atoms, the same one the series engine sums; its density is
the sum of coefficient times the atom's closed form.  The density is finitely
additive and translation invariant, and dilation by (a, b) divides it by ab,
so the atom rules are all that is needed:

* a product of progressions with steps p and q has density 1/(pq); a product
  with a finite axis, or a finite set of points, has density 0;
* a delimited band between power-type bounds has density
  1/(1+alpha) - 1/(1+beta) whatever the bound coefficients and lower cuts,
  divided by the scale of its affine map;
* a generic atom (an intersection no rule reduces, or a whole expression
  whose merged multiset at some node exceeded the atom cap) has density 0
  when the compiled atoms of its parts confine it to finitely many rows or
  columns (nothing is normalised first), and Unknown otherwise.

A one-dimensional set compiles the same way (``atoms._compile_1d``) into
progressions and finite lists; its density is the sum of coefficient over
step of the progressions.  So every set-algebra rule lives in gaussdens.atoms.

Bound parameters are rationals, so every rule gives a rational and every
known density is an exact ``Fraction``, summed exactly from atom to total:
``kind`` is ``"rational"`` or ``"unknown"``, and the JSON and CSV forms always
carry the numerator and denominator of a known value.  One Unknown atom makes
the whole density Unknown -- never a guess.  Every known value carries a
trace: the algebra rules of its nodes, then the rules of its atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .atoms import (
    DelimAtom,
    Fin,
    FinAtom,
    GenAtom,
    ProdAtom,
    Prog,
    _CapExceeded,
    _compile,
    _compile_1d,
    compile_set,
)
from .sets import (
    Complement,
    Difference,
    Dilate,
    Empty,
    Exponential,
    FinitePairs,
    GaussSetExpr,
    IntComplement,
    IntIntersection,
    IntSetExpr,
    IntUnion,
    Intersection,
    Product,
    Translate,
    Union,
    power_form,
)
from .sets import normalize  # noqa: F401  (unused: the benchmark's spans wrap exact.normalize)

__all__ = [
    "DensityValue",
    "exact_density",
    "exact_density_1d",
]


@dataclass(frozen=True)
class DensityValue:
    """Exact density: a rational in [0, 1], or Unknown when ``rational`` is None."""

    rational: Optional[Fraction]
    trace: tuple[str, ...] = ()

    def __post_init__(self):
        if self.rational is not None:
            assert 0 <= self.rational <= 1
            assert self.trace, "known densities must carry a derivation trace"

    @staticmethod
    def unknown() -> "DensityValue":
        return DensityValue(None)

    @property
    def kind(self) -> str:
        return "rational" if self.is_known else "unknown"

    @property
    def is_known(self) -> bool:
        return self.rational is not None

    def as_float(self) -> float:
        if not self.is_known:
            raise ValueError("density is unknown")
        return float(self.rational)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "trace": list(self.trace)}
        if self.is_known:
            out["value"] = repr(self.as_float())
            out["numerator"] = self.rational.numerator
            out["denominator"] = self.rational.denominator
        return out


def _merge_traces(*parts) -> tuple[str, ...]:
    """The rule names of the parts (sequences of names), adjacent duplicates
    removed."""
    out: list[str] = []
    for p in parts:
        for x in p:
            if not out or out[-1] != x:
                out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# One-dimensional density and axis sections
# ---------------------------------------------------------------------------

_ATOM_RULES_1D = {Prog: "multiples-rule", Fin: "finite-null"}


def exact_density_1d(e: IntSetExpr) -> DensityValue:
    """Dirichlet density of a one-dimensional set: the sum of coef/step over
    the progressions it compiles to (finite lists weigh 0); Unknown only when
    the compiled multiset exceeds the atom cap."""
    try:
        atoms = _compile_1d(e)
    except _CapExceeded:
        return DensityValue.unknown()
    density = sum((Fraction(c, a.step) for a, c in atoms.items() if isinstance(a, Prog)),
                  Fraction(0))
    rules = [_ATOM_RULES_1D[type(a)] for a in atoms] or ["finite-null"]
    return DensityValue(density, _merge_traces(_node_rules(e), dict.fromkeys(rules)))


def _finite_axes(e: GaussSetExpr, seen: dict) -> tuple[bool, bool]:
    """(rows finite, columns finite): is the set provably confined to
    finitely many rows m, or columns n?  Either forces density 0: the rows
    m <= M carry at most H_M(s) zeta(s) of the weight (mn)^-s, which vanishes
    against zeta(s)^2 as s decreases to 1.

    The walk takes the nodes a generic atom is built from; any other node is
    finite on an axis when every atom it compiles to is.  Those atoms may be
    generic again, over parts of the same tree, so each node is decided once
    per ``seen`` (node id -> (node, axes); holding the node keeps its id).
    """
    if id(e) in seen:
        return seen[id(e)][1]
    if isinstance(e, (Translate, Dilate)):
        axes = _finite_axes(e.inner, seen)
    elif isinstance(e, Difference):
        axes = _finite_axes(e.left, seen)
    elif isinstance(e, Intersection):
        (ah, av), (bh, bv) = _finite_axes(e.left, seen), _finite_axes(e.right, seen)
        axes = ah or bh, av or bv
    elif isinstance(e, Union):
        (ah, av), (bh, bv) = _finite_axes(e.left, seen), _finite_axes(e.right, seen)
        axes = ah and bh, av and bv
    else:
        axes = _compiled_axes(e, seen)
    seen[id(e)] = e, axes
    return axes


def _compiled_axes(e: GaussSetExpr, seen: dict) -> tuple[bool, bool]:
    try:
        atoms = _compile(e)     # not compile_set, whose kept map is the caller's
    except _CapExceeded:
        return False, False
    rows = cols = True
    for a in atoms:
        if isinstance(a, ProdAtom):
            h, v = isinstance(a.h, Fin), isinstance(a.v, Fin)
        elif isinstance(a, GenAtom):
            h, v = _finite_axes(a.expr, seen)
        else:
            h = v = isinstance(a, FinAtom)
        rows, cols = rows and h, cols and v
    return rows, cols


# ---------------------------------------------------------------------------
# Two-dimensional density
# ---------------------------------------------------------------------------

def _delimited_density(atom: DelimAtom) -> tuple[Fraction, str]:
    """Density of the band before its affine map, with its rule; lower cuts do
    not change it."""
    lower, upper = atom.lower, atom.upper
    if isinstance(lower, Exponential):
        # thins faster than any power band; the power value 1/(1+alpha)
        # vanishes as alpha grows without bound
        return Fraction(0), "exp-lower-null"

    _, alpha = power_form(lower)
    if isinstance(upper, Exponential):
        if alpha == 0:
            return Fraction(1), "exp-upper-full"
        return 1 / (1 + alpha), "power-lower-exp-upper"

    _, beta = power_form(upper)
    return 1 / (1 + alpha) - 1 / (1 + beta), "power-bounds"


def _atom_density(atom, seen: dict) -> tuple[Optional[Fraction], tuple[str, ...]]:
    """Closed-form density of one compiled atom (None when it has none), with
    its rules; ``seen`` is _finite_axes' memo, shared by the atoms of a set."""
    if isinstance(atom, ProdAtom):
        if isinstance(atom.h, Prog) and isinstance(atom.v, Prog):
            return Fraction(1, atom.h.step * atom.v.step), ("product-rule", "multiples-rule")
        return Fraction(0), ("product-rule", "finite-null")
    if isinstance(atom, FinAtom):
        return Fraction(0), ("finite-pairs",)
    if isinstance(atom, DelimAtom):
        band, rule = _delimited_density(atom)
        return band / (atom.am * atom.an), (rule,)
    assert isinstance(atom, GenAtom)
    if any(_finite_axes(atom.expr, seen)):
        return Fraction(0), ("finite-axis-section",)
    return None, ()


_NODE_RULES = {
    Empty: "empty-set",
    FinitePairs: "finite-pairs",
    Product: "product-rule",
    Translate: "translation-invariance",
    Dilate: "dilation-scaling",
    Union: "inclusion-exclusion",
    Intersection: "intersection-rule",
    Difference: "difference-rule",
    Complement: "complement-rule",
    IntUnion: "inclusion-exclusion",
    IntIntersection: "lcm-intersection",
    IntComplement: "complement-rule",
}


def _node_rules(e) -> list[str]:
    """Algebra rule names of the expression's nodes, parents first."""
    out = [_NODE_RULES[type(e)]] if type(e) in _NODE_RULES else []
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, (GaussSetExpr, IntSetExpr)):
            out += _node_rules(child)
    return out


def exact_density(e: GaussSetExpr) -> DensityValue:
    """Density of a quadrant set: the exact sum of coefficient times
    closed-form density over the atoms the set compiles to, Unknown when an
    atom has none."""
    seen: dict = {}
    parts = [(c, *_atom_density(a, seen)) for a, c in compile_set(e).items()]
    if any(d is None for _, d, _ in parts):
        return DensityValue.unknown()
    trace = _merge_traces(_node_rules(e), *dict.fromkeys(rules for _, _, rules in parts))
    # an empty band between constants compiles to no atom, under no node rule
    return DensityValue(sum((c * d for c, d, _ in parts), Fraction(0)), trace or ("empty-set",))
