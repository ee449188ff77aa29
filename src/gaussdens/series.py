"""Numerical evaluation of the double Dirichlet series behind the density.

For a set A and s > 1 the engine computes

    ratio(s) = ( sum over (m,n) in A of (m n)^(-s) ) / zeta(s)^2

with a rigorous bound on the omitted mass.  Everything else in the package
(the limit extrapolation, the cross-engine checks) builds on this.

Evaluation strategy
-------------------
An expression is compiled (``gaussdens.atoms``, shared with the exact
engine) into a merged signed multiset of *atoms*: a map from atom
to integer coefficient, exact at the level of indicator functions.  Each
distinct atom is evaluated once to the target eps * zeta(s)^2 / sum |coef|,
and its error counts |coef| times.  When any node of the expression would
hold more than ``ATOM_CAP`` atoms, the whole expression is one generic atom.
Atom kinds:

* product atoms: a progression (or finite list) on each axis; the double sum
  factors into two one-dimensional Dirichlet sums, each evaluated by direct
  summation plus an Euler-Maclaurin tail, so the error is at the rounding
  level.  A lattice M_(p,q) reduces to (pq)^(-s) this way.  Each distinct
  axis is summed once per s.
* delimited atoms: rows m carry the inner range [ceil f(m), floor g(m)]
  (possibly affinely shifted and cut below); rows up to a cutoff M are summed
  directly with tabulated/EM inner range sums, and the tail over m > M is
  replaced by closed Euler-Maclaurin forms per bound function with an explicit
  error budget (see below).
* finite atoms: summed directly.
* generic atoms (anything the compiler cannot reduce): truncated to the box
  [1, N]^2 and charged the documented generic tail bound.

Tail bounds
-----------
Generic truncation: the mass outside [1, N]^2 is at most

    2 * zeta(s) * N^(1-s) / (s-1)

because the outside region is covered by {m > N} x P and P x {n > N}, each
contributing at most zeta(s) * sum_{n>N} n^(-s), and the integral test gives
sum_{n>N} n^(-s) <= N^(1-s)/(s-1).

Euler-Maclaurin: for real x >= 64,

    sum_{j>=0} (j+x)^(-s) = x^(1-s)/(s-1) + x^(-s)/2 + s x^(-s-1)/12
                            - s(s+1)(s+2) x^(-s-3)/720
                            + s...(s+4) x^(-s-5)/30240 + err,

with |err| <= s...(s+6) x^(-s-7)/1209600 (first omitted term, since x^(-s) is
completely monotone).

Delimited rows beyond the direct cutoff M: the inner sum over row m equals
T(L-1) - T(U) where T(k) is the inner tail past k and L, U are the integer
cut points of the bounds.  T at the cut point of a bound b(m) is replaced by
the smooth midpoint form T(b(m) + 1/2); the replacement error per row is at
most about (b(m))^(-s) because the cut point sits within one unit of b(m) and
|T'| <= x^(-s).  Summed over m > M these jitter terms, the binomial expansion
remainders of the affine shifts, and the EM truncation errors give closed
error bounds, all of the shape coef * sum_{m>M} m^(-p) with p > 1; the direct
cutoff M is doubled until the budget is met.  Exponential bounds decay
geometrically past M and are charged entirely to the error.

Summation order is deterministic: fixed chunking, ascending rows and columns,
pairwise row reductions, and an exact (error-free-transformation) final sum
across rows, so results do not depend on worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .atoms import DelimAtom, Fin, FinAtom, GenAtom, ProdAtom, Prog, compile_set
from .sets import (
    BoundFn,
    Constant,
    Exponential,
    GaussSetExpr,
    Power,
    _HUGE,
    _LOG_HUGE,
    grid_mask,
    power_form,
)

__all__ = [
    "SeriesEval",
    "BudgetExceeded",
    "zeta",
    "range_sum",
    "partial_double_sum",
    "density_at",
    "DEFAULT_TERM_BUDGET",
]

DEFAULT_TERM_BUDGET = 10 ** 8
_EM_MIN = 64.0          # smallest argument for the Euler-Maclaurin tail
_TABLE = 10_000         # inner tails up to this cut point are tabulated exactly
_DIRECT_SPAN = 10_000   # range_sum switches to EM differences past this span
_GENERIC_HARD_CAP = 20_000    # generic box side cap (memory/time)
_ROW_CHUNK_BYTES = 64_000_000


class BudgetExceeded(RuntimeError):
    """The requested accuracy needs more terms than the configured budget."""


@dataclass(frozen=True)
class SeriesEval:
    """One evaluation of the normalised double series at a fixed s."""

    s: float
    value: float
    tail_bound: float
    terms_used: int
    method: str  # "direct" | "rowwise" | "product-closed-form"

    def to_row(self) -> dict:
        return {
            "s": repr(self.s),
            "value": repr(self.value),
            "tail_bound": repr(self.tail_bound),
            "terms_used": self.terms_used,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Euler-Maclaurin primitives
# ---------------------------------------------------------------------------

def _rising(s: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= s + i
    return out


def _em_tail(x, s: float):
    """sum_{j>=0} (j+x)^(-s) for real x >= _EM_MIN (scalar or ndarray)."""
    x = np.asarray(x, dtype=float)
    r = (
        x ** (1.0 - s) / (s - 1.0)
        + 0.5 * x ** (-s)
        + (s / 12.0) * x ** (-s - 1.0)
        - (_rising(s, 3) / 720.0) * x ** (-s - 3.0)
        + (_rising(s, 5) / 30240.0) * x ** (-s - 5.0)
    )
    return r if r.shape else float(r)


def _em_tail_err(x: float, s: float) -> float:
    return _rising(s, 7) / 1209600.0 * x ** (-s - 7.0)


@lru_cache(maxsize=4096)
def zeta(s: float) -> float:
    """Riemann zeta for real s > 1, by direct summation plus EM correction."""
    if not s > 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    n = np.arange(1.0, _EM_MIN)
    return float(np.sum(n ** -s) + _em_tail(_EM_MIN, s))


@lru_cache(maxsize=512)
def _tail_table(s: float, an: int, bn: int) -> np.ndarray:
    """tails[k] = sum_{v>k} (an*v+bn)^(-s) for k = 0.._TABLE."""
    v = np.arange(1.0, _TABLE + 1)
    vals = (an * v + bn) ** -s
    tails = np.empty(_TABLE + 1)
    tails[:-1] = np.cumsum(vals[::-1])[::-1]
    tails[-1] = 0.0
    tails += an ** (-s) * _em_tail(_TABLE + 1 + bn / an, s)
    return tails


def _tail_int(k: int, s: float, an: int = 1, bn: int = 0) -> float:
    """sum_{v>k} (an*v+bn)^(-s) for integer k >= 0."""
    if k <= _TABLE:
        return float(_tail_table(s, an, bn)[k])
    return an ** (-s) * float(_em_tail(k + 1 + bn / an, s))


def range_sum(a: int, b: int, s: float) -> float:
    """sum_{n=a}^{b} n^(-s); direct for short spans, EM differences otherwise."""
    if not s > 1.0:
        raise ValueError(f"range_sum requires s > 1, got {s}")
    if not (1 <= a <= b):
        raise ValueError(f"range_sum requires 1 <= a <= b, got {a}, {b}")
    if b - a <= _DIRECT_SPAN:
        n = np.arange(float(a), float(b) + 1.0)
        return float(math.fsum((n ** -s).tolist()))
    if a < _EM_MIN:
        head_end = int(_EM_MIN) - 1
        n = np.arange(float(a), head_end + 1.0)
        return float(math.fsum((n ** -s).tolist())) + range_sum(int(_EM_MIN), b, s)
    # tail(a) - tail(b+1), differenced term by term to dodge cancellation
    c = float(b + 1)
    af = float(a)
    ratio_log = math.log1p((c - af) / af)  # log(c/a)
    lead = af ** (1.0 - s) * (-math.expm1((1.0 - s) * ratio_log)) / (s - 1.0)
    half = 0.5 * af ** -s * (-math.expm1(-s * ratio_log))
    d1 = (s / 12.0) * af ** (-s - 1.0) * (-math.expm1((-s - 1.0) * ratio_log))
    d3 = -(_rising(s, 3) / 720.0) * (af ** (-s - 3.0) - c ** (-s - 3.0))
    d5 = (_rising(s, 5) / 30240.0) * (af ** (-s - 5.0) - c ** (-s - 5.0))
    return lead + half + d1 + d3 + d5


# ---------------------------------------------------------------------------
# Atom evaluation
# ---------------------------------------------------------------------------

def _dsum_1d(a, s: float) -> tuple[float, float, int]:
    """(value, error bound, terms) of sum over the 1-D atom of x^(-s)."""
    if isinstance(a, Fin):
        vals = [float(x) ** -s for x in a.values]
        return math.fsum(vals), 1e-15 * math.fsum(map(abs, vals)), len(vals)
    d, t = a.step, a.first
    c = t / d
    j_cut = max(0, int(math.ceil(_EM_MIN - c)))
    head = 0.0
    if j_cut > 0:
        j = np.arange(0.0, j_cut)
        head = float(math.fsum(((t + j * d) ** -s).tolist()))
    tail = d ** (-s) * float(_em_tail(j_cut + c, s))
    err = d ** (-s) * _em_tail_err(j_cut + c, s) + 1e-15 * (head + tail)
    return head + tail, err, j_cut + 8


def _axis_sums(atoms, s: float) -> dict:
    """_dsum_1d of each distinct axis of the product atoms among atoms."""
    sums: dict = {}
    for a in atoms:
        if isinstance(a, ProdAtom):
            for x in (a.h, a.v):
                if x not in sums:
                    sums[x] = _dsum_1d(x, s)
    return sums


def _bound_floats(b: BoundFn, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised bound values (snapped, capped at 2^62) and their true logs.

    Beyond the cap only the logarithm matters: cut points enter tails through
    x^(1-s) = exp((1-s) log x) and the one-unit cut jitter is below every
    tolerance there.
    """
    if isinstance(b, Constant):
        k = float(b.k)
        return np.full(u.shape, k), np.full(u.shape, math.log(k))
    if isinstance(b, Power):
        logs = math.log(float(b.c)) + float(b.alpha) * np.log(u)
        vals = np.exp(np.minimum(logs, _LOG_HUGE))
        if b.exact_int(1) is not None:
            exact = float(b.c) * u ** float(b.alpha)
            vals = np.where(exact < _HUGE, exact, vals)
    else:
        assert isinstance(b, Exponential)
        logs = math.log(float(b.c)) + u * math.log(float(b.a))
        vals = np.exp(np.minimum(logs, _LOG_HUGE))
    r = np.round(vals)
    snapped = np.where(np.abs(vals - r) <= 1e-9, r, vals)
    return snapped, logs


def _tail_at_cut(x: np.ndarray, logx: np.ndarray, ceil_side: bool, s: float,
                 an: int, bn: int) -> np.ndarray:
    """T(cut(x)) where cut = ceil(x)-1 on the lower side, floor(x) above.

    Exact (tabulated) below _TABLE; smooth midpoint EM form above, whose
    per-row error is covered by the caller's jitter budget; log-space EM once
    the bound leaves the exactly representable range.
    """
    k = (np.ceil(x) - 1.0) if ceil_side else np.floor(x)
    k = np.maximum(k, 0.0)
    out = np.empty(x.shape)
    small = k < _TABLE
    table = _tail_table(s, an, bn)
    out[small] = table[k[small].astype(np.int64)]
    big = ~small
    mid_log = np.where(
        x[big] < 1e15,
        np.log(x[big] + 0.5 + bn / an),
        logx[big],
    )
    out[big] = an ** (-s) * (
        np.exp((1.0 - s) * mid_log) / (s - 1.0)
        + 0.5 * np.exp(-s * mid_log)
        + (s / 12.0) * np.exp(-(s + 1.0) * mid_log)
        - (_rising(s, 3) / 720.0) * np.exp(-(s + 3.0) * mid_log)
    )
    return out


def _const_like(b: BoundFn) -> bool:
    form = power_form(b)
    return form is not None and form[1] == 0


def _crossover_u(b: BoundFn, target: float) -> int:
    """Smallest u with b(u) >= target (conservative), for growing bounds."""
    if isinstance(b, Constant):
        return 1
    if isinstance(b, Power):
        if b.alpha == 0:
            return 1
        c, al = float(b.c), float(b.alpha)
        return max(1, int(math.ceil((target / c) ** (1.0 / al))) + 1)
    assert isinstance(b, Exponential)
    c, base = float(b.c), float(b.a)
    return max(1, int(math.ceil(math.log(max(target / c, 1.0)) / math.log(base))) + 1)


def _delim_rem_terms(side: BoundFn, sign: float, atom: DelimAtom, s: float,
                     M: int) -> tuple[float, float]:
    """(value, error bound) of sign * sum_{u>M} W(u) * T(cut of side(u)).

    W(u) = (am*u+bm)^(-s), T the inner tail with affine (an, bn).
    """
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn
    btil = bm / am
    beta_til = bn / an
    scale = am ** (-s) * an ** (-s)
    d = s - 1.0

    if _const_like(side):
        kc = side.ceil_at(1) - 1 if sign > 0 else side.floor_at(1)
        if sign > 0:
            kc = max(kc, atom.v_min - 1)
        t_const = _tail_int(max(kc, 0), s, an, bn)
        outer = am ** (-s) * float(_em_tail(M + 1 + btil, s))
        err = am ** (-s) * _em_tail_err(M + 1 + btil, s) * t_const
        return sign * t_const * outer, err

    if isinstance(side, Exponential):
        c, base = float(side.c), float(side.a)
        rho = base ** (-d)
        lead = (1.5 / d + 1.0) * c ** (1.0 - s)
        geo = lead * (M + 1.0) ** (-s) * rho ** (M + 1) / max(1.0 - rho, 1e-300)
        return 0.0, scale * geo

    c, al = map(float, power_form(side))
    h = lambda p: float(_em_tail(M + 1.0, p))
    # value terms: leading, outer linear correction, inner shift correction,
    # half step, first Bernoulli step
    val = (
        c ** (1.0 - s) / d * h(s + al * d)
        - s * btil * c ** (1.0 - s) / d * h(s + 1.0 + al * d)
        - (beta_til + 0.5) * c ** (-s) * h(s + al + al * d)
        + 0.5 * c ** (-s) * h(s + al * s)
        + (s / 12.0) * c ** (-s - 1.0) * h(s + al * (s + 1.0))
    )
    err = (
        0.7 * 2.0 ** s * c ** (-s) * h(s * (1.0 + al))                      # cut jitter
        + c ** (1.0 - s) * ((beta_til + 0.5) / c) ** 2 * h(s + al * d + 2 * al)
        + 0.5 * s * c ** (-s) * (beta_til + 0.5) / c * h(s + al * s + al)
        + s * btil * c ** (-s) * (beta_til + 1.5) * h(s + 1.0 + al * s)
        + 0.5 * s * (s + 1.0) * btil ** 2 * (
            c ** (1.0 - s) / d * h(s + 2.0 + al * d)
            + 2.0 * c ** (-s) * h(s + 2.0 + al * s)
        )
        + _rising(s, 3) / 480.0 * c ** (-s - 3.0) * h(s + al * (s + 3.0))
        + (s / 12.0) * (s + 1.0) * (beta_til + 0.5) / c * c ** (-s - 1.0)
        * h(s + al * (s + 1.0) + al)
    )
    return sign * scale * val, scale * err


def _delim_required_start(atom: DelimAtom) -> int:
    btil = atom.bm / atom.am
    beta_til = atom.bn / atom.an
    target = max(2.0 * (beta_til + 0.5), float(atom.v_min) + 1.0, _EM_MIN)
    m = max(int(_EM_MIN), atom.u_min, int(math.ceil(2.0 * btil)) + 1, 2048)
    for side in (atom.lower, atom.upper):
        if not _const_like(side):
            m = max(m, _crossover_u(side, target))
    return m


def _eval_delim_atom(atom: DelimAtom, s: float, eps_abs: float,
                     rows_budget: int) -> tuple[float, float, int, bool]:
    """(value, error bound, rows used, met) of the atom's double sum."""
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn

    if _const_like(atom.lower) and _const_like(atom.upper):
        # constant band: every row carries the same integer range
        lo = max(atom.lower.ceil_at(1), atom.v_min)
        hi = atom.upper.floor_at(1)
        if lo > hi:
            return 0.0, 0.0, 0, True
        band = _tail_int(lo - 1, s, an, bn) - _tail_int(hi, s, an, bn)
        outer, outer_err, terms = _dsum_1d(Prog(am, am * atom.u_min + bm), s)
        return band * outer, band * outer_err + 1e-15 * band * outer, terms, True

    M = _delim_required_start(atom)
    while True:
        v_lo, e_lo = _delim_rem_terms(atom.lower, +1.0, atom, s, M)
        v_up, e_up = _delim_rem_terms(atom.upper, -1.0, atom, s, M)
        rem_val, rem_err = v_lo + v_up, e_lo + e_up
        if rem_err <= eps_abs * 0.5:
            met = True
            break
        if M >= rows_budget:
            met = False
            break
        M = min(M * 2, max(rows_budget, M + 1))

    # direct rows u_min..M
    chunk = max(1, _ROW_CHUNK_BYTES // 64)
    row_sums: list[float] = []
    jitter_direct = 0.0
    u0 = atom.u_min
    total_rows = 0
    table_lim = float(_TABLE)
    for lo in range(u0, M + 1, chunk):
        hi = min(lo + chunk - 1, M)
        u = np.arange(float(lo), float(hi) + 1.0)
        w = (am * u + bm) ** -s
        fraw, flog = _bound_floats(atom.lower, u)
        gvals, glog = _bound_floats(atom.upper, u)
        fvals = np.maximum(fraw, float(atom.v_min))
        flog = np.maximum(flog, math.log(float(atom.v_min)))
        t_lo = _tail_at_cut(fvals, flog, True, s, an, bn)
        t_hi = _tail_at_cut(gvals, glog, False, s, an, bn)
        inner = np.where(np.ceil(fvals) <= np.floor(gvals), t_lo - t_hi, 0.0)
        row_sums.append(float(np.sum(w * inner)))
        big = np.zeros(u.shape)
        for vals, logs in ((fvals, flog), (gvals, glog)):
            sel = vals >= table_lim
            big[sel] += 1.2 * np.exp(-s * (math.log(an) + logs[sel]))
        jitter_direct += float(np.sum(w * big))
        total_rows += u.shape[0]
    value = math.fsum(row_sums) + rem_val
    err = rem_err + jitter_direct + 1e-15 * abs(value)
    return value, err, total_rows, met


def _eval_gen_atom(atom: GenAtom, s: float, eps_abs: float,
                   terms_budget: int) -> tuple[float, float, int, bool]:
    z = zeta(s)
    d = s - 1.0

    def bound(n: int) -> float:
        return 2.0 * z * n ** (-d) / d

    # required N from the generic bound 2*zeta(s)*N^(1-s)/(s-1) <= eps_abs
    log_n = math.log(max(2.0 * z / (d * eps_abs), 1.0)) / d
    n_allowed = min(int(math.isqrt(max(terms_budget, 1))), _GENERIC_HARD_CAP)
    met = log_n <= math.log(max(n_allowed, 2))
    n = n_allowed if not met else max(2, int(math.ceil(math.exp(log_n))))
    n = min(n, n_allowed)
    n = max(n, 2)
    if not met and bound(n) > 0.25:
        # the reachable bound carries no information; spend fewer terms on it
        n = min(n, 2000)
    value = partial_double_sum(atom.expr, s, n)
    return value, bound(n), n * n, met


def _eval_atom(a, s: float, eps_abs: float, budget: int, axis_sums: dict):
    if isinstance(a, ProdAtom):
        vh, eh, th = axis_sums[a.h]
        vv, ev, tv = axis_sums[a.v]
        return vh * vv, vh * ev + vv * eh + eh * ev, th + tv, True
    if isinstance(a, FinAtom):
        vals = [(float(m) * float(n)) ** -s for m, n in a.pairs]
        return math.fsum(vals), 1e-15 * len(vals), len(vals), True
    if isinstance(a, DelimAtom):
        return _eval_delim_atom(a, s, eps_abs, budget)
    if isinstance(a, GenAtom):
        return _eval_gen_atom(a, s, eps_abs, budget)
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def partial_double_sum(e: GaussSetExpr, s: float, N: int) -> float:
    """sum over (m,n) in e with m,n <= N of (mn)^(-s).

    Rows ascending, columns ascending; each row is reduced pairwise and the
    row results are combined with an exact compensated sum, so the value is
    deterministic and independent of chunking or worker count.
    """
    if not s > 1.0:
        raise ValueError(f"partial_double_sum requires s > 1, got {s}")
    if N < 1:
        raise ValueError(f"partial_double_sum requires N >= 1, got {N}")
    n = np.arange(1.0, N + 1.0)
    npow = n ** -s
    chunk = max(1, min(4096, 4_000_000 // max(N, 1)))
    row_sums: list[float] = []
    for lo in range(1, N + 1, chunk):
        hi = min(lo + chunk - 1, N)
        mask = grid_mask(e, lo, hi, N)
        m = np.arange(float(lo), float(hi) + 1.0)
        rows = (m ** -s)[:, None] * np.where(mask, npow[None, :], 0.0)
        row_sums.extend(np.sum(rows, axis=1).tolist())
    return float(math.fsum(row_sums))


def _method_label(atoms) -> str:
    if any(isinstance(a, GenAtom) for a in atoms):
        return "direct"
    if any(isinstance(a, DelimAtom) for a in atoms):
        return "rowwise"
    return "product-closed-form"


def density_at(
    e: GaussSetExpr,
    s: float,
    eps: float,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
    loosen: bool = False,
    atoms: Optional[dict] = None,
) -> SeriesEval:
    """ratio(s) with tail_bound <= eps, or BudgetExceeded if that needs more
    than term_budget terms (with loosen=True the best value within budget is
    returned instead, its true tail bound reported honestly).

    ``atoms``, if given, must be ``compile_set(e)``; a caller that
    evaluates e at several s compiles it once."""
    if not s > 1.0:
        raise ValueError(f"density_at requires s > 1, got {s}")
    if not eps > 0.0:
        raise ValueError(f"density_at requires eps > 0, got {eps}")

    z = zeta(s)
    z2 = z * z
    if atoms is None:
        atoms = compile_set(e)
    if not atoms:
        return SeriesEval(s, 0.0, 0.0, 0, "product-closed-form")
    # each distinct atom is evaluated once and weighs |coef| in the error
    eps_abs = eps * z2 / sum(abs(c) for c in atoms.values())
    values: list[float] = []
    errs: list[float] = []
    terms = 0
    met_all = True
    axis_sums = _axis_sums(atoms, s)   # product atoms share axes
    for atom, coef in atoms.items():
        budget_left = max(term_budget - terms, 0)
        v, err, t, met = _eval_atom(atom, s, eps_abs, budget_left, axis_sums)
        values.append(coef * v)
        errs.append(abs(coef) * err)
        terms += t
        met_all = met_all and met
    if not met_all and not loosen:
        raise BudgetExceeded(
            f"tail bound {math.fsum(errs) / z2:.3e} > eps {eps:.3e} at s={s} "
            f"within term budget {term_budget}; s is too close to 1 for this eps"
        )
    value = max(math.fsum(values) / z2, 0.0)
    tail = math.fsum(errs) / z2 + 1e-14 * value
    return SeriesEval(s, value, tail, terms, _method_label(atoms))
