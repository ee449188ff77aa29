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
  [1, N]^2 and charged the documented generic tail bound.  The box is summed
  in fixed-size blocks of rows (``_BOX_CELLS`` cells, one float buffer per
  call); a row with no member is skipped, since it would add exactly 0.0, and
  every other row is one pairwise ``np.sum`` over its full length, so the sum
  is the same bits at any block size.

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
across rows, so results do not depend on worker count.  The direct rows of a
delimited atom are summed in fixed chunks of ``_CHUNK_ROWS`` (one pairwise
``np.sum`` each, then ``math.fsum`` over the chunks).  Inside a chunk the rows
are evaluated in cache-sized blocks of ``_BLOCK_ROWS`` that write their terms
into one chunk buffer; every row's term is computed by the same elementwise
operations whatever block holds it, so the block size never changes a sum.
A sub-linear power side often keeps one integer cut over a whole block; its
cut and inner tail are then taken once, from the block's end rows, and stand
for every row, so no two terms are merged: every row still gets its own
product of outer weight and inner sum.  Every other block cuts each side row
by row.  Past the table, each Euler-Maclaurin correction of T (the x^(-s)/2,
s x^(-s-1)/12 and s(s+1)(s+2) x^(-s-3)/720 terms) is evaluated only where it
can move a bit: a block skips a correction whose largest value there
is below 2^-60 of its smallest leading term x^(1-s)/(s-1), which is under half
an ulp of every row's tail, so the sums are the same bits as with every term.
Rows ascend and every bound is nondecreasing, so a block's extremes, and the
edges where its rows cross the table, 2^62 or underflow, come from its end
rows and a binary search instead of passes over the block.

Every documented schedule evaluates the same grid s = 1 + 2^-(k+1), so the
quantities that depend on s alone are taken once per s and kept: zeta(s),
the inner tail tables (per s and inner affine map), the axis sums of product
atoms (per axis and s) and the Euler-Maclaurin remainder tails (per cutoff
and exponent list, which s and the power fix).  What depends on the atom
alone is taken once per atom: a delimited atom's ``_DelimPlan`` holds the one
cut of a constant lower side, the rows where its growing sides reach 2^62 and
its first direct cutoff.  Its sides in floats are not the engine's own:
``gaussdens.sets`` owns each bound's float view (``BoundFn.floats``, taken
once per bound), and membership and the row kernel read the same one.  The
lru_caches drop their least recently used entry past 4,096 entries (512 for
the tail tables of 10,001 floats each).  The axis sums are kept in a plain
dict that is cleared whole before it would pass 16,384 entries, about twice
the largest traffic measured, so a repeated estimate of a union of ten prime
lattices (1,023 axes at each of 7 points) takes none of its sums again.  A
kept result is immutable (a tuple or a read-only array) and is exactly what
the function returns, so every value, tail bound and term count is the same
bits with a cold or a warm cache and at any worker count (threads share the
caches; two may compute one entry twice, to the same bits).

Each point collects the distinct axes of its product atoms, looks each up in
the axis memo and takes every miss in one batch (``_prog_sums``): one numpy
power over every head term and one vectorised Euler-Maclaurin tail, and per
axis the head's fsum, d^(-s) and the EM error in Python floats, so each
(value, error, terms) triple is the same bits as summing its axis alone.  A
point whose axes are all kept makes no numpy call; a delimited atom's axis
sums go through the same memo.  An axis with a head term past half the float
range (``_far``) takes its far terms and its EM tail in logs, and a term below
the float range is 0.0; a delimited atom whose row plan, inner tables or
direct rows would leave the float range, or whose lower cut v_min passes the
row kernel's 2^62 cap, is charged its whole mass.  (A band between constants
compiles to product atoms.)  The expression
itself is compiled once per expression object (``compile_set`` keeps the last
one), so an estimate, its exact reference and every point of a sweep read one
compile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .atoms import DelimAtom, Fin, FinAtom, GenAtom, ProdAtom, Prog, compile_set
from .sets import (
    BoundFloats,
    Constant,
    Exponential,
    GaussSetExpr,
    Power,
    _HUGE,
    _LOG_HUGE,
    grid_mask,
)

__all__ = [
    "SeriesEval",
    "zeta",
    "partial_double_sum",
    "density_at",
    "DEFAULT_TERM_BUDGET",
]

DEFAULT_TERM_BUDGET = 10 ** 8
_EM_MIN = 64.0          # smallest argument for the Euler-Maclaurin tail
_TABLE = 10_000         # inner tails up to this cut point are tabulated exactly
_GENERIC_HARD_CAP = 20_000    # generic box side cap: it caps time (memory is one block)
_BOX_CELLS = 1 << 20        # cells per block of the generic box (8 MiB of floats)
_CHUNK_ROWS = 1_000_000     # direct rows per np.sum; fixes the summation order
_BLOCK_ROWS = 16_384        # rows evaluated together inside a chunk (L2-sized)


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


def _em_tail(x, s):
    """sum_{j>=0} (j+x)^(-s) for real x >= _EM_MIN (scalar or ndarray); for
    an array s, one value per exponent (but see _em_tails)."""
    x = np.asarray(x, dtype=float)
    r = (
        x ** (1.0 - s) / (s - 1.0)
        + 0.5 * x ** (-s)
        + (s / 12.0) * x ** (-s - 1.0)
        - (_rising(s, 3) / 720.0) * x ** (-s - 3.0)
        + (_rising(s, 5) / 30240.0) * x ** (-s - 5.0)
    )
    return r if r.shape else float(r)


@lru_cache(maxsize=4096)
def _em_tails(x: float, ps: tuple[float, ...]) -> tuple[float, ...]:
    """(_em_tail(x, p) for p in ps), bit for bit, in one vectorised pass.

    numpy's x ** e with a scalar e may replace pow by a shortcut (reciprocal,
    square, sqrt: at e = -1, 0, 1/2, 1, 2 in current releases), so an exponent
    p that puts any of _em_tail's powers at an integer or half-integer e is
    evaluated on its own.
    """
    out = _em_tail(x, np.array(ps)).tolist()
    for i, p in enumerate(ps):
        if any((2.0 * e).is_integer() for e in (1.0 - p, -p, -p - 1.0, -p - 3.0, -p - 5.0)):
            out[i] = _em_tail(x, p)
    return tuple(out)


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
    tails.flags.writeable = False   # shared by every caller
    return tails


def _tail_int(k: int, s: float, an: int = 1, bn: int = 0) -> float:
    """sum_{v>k} (an*v+bn)^(-s) for integer k >= 0."""
    if k <= _TABLE:
        return float(_tail_table(s, an, bn)[k])
    return an ** (-s) * float(_em_tail(k + 1 + bn / an, s))


# ---------------------------------------------------------------------------
# Atom evaluation
# ---------------------------------------------------------------------------

# the smallest integer whose float overflows
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _far_pow(x: int, s: float) -> float:
    """x^(-s) of an integer past the float range, as exp(-s log x).  It is
    nonzero only where s log x < 746, so its relative error is below 2^-42
    (past the subnormal rounding that density_at's floor covers)."""
    return math.exp(-s * math.log(x))


def _fin_sum(a: Fin, s: float) -> tuple[float, float, int]:
    """(value, error bound, terms) of sum over the finite axis of x^(-s)."""
    near = [float(x) ** -s for x in a.values if x < _FLOAT_LIMIT]
    far = [_far_pow(x, s) for x in a.values if x >= _FLOAT_LIMIT]
    value = math.fsum(near + far)
    return value, 1e-15 * math.fsum(near) + 2.0 ** -42 * math.fsum(far), len(a.values)


# the head indices j of a progression: it has at most 64 head terms, since
# its cut is ceil(_EM_MIN - t/d) with t/d > 0
_HEAD_J = np.arange(0.0, _EM_MIN)


def _prog_sums(progs: list[Prog], s: float) -> list[tuple[float, float, int]]:
    """(value, error bound, terms) of sum over each progression of x^(-s),
    for progressions that are not _far: direct summation of
    the head below the Euler-Maclaurin threshold, then the EM tail.

    Every head term's power is one numpy call and every EM tail one more; each
    head's math.fsum, d^(-s) and _em_tail_err's power are taken per axis in
    Python floats.  Each element goes through the same operations as when its
    axis is summed alone, so every triple is the same bits whatever the batch.
    """
    d = [a.step for a in progs]
    t = [a.first for a in progs]
    c = [ti / di for ti, di in zip(t, d)]
    cuts = [max(0, int(math.ceil(_EM_MIN - ci))) for ci in c]
    heads = [0.0] * len(progs)
    if any(cuts):
        # j = 0..cut-1 within each axis, and each axis' first and step per term
        j = np.concatenate([_HEAD_J[:k] for k in cuts])
        first, step = np.repeat(np.array([t, d], dtype=float), cuts, axis=1)
        with np.errstate(over="ignore"):    # a term past the float range: inf^(-s) = 0.0
            first += j * step
        terms = (first ** -s).tolist()
        e = 0
        for i, k in enumerate(cuts):
            if k:
                heads[i] = float(math.fsum(terms[e:e + k]))
                e += k
    args = [k + ci for k, ci in zip(cuts, c)]
    coef = _rising(s, 7) / 1209600.0    # _em_tail_err(x, s) = coef * x^(-s-7)
    out = []
    for di, k, x0, head, em in zip(d, cuts, args, heads, _em_tail(np.array(args), s).tolist()):
        w = di ** (-s)
        tail = w * em
        out.append((head + tail, w * (coef * x0 ** (-s - 7.0)) + 1e-15 * (head + tail), k + 8))
    return out


def _far(a: Prog, terms: int = int(_EM_MIN)) -> bool:
    """Whether one of the first ``terms`` terms of the progression, or twice
    one, is past the float range, so float arithmetic on them would overflow
    (by default the head of _prog_sums)."""
    return 2 * (a.first + terms * a.step) >= _FLOAT_LIMIT


def _far_prog_sum(a: Prog, s: float) -> tuple[float, float, int]:
    """_prog_sums of one _far progression.  Head terms within the float range
    are float powers; the others (_far_pow) and the EM tail
    d^(-s) * T(j_cut + t/d) are taken in logs, as ``sets`` takes a
    coefficient past the float range, with their rounding charged to the
    error bound.
    """
    d, t = a.step, a.first
    j_cut = max(0, int(math.ceil(_EM_MIN - t / d))) if t < 64 * d else 0
    log_d = math.log(d)
    log_x = math.log(j_cut * d + t) - log_d        # log(j_cut + t/d)

    def term(p: float) -> float:
        """d^(-s) * x^(-p)"""
        return math.exp(-s * log_d - p * log_x)

    xs = [t + j * d for j in range(j_cut)]
    near = math.fsum(float(x) ** -s for x in xs if x < _FLOAT_LIMIT)
    far = math.fsum(_far_pow(x, s) for x in xs if x >= _FLOAT_LIMIT)
    tail = (term(s - 1.0) / (s - 1.0) + 0.5 * term(s) + (s / 12.0) * term(s + 1.0)
            - (_rising(s, 3) / 720.0) * term(s + 3.0)
            + (_rising(s, 5) / 30240.0) * term(s + 5.0))
    # each exp's argument is off by at most 2^-50 of the logs it is made of
    # (at least 2^-42 here, since a _far axis has log d or log t/d above 700)
    rel = 1e-15 + 2.0 ** -50 * (s + 7.0) * (abs(log_x) + 2.0 * log_d)
    err = _rising(s, 7) / 1209600.0 * term(s + 7.0) + 1e-15 * near + rel * (far + tail)
    return near + far + tail, err, j_cut + 8


def _axis_key(a, s: float) -> tuple:
    """The memo key of an axis at s: its fields, whose hash is native where
    the dataclass's own __hash__ is a Python call."""
    return (a.step, a.first, s) if type(a) is Prog else (a.values, s)


# The axis sums of product atoms, per _axis_key.  The cap is about twice the
# largest traffic measured with no cap: 7,385 entries over the set_algebra
# benchmark's seeds 1-3, 7,161 for the four rotations of a ten-prime union.
_AXIS_CAP = 16_384
_axis_memo: dict = {}


def _axis_sums(axes: list, s: float) -> list[tuple[float, float, int]]:
    """(value, error bound, terms) of each axis at s, in order.

    Each axis is looked up in the memo and every miss is taken in one batch
    (``_prog_sums``), so a point whose axes are all kept makes no numpy call.
    The memo is cleared whole before an update that would pass its cap; a
    point has at most 2 * ATOM_CAP axes, so its batch always fits.  There is
    no lock: each get, update and clear is atomic under the GIL, a clear that
    races another thread only makes it take the same bits again, and updates
    racing past one check of the cap overshoot it by at most their batches.
    """
    keys = [_axis_key(a, s) for a in axes]
    out = [_axis_memo.get(k) for k in keys]
    misses = {a: k for a, k, r in zip(axes, keys, out) if r is None}
    if not misses:
        return out
    new = dict.fromkeys(misses)
    near = [a for a in new if isinstance(a, Prog) and not _far(a)]
    new.update(zip(near, _prog_sums(near, s)))
    for a, r in new.items():
        if r is None:
            new[a] = _fin_sum(a, s) if isinstance(a, Fin) else _far_prog_sum(a, s)
    if len(_axis_memo) + len(new) > _AXIS_CAP:
        _axis_memo.clear()
    _axis_memo.update({misses[a]: r for a, r in new.items()})
    return [new[a] if r is None else r for a, r in zip(axes, out)]


# Values a bound takes on every row of a block where it is saturated.
_SATURATED = np.exp(np.array([_LOG_HUGE]))
_SATURATED.flags.writeable = False
# exp(z) is exactly 0.0 for z < _EXP_ZERO (the smallest subnormal is
# exp(-744.4)); see _exp_into
_EXP_ZERO = -746.0
# log 2^-60: a correction below 2^-60 of the leading term x^(1-s)/(s-1) is
# under half an ulp (2^-54 at least) of the tail it is added to, so the sum
# rounds to the tail unchanged
_NEGLIGIBLE = -60.0 * math.log(2.0)


def _coef_pow(c: float, log_c: float, p: float) -> float:
    """c ** p for a _coef pair, through log c where c is past the float range."""
    return c ** p if 0.0 < c < math.inf else math.exp(p * log_c)


def _exp_into(coef: float, logs: np.ndarray, out: np.ndarray) -> Optional[np.ndarray]:
    """out = exp(coef * logs) for coef < 0 and ascending logs, or None when
    every value is 0.0.  The rows whose argument is below _EXP_ZERO, a tail of
    the block, are set to 0.0 without evaluating them (a row next to that edge
    may fall on either side: its value is 0.0 both ways)."""
    # np.exp is slow near underflow: on an Intel Xeon with AVX-512 (numpy
    # 2.4.6) it takes 1.2 ns per element on normal results, 20 ns on
    # arguments below _EXP_ZERO and 139 ns, about 120x, on subnormal results.
    # So the rows past _EXP_ZERO are skipped here, and _tail_em evaluates an
    # Euler-Maclaurin correction, whose smallest values are the subnormal
    # ones, only where it can move a bit of the tail (_NEGLIGIBLE).
    if coef * logs[0] < _EXP_ZERO:
        return None
    n = logs.shape[0]
    if coef * logs[-1] < _EXP_ZERO:
        n = int(np.searchsorted(logs, _EXP_ZERO / coef, side="right"))
        out[n:] = 0.0
    z = np.multiply(coef, logs[:n], out=out[:n])
    np.exp(z, out=z)
    return out


def _capped_exp(logs: np.ndarray) -> np.ndarray:
    """exp(min(logs, log 2^62)) for ascending logs; one value when every row
    saturates."""
    if logs[0] >= _LOG_HUGE:
        return _SATURATED
    capped = np.minimum(logs, _LOG_HUGE)
    return np.exp(capped, out=capped)


def _bound_floats(b: BoundFloats, u: np.ndarray,
                  logu: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Bound values at ascending rows u (snapped, capped at 2^62) and their
    true logs, both ascending.

    ``logu`` is log(u), shared by both sides of a power band.  A result of
    length 1 stands for every row: a constant bound, or one saturated on the
    whole block.  Beyond the cap only the logarithm matters: cut points enter
    tails through x^(1-s) = exp((1-s) log x) and the one-unit cut jitter is
    below every tolerance there.
    """
    if b.kind is Constant:
        vals, logs = np.array([b.c]), np.array([b.log_c])
    elif b.kind is Power:
        logs = np.multiply(b.alpha, logu)
        logs += b.log_c
        # an integer power takes the exact product, with exp(logs) where it
        # saturates, on the rows before its log passes log 2^62 by 1 (far
        # more than rounding in these logs): the rows past it saturate, and
        # their products may overflow
        n = int(np.searchsorted(logs, _LOG_HUGE + 1.0)) if b.exact else 0
        if n == 0:
            vals = _capped_exp(logs)
        else:
            vals = u[:n] ** b.alpha
            vals *= b.c
            if vals[-1] >= _HUGE:
                i = int(np.searchsorted(vals, float(_HUGE)))
                vals[i:] = _capped_exp(logs[i:n])
            if n < u.shape[0]:
                vals = np.concatenate((vals, np.full(u.shape[0] - n, _SATURATED[0])))
    else:
        logs = u * b.alpha
        logs += b.log_c
        vals = _capped_exp(logs)
    if vals[0] >= 2.0 ** 52:     # every such float is an integer already
        return vals, logs
    r = np.round(vals)
    d = vals - r
    np.abs(d, out=d)
    np.copyto(r, vals, where=d > 1e-9)
    return r, logs


def _tail_em(x: np.ndarray, logx: np.ndarray, s: float, an: int, bn: int) -> np.ndarray:
    """Midpoint EM form of T at ascending cut points past the table.

    mid_log ascends with the rows, so each term takes its extremes at the two
    end rows.  A correction is evaluated only where it can move a bit: its
    largest value (at the first row) is compared with 2^-60 of the smallest
    leading term (at the last row), with a margin of 2^6 over half an ulp that
    covers rounding in these logs.
    """
    if x[-1] < 1e15:
        mid_log = x + 0.5
        mid_log += bn / an
        np.log(mid_log, out=mid_log)
    elif x[0] >= 1e15:
        mid_log = logx
    else:
        n = int(np.searchsorted(x, 1e15))
        mid_log = logx.copy()
        near = x[:n] + 0.5
        near += bn / an
        np.log(near, out=mid_log[:n])
    lo, hi = mid_log[0], mid_log[-1]
    if (1.0 - s) * lo < _EXP_ZERO:
        # every exponential below underflows to 0.0
        return np.zeros(1)
    # log of 2^-60 of the smallest leading term, at the last row
    floor = (1.0 - s) * hi - math.log(s - 1.0) + _NEGLIGIBLE

    def moves(coef: float, p: float) -> bool:
        """Can coef * exp(-p * mid_log) move a bit of the tail on some row?"""
        return math.log(coef) - p * lo >= floor

    t, tmp = np.empty(mid_log.shape), np.empty(mid_log.shape)
    _exp_into(1.0 - s, mid_log, t)
    t /= s - 1.0
    # a correction that cannot move a bit, or is 0.0 on every row, leaves t
    # as it is
    if moves(0.5, s) and _exp_into(-s, mid_log, tmp) is not None:
        tmp *= 0.5
        t += tmp
    if moves(s / 12.0, s + 1.0) and _exp_into(-(s + 1.0), mid_log, tmp) is not None:
        tmp *= s / 12.0
        t += tmp
    c3 = _rising(s, 3) / 720.0
    if moves(c3, s + 3.0) and _exp_into(-(s + 3.0), mid_log, tmp) is not None:
        tmp *= c3
        t -= tmp
    if an != 1:
        t *= an ** (-s)
    return t


def _tail_at_cut(x: np.ndarray, logx: np.ndarray, key: np.ndarray, ceil_side: bool,
                 s: float, an: int, bn: int) -> np.ndarray:
    """T(cut(x)) at ascending x, where cut = key-1 on the lower side (key =
    ceil(x)), key above (key = floor(x)).

    Exact (tabulated) below _TABLE; smooth midpoint EM form above, whose
    per-row error is covered by the caller's jitter budget; log-space EM once
    the bound leaves the exactly representable range.
    """
    edge = _TABLE + 1.0 if ceil_side else float(_TABLE)    # the first key past the table
    if key[0] >= edge:
        return _tail_em(x, logx, s, an, bn)
    n = int(np.searchsorted(key, edge))
    k = np.maximum(key[:n] - 1.0 if ceil_side else key[:n], 0.0)
    table = _tail_table(s, an, bn)[k.astype(np.int64)]
    if n == key.shape[0]:
        return table
    out = np.empty(key.shape)
    out[:n] = table
    out[n:] = _tail_em(x[n:], logx[n:], s, an, bn)
    return out


def _jitter(vals: np.ndarray, logs: np.ndarray, s: float, an: int) -> Optional[np.ndarray]:
    """Cut-jitter bound 1.2*(an*b)^(-s) at ascending bounds b, on the rows
    past the table (0 before them), or None when no row passes it."""
    if vals[-1] < _TABLE:
        return None
    n = int(np.searchsorted(vals, float(_TABLE)))
    out = np.zeros(logs.shape)
    z = logs[n:] if an == 1 else logs[n:] + math.log(an)
    if _exp_into(-s, z, out[n:]) is not None:
        out[n:] *= 1.2
    return out


def _cuts(b: BoundFloats, u, logu, lower: bool,
          v_min: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cut keys, values, logs) of one side on ascending rows u, the values
    and logs as _bound_floats gives them.  The keys are ceil of the lower
    value, which is cut at v_min, and floor of the upper value.  Every cut
    key of the row kernel is taken here."""
    vals, logs = _bound_floats(b, u, logu)
    if not lower:
        return np.floor(vals), vals, logs
    # (the values ascend: the cut binds on a head of the rows, if any)
    if vals[0] < v_min:
        vals = np.maximum(vals, float(v_min))
    if logs[0] < math.log(float(v_min)):
        logs = np.maximum(logs, math.log(float(v_min)))
    return np.ceil(vals), vals, logs


def _side_rows(b: BoundFloats, u, logu, lower: bool, v_min: int, s: float, an: int,
               bn: int) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(cut keys, T at the cut, cut-jitter or None) of one side on ascending
    rows u; logu is log(u), or None where the side takes it itself.

    A power side with 0 < alpha < 1 often keeps one cut over a whole block:
    where its key is the same on the block's first and last rows (so on every
    row, the keys ascending) and its value stays below the table's end, the
    key and its table entry are taken once and stand for every row (arrays of
    length 1).  That is the entry each row would read, so no sum changes.
    """
    if b.kind is Power and 0.0 < b.alpha < 1.0:
        ends = u[[0, -1]]
        key, vals, logs = _cuts(b, ends, np.log(ends), lower, v_min)
        if key[0] == key[-1] and vals[-1] < _TABLE:
            key, vals, logs = key[:1], vals[:1], logs[:1]
            return key, _tail_at_cut(vals, logs, key, lower, s, an, bn), None
    if logu is None and b.kind is Power:
        logu = np.log(u)
    key, vals, logs = _cuts(b, u, logu, lower, v_min)
    return key, _tail_at_cut(vals, logs, key, lower, s, an, bn), _jitter(vals, logs, s, an)


def _row_block(atom: DelimAtom, s: float, u: np.ndarray):
    """(w, inner, jitter) on ascending rows u: the outer weight (am*u+bm)^(-s),
    the inner range sum and the cut-jitter bound (None if 0 on every row)."""
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn
    if (am, bm) == (1, 0):
        w = np.power(u, -s)
    else:
        w = am * u
        w += bm
        np.power(w, -s, out=w)
    # (two power sides share log u; a lone one takes it where it needs it)
    lo, hi = atom.lower.floats, atom.upper.floats
    logu = np.log(u) if lo.kind is Power and hi.kind is Power else None
    k_lo, t_lo, jit_lo = _side_rows(lo, u, logu, True, atom.v_min, s, an, bn)
    k_hi, t_hi, jit_hi = _side_rows(hi, u, logu, False, atom.v_min, s, an, bn)
    # inner into a side's own tail where one covers the block
    out = next((t for t in (t_hi, t_lo) if t.shape == u.shape), None)
    inner = np.subtract(t_lo, t_hi, out=out)
    if k_lo[-1] > k_hi[0]:     # some row may be empty (the keys ascend)
        np.copyto(inner, 0.0, where=k_lo > k_hi)
    if jit_lo is None or jit_hi is None:
        return w, inner, (jit_hi if jit_lo is None else jit_lo)
    return w, inner, jit_lo + jit_hi


def _direct_rows(atom: DelimAtom, s: float, M: int) -> tuple[list[float], float, int]:
    """(chunk sums, jitter bound, rows) of the direct rows u_min..M.

    Each chunk of _CHUNK_ROWS rows is one np.sum; its rows are evaluated in
    blocks of at most _BLOCK_ROWS written into one chunk buffer, so the block
    size never changes a sum.
    """
    rows = max(M - atom.u_min + 1, 0)
    prod = np.empty(min(rows, _CHUNK_ROWS))
    jit = np.empty(prod.shape)
    row_sums: list[float] = []
    jitter = 0.0
    plan = _delim_plan(atom)
    # a block ends where every side that saturates within the first block has
    # saturated: the rows before it mix table and EM cuts, unsaturated and
    # saturated values, and EM corrections that move bits with ones that
    # cannot, and the rows after it take one value per side and no correction
    settled = max((u for u in plan.saturated if u < atom.u_min + _BLOCK_ROWS), default=0)
    for lo in range(atom.u_min, M + 1, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS - 1, M)
        any_jit = False
        b0 = lo
        while b0 <= hi:
            b1 = min(b0 + _BLOCK_ROWS - 1, hi)
            if b0 < settled <= b1:
                b1 = settled - 1
            i, j = b0 - lo, b1 - lo + 1
            w, inner, big = _row_block(atom, s, np.arange(float(b0), float(b1) + 1.0))
            np.multiply(w, inner, out=prod[i:j])
            if big is None:
                jit[i:j] = 0.0
            else:
                np.multiply(w, big, out=jit[i:j])
                any_jit = True
            b0 = b1 + 1
        n = hi - lo + 1
        row_sums.append(float(np.sum(prod[:n])))
        if any_jit:
            jitter += float(np.sum(jit[:n]))
    return row_sums, jitter, rows


def _crossover_u(b: BoundFloats, target: float) -> int:
    """Smallest u with b(u) >= target (conservative), for a growing side (a
    power with alpha > 0, or an exponential); saturates at _HUGE, past any
    row budget."""
    c, log_c = b.c, b.log_c
    inside = 0.0 < c < math.inf     # else only log c is at hand
    if b.kind is Power:
        al = b.alpha
        log_ratio = math.log(target / c) if inside else math.log(target) - log_c
        if log_ratio >= _LOG_HUGE * al:
            return _HUGE
        if al == 0.0:   # alpha below the float range, and c is past the target
            return 1
        root = (target / c) ** (1.0 / al) if inside else math.exp(log_ratio / al)
        return max(1, int(math.ceil(root)) + 1)
    log_ratio = (math.log(max(target / c, 1.0)) if inside
                 else max(math.log(target) - log_c, 0.0))
    log_base = b.alpha
    if log_ratio >= _HUGE * log_base:
        return _HUGE
    return max(1, int(math.ceil(log_ratio / log_base)) + 1)


def _delim_rem_terms(side: BoundFloats, cut: Optional[int], sign: float, atom: DelimAtom,
                     s: float, M: int) -> tuple[float, float]:
    """(value, error bound) of sign * sum_{u>M} W(u) * T(cut of side(u)).

    W(u) = (am*u+bm)^(-s), T the inner tail with affine (an, bn); ``cut`` is
    the one cut of a constant lower side (see _DelimPlan), else None.
    """
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn
    btil = bm / am
    beta_til = bn / an
    scale = am ** (-s) * an ** (-s)
    d = s - 1.0

    if cut is not None:
        t_const = _tail_int(max(cut, 0), s, an, bn)
        outer = am ** (-s) * float(_em_tail(M + 1 + btil, s))
        err = am ** (-s) * _em_tail_err(M + 1 + btil, s) * t_const
        return sign * t_const * outer, err

    c, log_c = side.c, side.log_c
    if side.kind is Exponential:
        rho = side.base ** (-d)
        lead = (1.5 / d + 1.0) * _coef_pow(c, log_c, 1.0 - s)
        geo = lead * (M + 1.0) ** (-s) * rho ** (M + 1) / max(1.0 - rho, 1e-300)
        return 0.0, scale * geo

    al = side.alpha
    c_1s, c_s = _coef_pow(c, log_c, 1.0 - s), _coef_pow(c, log_c, -s)   # c^(1-s), c^-s
    # h(p) = sum_{u>M} u^(-p) at every exponent p the terms below use, in one pass
    ps = (s + al * d, s + 1.0 + al * d, s + al + al * d, s + al * s,
          s + al * (s + 1.0), s * (1.0 + al), s + al * d + 2 * al, s + al * s + al,
          s + 1.0 + al * s, s + 2.0 + al * d, s + 2.0 + al * s, s + al * (s + 3.0),
          s + al * (s + 1.0) + al)
    h = dict(zip(ps, _em_tails(M + 1.0, ps))).__getitem__
    # value terms: leading, outer linear correction, inner shift correction,
    # half step, first Bernoulli step
    val = (
        c_1s / d * h(s + al * d)
        - s * btil * c_1s / d * h(s + 1.0 + al * d)
        - (beta_til + 0.5) * c_s * h(s + al + al * d)
        + 0.5 * c_s * h(s + al * s)
        + (s / 12.0) * _coef_pow(c, log_c, -s - 1.0) * h(s + al * (s + 1.0))
    )
    err = (
        0.7 * 2.0 ** s * c_s * h(s * (1.0 + al))                     # cut jitter
        + c_1s * ((beta_til + 0.5) / c) ** 2 * h(s + al * d + 2 * al)
        + 0.5 * s * c_s * (beta_til + 0.5) / c * h(s + al * s + al)
        + s * btil * c_s * (beta_til + 1.5) * h(s + 1.0 + al * s)
        + 0.5 * s * (s + 1.0) * btil ** 2 * (
            c_1s / d * h(s + 2.0 + al * d)
            + 2.0 * c_s * h(s + 2.0 + al * s)
        )
        + _rising(s, 3) / 480.0 * _coef_pow(c, log_c, -s - 3.0) * h(s + al * (s + 3.0))
        + (s / 12.0) * (s + 1.0) * (beta_til + 0.5) / c * _coef_pow(c, log_c, -s - 1.0)
        * h(s + al * (s + 1.0) + al)
    )
    return sign * scale * val, scale * err


def _delim_required_start(atom: DelimAtom, growing: list[BoundFloats]) -> int:
    """The first direct cutoff M, past which the remainder forms hold for
    the atom's growing sides."""
    btil = atom.bm / atom.am
    beta_til = atom.bn / atom.an
    target = max(2.0 * (beta_til + 0.5), float(atom.v_min) + 1.0, _EM_MIN)
    m = max(int(_EM_MIN), atom.u_min, int(math.ceil(2.0 * btil)) + 1, 2048)
    for side in growing:
        m = max(m, _crossover_u(side, target))
    return m


class _DelimPlan(NamedTuple):
    """What a delimited atom's evaluation needs that does not depend on s."""

    # the inner cut v_min - 1 of a constant lower side (the compiler leaves
    # only Constant(1) there), whose rows' inner tails are all T(v_min - 1);
    # None for a growing lower side.  The upper side always grows.
    cut: Optional[int]
    saturated: tuple[int, ...]      # the row where each growing side reaches 2^62
    start: int                      # _delim_required_start


@lru_cache(maxsize=4096)
def _delim_plan(atom: DelimAtom) -> _DelimPlan:
    """The atom's _DelimPlan, taken once per atom instead of once per point."""
    lower, upper = atom.lower, atom.upper
    cut = atom.v_min - 1 if isinstance(lower, Constant) else None
    growing = [upper.floats] if cut is not None else [lower.floats, upper.floats]
    return _DelimPlan(cut, tuple(_crossover_u(b, float(_HUGE)) for b in growing),
                      _delim_required_start(atom, growing))


def _eval_delim_atom(atom: DelimAtom, s: float, eps_abs: float, rows_budget: int,
                     term_budget: int) -> tuple[float, float, int]:
    """(value, error bound, rows used) of the atom's double sum, with
    rows_budget rows left of the point's term_budget."""
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn
    outer, inner = Prog(am, am * atom.u_min + bm), Prog(an, an * atom.v_min + bn)

    def whole_mass() -> tuple[float, float, int]:
        """(0, bound, terms) charging every row and column the cuts allow,
        summed on each axis"""
        (vo, eo, to), (vi, ei, ti) = _axis_sums([outer, inner], s)
        return 0.0, (vo + eo) * (vi + ei) * (1.0 + 1e-15), to + ti

    # the row plan, the inner tail tables (v <= _TABLE), the row kernel's
    # cuts (capped at 2^62) and the direct rows' weights are floats: an atom
    # that takes them past their range is charged its whole mass
    if _far(inner, _TABLE) or atom.v_min >= _HUGE or _far(outer):
        return whole_mass()
    plan = _delim_plan(atom)
    lower, upper = atom.lower.floats, atom.upper.floats
    M = plan.start
    if M > term_budget:
        # the remainder forms hold only past M, which the point's whole budget
        # cannot reach
        return whole_mass()
    while True:
        v_lo, e_lo = _delim_rem_terms(lower, plan.cut, +1.0, atom, s, M)
        v_up, e_up = _delim_rem_terms(upper, None, -1.0, atom, s, M)
        rem_val, rem_err = v_lo + v_up, e_lo + e_up
        if rem_err <= eps_abs * 0.5 or M >= rows_budget:
            break
        M = min(M * 2, max(rows_budget, M + 1))
    if _far(outer, M):
        return whole_mass()

    row_sums, jitter_direct, total_rows = _direct_rows(atom, s, M)
    value = math.fsum(row_sums) + rem_val
    err = rem_err + jitter_direct + 1e-15 * abs(value)
    return value, err, total_rows


def _eval_gen_atom(atom: GenAtom, s: float, eps_abs: float,
                   terms_budget: int) -> tuple[float, float, int]:
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
    return value, bound(n), n * n


def _eval_atom(a, s: float, eps_abs: float, budget: int, term_budget: int):
    """(value, error bound, terms) of an atom other than a product."""
    if isinstance(a, FinAtom):
        # a point past the float range gives a term below it, 0.0
        vals = [(float(m) * float(n)) ** -s if max(m, n) < _FLOAT_LIMIT else 0.0
                for m, n in a.pairs]
        return math.fsum(vals), 1e-15 * len(vals), len(vals)
    if isinstance(a, DelimAtom):
        return _eval_delim_atom(a, s, eps_abs, budget, term_budget)
    if isinstance(a, GenAtom):
        return _eval_gen_atom(a, s, eps_abs, budget)
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def partial_double_sum(e: GaussSetExpr, s: float, N: int) -> float:
    """sum over (m,n) in e with m,n <= N of (mn)^(-s).

    Rows ascending, columns ascending.  The box is built in blocks of about
    ``_BOX_CELLS`` cells in one float buffer: a row's terms are n^(-s) times
    its membership, times m^(-s).  Each row with a member is reduced pairwise
    by one ``np.sum`` over its full length N; a row with none would sum to
    exactly 0.0 and is skipped.  The row results are combined with an exact
    compensated sum, so the value is the same bits at any block size or
    worker count.
    """
    if not s > 1.0:
        raise ValueError(f"partial_double_sum requires s > 1, got {s}")
    if N < 1:
        raise ValueError(f"partial_double_sum requires N >= 1, got {N}")
    npow = np.arange(1.0, N + 1.0) ** -s
    block = min(max(1, _BOX_CELLS // N), N)
    buf = np.empty((block, N))
    row_sums: list[float] = []
    for lo in range(1, N + 1, block):
        mask = grid_mask(e, lo, min(lo + block - 1, N), N)
        live = np.flatnonzero(mask.any(axis=1))
        if live.size == 0:
            continue
        if live.size < len(mask):
            mask = mask[live]
        rows = buf[:live.size]
        np.multiply(npow, mask, out=rows)
        rows *= ((live + float(lo)) ** -s)[:, None]
        row_sums.extend(np.sum(rows, axis=1).tolist())
    return float(math.fsum(row_sums))


def _method_label(atoms) -> str:
    if any(isinstance(a, GenAtom) for a in atoms):
        return "direct"
    if any(isinstance(a, DelimAtom) for a in atoms):
        return "rowwise"
    return "product-closed-form"


# An absolute floor under every tail bound.  The relative charges above cover
# rounding down to 2^-1022; below it a float operation errs by up to 2^-1075
# absolute (a term under 2^-1075 rounds to 0.0), which no relative charge
# covers.  2^-1054 covers 2^21 such roundings, more than a point makes: at
# most ATOM_CAP atoms of two axes of at most 64 head terms and a few dozen
# other operations each, and a delimited atom whose rows are subnormal lies so
# far out that its remainder meets the target at its first cutoff (an atom
# whose rows would pass the float range takes none).  The floor is below half
# an ulp of 2^-1000, so every bound at or above 2^-1000 keeps its bits.
_TAIL_FLOOR = 2.0 ** -1054


def density_at(
    e: GaussSetExpr,
    s: float,
    eps: float,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SeriesEval:
    """ratio(s) and a true bound on its error: at most eps where term_budget
    terms reach it, else the bound that the budget reaches."""
    if not s > 1.0:
        raise ValueError(f"density_at requires s > 1, got {s}")
    if not eps > 0.0:
        raise ValueError(f"density_at requires eps > 0, got {eps}")

    z = zeta(s)
    z2 = z * z
    atoms = compile_set(e)
    if not atoms:
        return SeriesEval(s, 0.0, 0.0, 0, "product-closed-form")
    # the axis sums of the product atoms, two per atom in map order
    sums = iter(_axis_sums([x for a in atoms if isinstance(a, ProdAtom) for x in (a.h, a.v)], s))
    # each distinct atom is evaluated once and weighs |coef| in the error
    eps_abs = eps * z2 / sum(abs(c) for c in atoms.values())
    values: list[float] = []
    errs: list[float] = []
    terms = 0
    for atom, coef in atoms.items():
        if isinstance(atom, ProdAtom):
            (vh, eh, th), (vv, ev, tv) = next(sums), next(sums)
            v, err, t = vh * vv, vh * ev + vv * eh + eh * ev, th + tv
        else:
            v, err, t = _eval_atom(atom, s, eps_abs, max(term_budget - terms, 0), term_budget)
        values.append(coef * v)
        errs.append(abs(coef) * err)
        terms += t
    value = max(math.fsum(values) / z2, 0.0)
    tail = math.fsum(errs) / z2 + 1e-14 * value + _TAIL_FLOOR
    return SeriesEval(s, value, tail, terms, _method_label(atoms))
