"""Series engine: zeta, range sums, truncated double sums, tail bounds."""

import dataclasses
import math
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gaussdens import (
    Constant,
    Delimited,
    Dilate,
    Exponential,
    FullQuadrant,
    Intersection,
    Lattice,
    Power,
    Translate,
    Union,
    UpperQuadrant,
    contains,
    density_at,
    partial_double_sum,
    zeta,
)
from gaussdens.corpus import CORPUS, by_tag
from gaussdens.series import _EM_MIN, _rising

# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

# frozen oracle values: brute partial sum of 10^7 terms plus the integral
# tail correction (K+1)^(1-s)/(s-1) + (K+1)^(-s)/2, recomputed offline
_ZETA_ORACLE = {
    1.5: 2.6123753486854877,
    2.0: 1.6449340668482269,
    4.0: 1.0823232337111381,
}


def _zeta_brute(s: float, K: int = 10 ** 7) -> float:
    total = 0.0
    for lo in range(1, K + 1, 10 ** 6):
        hi = min(lo + 10 ** 6 - 1, K)
        n = np.arange(float(lo), float(hi) + 1.0)
        total += float(np.sum(n ** -s))
    a = float(K + 1)
    return total + a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s


@pytest.mark.parametrize("s", [1.5, 2.0, 4.0])
def test_zeta_against_frozen_oracle(s):
    assert zeta(s) == pytest.approx(_ZETA_ORACLE[s], abs=1e-9)


def test_zeta_against_live_oracle():
    for s in (1.25, 3.0):
        assert zeta(s) == pytest.approx(_zeta_brute(s), abs=1e-9)


def test_zeta_closed_forms():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-12)


def test_zeta_domain_error():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def test_zeta_near_one_blowup():
    # zeta(1+d) = 1/d + gamma + O(d)
    d = 1e-4
    assert zeta(1.0 + d) == pytest.approx(1.0 / d + 0.5772156649, abs=1e-3)


# ---------------------------------------------------------------------------
# range_sum
# ---------------------------------------------------------------------------

# A one-dimensional reference that the engine itself does not use.
_DIRECT_SPAN = 10_000   # range_sum switches to EM differences past this span


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


def test_range_sum_small():
    assert range_sum(1, 3, 2.0) == pytest.approx(49.0 / 36.0, rel=1e-15)
    assert range_sum(2, 2, 1.7) == pytest.approx(2.0 ** -1.7, rel=1e-15)


def test_range_sum_against_chunked_direct():
    # long span: EM difference path vs the chunked direct summation oracle
    a, b, s = 10 ** 3, 10 ** 8, 1.25
    total = 0.0
    for lo in range(a, b + 1, 10 ** 7):
        hi = min(lo + 10 ** 7 - 1, b)
        n = np.arange(float(lo), float(hi) + 1.0)
        total += float(np.sum(n ** -s))
    got = range_sum(a, b, s)
    assert got == pytest.approx(total, rel=1e-9)


def test_range_sum_cancellation_regime():
    # b - a just above the direct span, a large: difference of two nearby tails
    a = 10 ** 7
    b = a + 20001
    direct = float(np.sum(np.arange(float(a), float(b) + 1.0) ** -1.5))
    assert range_sum(a, b, 1.5) == pytest.approx(direct, rel=1e-12)


def test_range_sum_validation():
    with pytest.raises(ValueError):
        range_sum(3, 2, 2.0)
    with pytest.raises(ValueError):
        range_sum(1, 10, 1.0)


# ---------------------------------------------------------------------------
# partial_double_sum
# ---------------------------------------------------------------------------


def test_partial_double_sum_examples():
    assert partial_double_sum(FullQuadrant(), 2.0, 1) == 1.0
    assert partial_double_sum(FullQuadrant(), 2.0, 2) == pytest.approx(1.5625, rel=1e-15)
    assert partial_double_sum(Lattice(2, 2), 2.0, 4) == pytest.approx(25.0 / 256.0, rel=1e-15)


def test_partial_double_sum_monotone_in_n():
    for entry in by_tag("oracle")[:8]:
        prev = 0.0
        for n in (10, 25, 50, 100):
            cur = partial_double_sum(entry.expr, 1.5, n)
            assert cur >= prev - 1e-15
            prev = cur


def test_partial_double_sum_set_monotonicity():
    pairs = [
        (Lattice(4, 4), Lattice(2, 2)),
        (Lattice(2, 2), FullQuadrant()),
        (Intersection(Lattice(2, 3), Lattice(3, 2)), Lattice(2, 3)),
        (UpperQuadrant(5, 5), FullQuadrant()),
    ]
    for small, big in pairs:
        # containment on the grid implies ordering of the partial sums
        assert all(
            not contains(small, (m, n)) or contains(big, (m, n))
            for m in range(1, 65) for n in range(1, 65)
        )
        for s in (1.25, 2.0):
            assert partial_double_sum(small, s, 64) <= partial_double_sum(big, s, 64) + 1e-15


def test_partial_double_sum_prelimit_additivity():
    a = Lattice(2, 2)
    b = Translate(Lattice(2, 2), (1, 1))
    for s in (1.25, 1.5, 2.0):
        left = partial_double_sum(Union(a, b), s, 200)
        right = partial_double_sum(a, s, 200) + partial_double_sum(b, s, 200)
        assert left == pytest.approx(right, rel=1e-13)


def test_unitary_translation_bracketing():
    # 0 <= S_N(e) - S_{N+1}(e + (1,0)) <= (sum_{n<=N} n^-s) * (sum_{sup_h} s m^-(s+1))
    cases = {
        "full_quadrant": lambda s: s * zeta(s + 1.0),
        "lattice_2_3": lambda s: s * 2.0 ** -(s + 1.0) * zeta(s + 1.0),  # sup_h = M_2
        "delim_const_square": lambda s: s * zeta(s + 1.0),               # every row occupied
        "upper_5_5": lambda s: s * (zeta(s + 1.0) - range_sum(1, 4, s + 1.0)),
    }
    from gaussdens.corpus import entry
    for name, weight in cases.items():
        e = entry(name).expr
        for s in (1.25, 2.0):
            for n in (50, 200):
                diff = partial_double_sum(e, s, n) - partial_double_sum(
                    Translate(e, (1, 0)), s, n + 1)
                assert diff >= -1e-15, (name, s, n)
                assert diff <= range_sum(1, n, s) * weight(s) + 1e-12, (name, s, n)


# ---------------------------------------------------------------------------
# density_at
# ---------------------------------------------------------------------------


def test_density_at_lattice_closed_form():
    ev = density_at(Lattice(2, 2), 1.5, 1e-6)
    assert ev.method == "product-closed-form"
    assert ev.value == pytest.approx(4.0 ** -1.5, rel=1e-12)
    assert ev.tail_bound <= 1e-12 * max(ev.value, 1.0)


def test_density_at_full_quadrant_is_one():
    for s in (1.25, 1.5, 2.0, 3.0):
        ev = density_at(FullQuadrant(), s, 1e-6)
        assert ev.value == pytest.approx(1.0, abs=1e-6)


def test_density_at_eval_invariants():
    for entry in by_tag("oracle"):
        for s in (1.5, 2.0):
            ev = density_at(entry.expr, s, 1e-6)
            assert ev.value >= 0.0
            assert math.isfinite(ev.tail_bound) and ev.tail_bound >= 0.0


@pytest.mark.parametrize("entry", CORPUS, ids=lambda c: c.name)
def test_loose_and_tight_evaluations_agree_within_their_bounds(entry):
    # both bounds are true bounds, so the two values differ by at most their
    # sum; no slack is added.  A band that cannot meet 1e-9 within the budget
    # reports the bound it reached, which the check holds it to as well.
    for s in (2.0, 1.5, 1.25):
        loose = density_at(entry.expr, s, 1e-3)
        tight = density_at(entry.expr, s, 1e-9, term_budget=10 ** 6)
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound, s


def test_density_at_delimited_vs_brute_box():
    # engine value within engine tail + box tail of the brute box ratio
    e = Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    s = 1.25
    n = 10 ** 4
    ev = density_at(e, s, 1e-4)
    box = partial_double_sum(e, s, n) / zeta(s) ** 2
    box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
    assert abs(ev.value - box) <= ev.tail_bound + box_tail


def test_density_at_sharp_vs_brute_box_far_from_one():
    # at s=3 the box tail is tiny, so this pins the rowwise machinery tightly
    e = Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    s = 3.0
    n = 4000
    ev = density_at(e, s, 1e-9)
    box = partial_double_sum(e, s, n) / zeta(s) ** 2
    box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
    assert abs(ev.value - box) <= ev.tail_bound + box_tail
    assert ev.tail_bound <= 1e-9


def test_band_with_a_large_integer_exponent_vs_brute_box():
    # row 1 of c*m^a is c for every a: saturating it to 2^62 put the whole
    # row, zeta(2) - 1, into the box, above the full series value
    e = Delimited(Constant(1), Power(1, 100))
    s = 2.0
    n = 3000
    ev = density_at(e, s, 1e-9)
    box = partial_double_sum(e, s, n) / zeta(s) ** 2
    box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
    assert ev.value - ev.tail_bound - box_tail <= box <= ev.value + ev.tail_bound


def test_band_with_an_exponent_below_the_float_range_vs_brute_box():
    # alpha = 10^-400 is 0.0 as a float: the lower side is 1000 on every row
    # the box reaches, and its crossover of any target below 1000 is row 1
    e = Delimited(Power(1000, Fraction(1, 10 ** 400)), Power(1000, 2))
    s = 1.5
    n = 3000
    ev = density_at(e, s, 1e-6)
    box = partial_double_sum(e, s, n) / zeta(s) ** 2
    box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
    assert box > 0.0
    assert ev.value - ev.tail_bound - box_tail <= box <= ev.value + ev.tail_bound


def test_density_at_fast_equals_slow():
    # closed forms agree with generic truncation within the generic tail bound
    for entry in [e for e in by_tag("oracle") if e.density is not None][:10]:
        for s in (1.5, 2.0, 3.0):
            fast = density_at(entry.expr, s, 1e-9)
            n = 2000
            box = partial_double_sum(entry.expr, s, n) / zeta(s) ** 2
            box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
            assert abs(fast.value - box) <= fast.tail_bound + box_tail, (entry.name, s)


def test_density_at_methods():
    assert density_at(Lattice(2, 3), 1.5, 1e-6).method == "product-closed-form"
    assert density_at(Delimited(Constant(1), Power(1, 2)), 1.5, 1e-6).method == "rowwise"
    gen = Intersection(Delimited(Constant(1), Power(1, 2)), Lattice(2, 2))
    assert density_at(gen, 2.0, 1e-2).method == "direct"
    # the box misses 1e-6 by more than its operands' bracket is wide
    assert density_at(gen, 1.25, 1e-6).method == "bracket"


def test_density_at_atom_cap():
    # the cycling union's 1023 raw atoms merge to 11 products
    cycle = ((2, 3), (3, 2), (2, 2), (3, 3))
    k10 = reduce(Union, [Translate(Lattice(*cycle[i % 4]), (6 * i, 6 * i)) for i in range(10)])
    ev = density_at(k10, 1.0625, 1e-6)
    assert ev.method == "product-closed-form"
    assert ev.tail_bound <= 1e-6
    # ten distinct prime lattices: 1023 distinct atoms, within the cap
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

    def prime_union(ps):
        return reduce(Union, [Lattice(p, q) for p, q in zip(ps, ps[1:] + ps[:1])])

    ev = density_at(prime_union(primes[:10]), 1.0625, 1e-6)
    assert ev.method == "product-closed-form"
    assert ev.tail_bound <= 1e-6
    # eleven: 2047 distinct atoms, above the cap: one generic atom
    assert density_at(prime_union(primes), 2.0, 1e-2).method == "direct"


def test_density_at_budget_exceeded():
    gen = Intersection(Delimited(Constant(1), Power(1, 2)), Lattice(2, 2))
    ev = density_at(gen, 1.0078125, 1e-6)
    assert ev.tail_bound > 1e-6  # honest: the request was not met


def test_density_at_validation():
    with pytest.raises(ValueError):
        density_at(FullQuadrant(), 1.0, 1e-6)
    with pytest.raises(ValueError):
        density_at(FullQuadrant(), 2.0, 0.0)


def test_density_at_dilation_identity():
    # the dilation identity holds at every s, not only in the limit
    e = Delimited(Constant(1), Power(1, 2))
    for s in (1.25, 2.0):
        base = density_at(e, s, 1e-8)
        scaled = density_at(Dilate((2, 5), e), s, 1e-8)
        assert scaled.value == pytest.approx(base.value / 10.0 ** s, rel=1e-7)


# frozen references for the near-1 rowwise machinery, computed offline with
# mpmath (dps=30) Hurwitz-zeta inner sums over 8000/3000 direct rows plus a
# smooth analytic remainder; accurate to ~1e-7 (the remainder ignores the
# sub-leading cut-point jitter, which the engine's tail bound must cover)
_ROWWISE_REFS = [
    # (lower, upper, s, reference)
    (Power(1, Fraction(1, 2)), Power(1, 2), 1.0625, 0.3141794856183094),
    (Power(1, Fraction(1, 2)), Power(1, 2), 1.0078125, 0.3304095600243781),
    (Constant(1), Exponential(1, 2), 1.0078125, 0.9602812698739742),
    (Constant(1), Exponential(1, 2), 1.5, 0.7278870228092765),
]


@pytest.mark.parametrize("lower,upper,s,ref", _ROWWISE_REFS)
def test_rowwise_against_frozen_high_precision_refs(lower, upper, s, ref):
    ev = density_at(Delimited(lower, upper), s, 1e-6)
    assert abs(ev.value - ref) <= ev.tail_bound + 1e-6


def test_degree_zero_power_behaves_like_constant():
    # pow(c, 0) must route through the constant machinery, not the expansions
    band = Delimited(Power(2, 0), Power(2, 1))
    for s in (1.25, 1.0078125):
        ev = density_at(band, s, 1e-6)
        ref = density_at(Delimited(Constant(2), Power(2, 1)), s, 1e-6)
        assert ev.value == pytest.approx(ref.value, rel=1e-9)
        assert ev.tail_bound <= 1e-6


def test_constant_band_and_empty_cut():
    band = Delimited(Constant(2), Constant(5))
    ev = density_at(band, 1.5, 1e-9)
    want = range_sum(2, 5, 1.5) * zeta(1.5) / zeta(1.5) ** 2
    assert ev.value == pytest.approx(want, rel=1e-12)
    # an upper cut past the band empties it entirely
    cut = Intersection(band, Intersection(FullQuadrant(), Lattice(1, 1)))
    assert density_at(cut, 1.5, 1e-9).value == pytest.approx(ev.value, rel=1e-12)
    from gaussdens import UpperQuadrant as UQ
    empty = Intersection(band, UQ(1, 10))
    assert density_at(empty, 1.5, 1e-9).value == 0.0


def test_partial_double_sum_multichunk_translate():
    # N = 2500 splits into row chunks; translation must stitch across them
    e = Translate(Lattice(2, 2), (1, 1))
    brute = brute_force_box(e, 1.5, 2500)
    assert partial_double_sum(e, 1.5, 2500) == pytest.approx(brute, rel=1e-13)


def brute_force_box(e, s, n):
    from gaussdens import predicate
    member = predicate(e)
    total = 0.0
    for m in range(1, n + 1):
        row = 0.0
        for k in range(1, n + 1):
            if member(m, k):
                row += float(m * k) ** -s
        total += row
    return total


def test_exponential_rows_match_direct_summation():
    # independent check of the exponential inner tails at moderate s
    e = Delimited(Constant(1), Exponential(1, 2))
    s = 2.0
    n = 4000
    ev = density_at(e, s, 1e-8)
    box = partial_double_sum(e, s, n) / zeta(s) ** 2
    box_tail = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / zeta(s) ** 2
    assert abs(ev.value - box) <= ev.tail_bound + box_tail


# ---------------------------------------------------------------------------
# blocked delimited-row kernel
# ---------------------------------------------------------------------------

from gaussdens import series  # noqa: E402
from gaussdens.atoms import compile_set  # noqa: E402
from gaussdens.dsl import parse_expression  # noqa: E402
from gaussdens.sets import _HUGE, _LOG_HUGE, grid_mask  # noqa: E402


def _reference_bound_floats(b, u):
    # every row's bound value evaluated in full, with no row skipped
    if isinstance(b, Constant):
        k = float(b.k)
        return np.full(u.shape, k), np.full(u.shape, math.log(k))
    if isinstance(b, Power):
        logs = math.log(float(b.c)) + float(b.alpha) * np.log(u)
        vals = np.exp(np.minimum(logs, _LOG_HUGE))
        if b.floats.exact:
            with np.errstate(over="ignore"):    # (the rows past 2^62 take vals)
                exact = float(b.c) * u ** float(b.alpha)
            vals = np.where(exact < _HUGE, exact, vals)
    else:
        logs = math.log(float(b.c)) + u * math.log(float(b.a))
        vals = np.exp(np.minimum(logs, _LOG_HUGE))
    r = np.round(vals)
    return np.where(np.abs(vals - r) <= 1e-9, r, vals), logs


def _reference_tail_at_cut(x, logx, ceil_side, s, an, bn):
    k = np.maximum((np.ceil(x) - 1.0) if ceil_side else np.floor(x), 0.0)
    out = np.empty(x.shape)
    small = k < series._TABLE
    out[small] = series._tail_table(s, an, bn)[k[small].astype(np.int64)]
    big = ~small
    out[big] = _four_term_tail_em(x[big], logx[big], s, an, bn)
    return out


def _four_term_tail_em(x, logx, s, an, bn):
    """The midpoint EM form with all four terms evaluated on every row."""
    mid_log = np.where(x < 1e15, np.log(x + 0.5 + bn / an), logx)
    return an ** (-s) * (
        np.exp((1.0 - s) * mid_log) / (s - 1.0)
        + 0.5 * np.exp(-s * mid_log)
        + (s / 12.0) * np.exp(-(s + 1.0) * mid_log)
        - (series._rising(s, 3) / 720.0) * np.exp(-(s + 3.0) * mid_log)
    )


def _reference_direct_rows(atom, s, M, chunk):
    """The direct rows evaluated one whole chunk at a time, every row in full."""
    am, bm, an, bn = atom.am, atom.bm, atom.an, atom.bn
    row_sums, jitter, rows = [], 0.0, 0
    for lo in range(atom.u_min, M + 1, chunk):
        u = np.arange(float(lo), float(min(lo + chunk - 1, M)) + 1.0)
        w = (am * u + bm) ** -s
        fraw, flog = _reference_bound_floats(atom.lower, u)
        gvals, glog = _reference_bound_floats(atom.upper, u)
        fvals = np.maximum(fraw, float(atom.v_min))
        flog = np.maximum(flog, math.log(float(atom.v_min)))
        t_lo = _reference_tail_at_cut(fvals, flog, True, s, an, bn)
        t_hi = _reference_tail_at_cut(gvals, glog, False, s, an, bn)
        inner = np.where(np.ceil(fvals) <= np.floor(gvals), t_lo - t_hi, 0.0)
        row_sums.append(float(np.sum(w * inner)))
        big = np.zeros(u.shape)
        for vals, logs in ((fvals, flog), (gvals, glog)):
            sel = vals >= float(series._TABLE)
            big[sel] += 1.2 * np.exp(-s * (math.log(an) + logs[sel]))
        jitter += float(np.sum(w * big))
        rows += u.shape[0]
    return row_sums, jitter, rows


_KERNEL_BANDS = [
    "delim(const(1),pow(1,2))",
    "delim(pow(1,1),pow(1,3))",            # integer powers: exact products
    "delim(pow(1,1/2),pow(1,2))",          # fractional lower side
    "delim(pow(2,1/2),pow(3,2))",
    "delim(pow(100,1/2),pow(100,5))",      # lower side leaves the table, upper saturates
    "delim(const(1),exp(1,2))",            # saturated exponential, all rows underflow
    "delim(exp(1,2),exp(1,3))",
    "delim(const(1),exp(2,11/10))",        # underflow starts inside the rows
    "delim(const(2),exp(2,1001/1000))",    # table, 1e15 and saturation inside the rows
    "delim(const(12000),exp(12000,2))",    # a constant side past the table
    "delim(pow(1,1/3),pow(1,3))",          # one lower cut over most of its blocks
    "delim(pow(1,1/4),pow(1,4))",
    "delim(const(1),pow(3,1/2))",          # a fractional upper side
    "delim(pow(7/3,2/5),pow(3,2))",        # a rational coefficient
    "delim(pow(1,1/2),pow(1,1000))",       # an exact power past the float range
]
_KERNEL_VARIANTS = ["{}", "translate({},3,5)", "dilate(2,3,{})", "inter({},upper(6,4))"]


def _delim_atom(text):
    (atom,) = compile_set(parse_expression(text))
    return atom


@pytest.mark.parametrize("band", _KERNEL_BANDS)
@pytest.mark.parametrize("variant", _KERNEL_VARIANTS)
def test_direct_rows_equal_the_unblocked_reference(band, variant, monkeypatch):
    # chunks of 7001 rows and blocks of 1000: 12 chunks, mostly 8 blocks each,
    # with the bound transitions (table, 1e15, 2^62, underflow) inside blocks
    monkeypatch.setattr(series, "_CHUNK_ROWS", 7001)
    monkeypatch.setattr(series, "_BLOCK_ROWS", 1000)
    atom = _delim_atom(variant.format(band))
    M = atom.u_min + 80_000
    for s in (1.5, 1.0078125):
        want = _reference_direct_rows(atom, s, M, 7001)
        assert series._direct_rows(atom, s, M) == want


def test_kernel_masks_match_the_reference_on_mixed_rows():
    # a block with rows on both sides of the table (and of 1e15) splits where
    # they cross it; the kernel's cut points ascend with the rows
    x = np.array([2.0, 5.5, 7.0, 12000.25, 20000.0, 3e15])
    logx = np.log(x)
    for s, an, bn in ((1.5, 1, 0), (1.0078125, 3, 2)):
        for lower in (True, False):
            key = np.ceil(x) if lower else np.floor(x)
            got = series._tail_at_cut(x, logx, key, lower, s, an, bn)
            assert got.tolist() == _reference_tail_at_cut(x, logx, lower, s, an, bn).tolist()
        want = np.zeros(x.shape)
        sel = x >= float(series._TABLE)
        want[sel] = 1.2 * np.exp(-s * (math.log(an) + logx[sel]))
        assert series._jitter(x, logx, s, an).tolist() == want.tolist()


_small = st.fractions(1, 8, max_denominator=6)
_cut_bounds = st.one_of(
    st.builds(Constant, st.fractions(1, 50, max_denominator=6)),
    st.builds(Power, _small, st.fractions(0, 3, max_denominator=12)),
    st.builds(Exponential, _small, st.fractions(Fraction(11, 10), 3, max_denominator=10)),
)


@settings(max_examples=200, deadline=None)
@given(_cut_bounds)
def test_membership_and_the_kernel_cut_every_tabulated_row_the_same_way(b):
    # every row up to 10^5 whose value is within 1e-6 of an integer (at most
    # about 300 of them), and every 97th row, where the value is below the table
    u = np.arange(1.0, 100_001.0)
    lo_keys, vals, _ = series._cuts(b.floats, u, np.log(u), True, 1)
    hi_keys = series._cuts(b.floats, u, np.log(u), False, 1)[0]
    vals, lo_keys, hi_keys = (np.broadcast_to(a, u.shape) for a in (vals, lo_keys, hi_keys))
    tabulated = vals < series._TABLE
    near = np.flatnonzero(tabulated & (np.abs(vals - np.round(vals)) <= 1e-6))
    rows = np.union1d(near[::max(1, near.size // 300)], np.flatnonzero(tabulated)[::97])
    for i in rows.tolist():
        assert (b.ceil_at(i + 1), b.floor_at(i + 1)) == (lo_keys[i], hi_keys[i]), (b, i + 1)


_EM_SIDES = [Power(100, Fraction(1, 4)), Power(1, Fraction(1, 3)), Power(2, Fraction(1, 2)),
             Power(Fraction(7, 3), 1), Power(1, 2), Power(3, 3), Power(1, 4),
             Exponential(1, Fraction(11, 10)), Exponential(5, 2), Exponential(1, 3)]


def _row_of(b, x):
    """The real row where side b reaches x."""
    if b.kind is Power:
        return (x / b.c) ** (1.0 / b.alpha)
    return math.log(x / b.c) / b.alpha


@settings(max_examples=300, deadline=None)
@given(side=st.sampled_from(_EM_SIDES), term=st.integers(0, 2), e=st.floats(48.0, 72.0),
       s=st.floats(1.0 + 2.0 ** -14, 2.0), an=st.integers(1, 3), bn=st.integers(0, 5),
       before=st.integers(0, 3000), after=st.integers(0, 3000))
def test_tail_em_is_bit_equal_to_the_four_term_form(side, term, e, s, an, bn, before, after):
    # the block sits where one correction, coef * x^-p relative to the leading
    # term x^(1-s)/(s-1), crosses 2^-e: on either side of the 2^-60 line below
    # which the kernel skips a correction, or across it
    coef, p = ((0.5 * (s - 1.0), 1), (s / 12.0 * (s - 1.0), 2),
               (series._rising(s, 3) / 720.0 * (s - 1.0), 4))[term]
    b = side.floats
    first = _row_of(b, float(series._TABLE)) + 1.0      # the first cut past the table
    centre = min(max(_row_of(b, (coef * 2.0 ** e) ** (1.0 / p)), first), 2.0 ** 50)
    u0 = max(math.floor(centre) - before, math.ceil(first))
    u = np.arange(float(u0), float(u0 + before + after) + 1.0)
    x, logx = series._bound_floats(b, u, np.log(u))
    if x.shape == u.shape:
        n = int(np.searchsorted(x, float(series._TABLE)))
        x, logx = x[n:], logx[n:]
    assume(logx.size > 0)
    t = series._tail_em(x, logx, s, an, bn)
    assert np.array_equal(np.broadcast_to(t, logx.shape), _four_term_tail_em(x, logx, s, an, bn))


def _reference_row_block(atom, s, u):
    """(w, inner, jitter) of every row in full, as _reference_direct_rows."""
    an, bn = atom.an, atom.bn
    w = (atom.am * u + atom.bm) ** -s
    fraw, flog = _reference_bound_floats(atom.lower, u)
    gvals, glog = _reference_bound_floats(atom.upper, u)
    fvals = np.maximum(fraw, float(atom.v_min))
    flog = np.maximum(flog, math.log(float(atom.v_min)))
    t_lo = _reference_tail_at_cut(fvals, flog, True, s, an, bn)
    t_hi = _reference_tail_at_cut(gvals, glog, False, s, an, bn)
    inner = np.where(np.ceil(fvals) <= np.floor(gvals), t_lo - t_hi, 0.0)
    big = np.zeros(u.shape)
    for vals, logs in ((fvals, flog), (gvals, glog)):
        sel = vals >= float(series._TABLE)
        big[sel] += 1.2 * np.exp(-s * (math.log(an) + logs[sel]))
    return w, inner, big


def _block_matches_reference(atom, s, u):
    w, inner, jitter = series._row_block(atom, s, u)
    want = _reference_row_block(atom, s, u)
    got = (w, inner, np.zeros(u.shape) if jitter is None else jitter)
    return all(np.array_equal(np.broadcast_to(g, u.shape), x) for g, x in zip(got, want))


_SUB_LINEAR_VARIANTS = ["{}", "translate({},3,5)", "inter({},upper(6,4))"]


@settings(max_examples=200, deadline=None)
@example(c=Fraction(1), alpha=Fraction(1, 12), as_lower=True, variant="{}",
         start=10 ** 9 - 4096, length=4096, s=1.03125)          # inside one cut
@example(c=Fraction(1), alpha=Fraction(1, 2), as_lower=False, variant="{}",
         start=10 ** 6 - 100, length=4096, s=1.5)               # across cuts
@given(c=st.fractions(1, 8, max_denominator=6),
       alpha=st.fractions(0, 1, max_denominator=12).filter(lambda a: 0 < a < 1),
       as_lower=st.booleans(), variant=st.sampled_from(_SUB_LINEAR_VARIANTS),
       start=st.integers(1, 10 ** 9), length=st.integers(1, 4096),
       s=st.sampled_from([1.5, 1.03125]))
def test_row_block_matches_the_reference_on_sub_linear_sides(c, alpha, as_lower, variant,
                                                             start, length, s):
    # a side c*u^alpha, 0 < alpha < 1: blocks inside one of its cuts take the
    # cut once, blocks across cuts cut it row by row; both match the reference
    side = f"pow({c},{alpha})"
    band = f"delim({side},pow(8,3))" if as_lower else f"delim(const(1),{side})"
    atom = _delim_atom(variant.format(band))
    u0 = max(start, atom.u_min)
    assert _block_matches_reference(atom, s, np.arange(float(u0), float(u0 + length)))


@pytest.mark.parametrize("variant", ["{}", "translate({},3,5)", "inter({},upper(6,650))"])
def test_row_block_where_snapping_moves_a_cut_boundary(variant):
    # (630^4 + j)^(1/4) - 630 is about j * 1.0e-9: the lower value snaps back
    # to 630 one row past 630^4, so cut 631 starts a row later than the
    # unsnapped value says.  Blocks across that row cut the side row by row in
    # _side_rows and blocks before it keep one cut (every block does under the
    # cut at 650); each row's key is the snapped one
    atom = _delim_atom(variant.format("delim(pow(1,1/4),pow(1,4))"))
    base = 630.0 ** 4
    row = np.array([base + 1.0])
    assert series._cuts(atom.lower.floats, row, np.log(row), True, 1)[0][0] == 630.0
    for lo, hi in ((-500, 500), (-3, 2), (1, 40), (-1000, 0)):
        u = np.arange(base + lo, base + hi + 1.0)
        for s in (1.5, 1.03125):
            assert _block_matches_reference(atom, s, u)


@pytest.mark.parametrize("band", ["delim(pow(1,1/2),pow(1,3))", "delim(const(1),pow(1,1/2))",
                                  "dilate(2,3,delim(pow(1,1/2),pow(1,2)))"])
def test_row_block_where_the_value_lands_on_the_table_end(band, monkeypatch):
    # sqrt(10^8) is exactly _TABLE: that row's cut leaves the table and takes
    # a jitter term, the row before it does not
    atom = _delim_atom(band)
    edge = float(series._TABLE) ** 2
    for lo, hi in ((-1000, -1), (-1000, 0), (0, 999), (-1, 1)):
        u = np.arange(edge + lo, edge + hi + 1.0)
        for s in (1.5, 1.03125):
            assert _block_matches_reference(atom, s, u)
    # the same rows in blocks of 1000, one of them ending on the edge row
    monkeypatch.setattr(series, "_CHUNK_ROWS", 7001)
    monkeypatch.setattr(series, "_BLOCK_ROWS", 1000)
    atom = dataclasses.replace(atom, u_min=int(edge) - 5999)
    for s in (1.5, 1.03125):
        M = atom.u_min + 11_000
        assert series._direct_rows(atom, s, M) == _reference_direct_rows(atom, s, M, 7001)


def test_the_first_block_ends_where_the_sides_saturate(monkeypatch):
    # exp(1,2) passes 2^62 at row 62 and exp(1,3) at row 39: the first block
    # ends there, and every later block takes one saturated value per side
    atom = _delim_atom("inter(delim(exp(1,2),exp(1,3)),upper(5,4))")
    blocks = []
    row_block = series._row_block

    def spy(a, s, u):
        blocks.append(u)
        return row_block(a, s, u)

    monkeypatch.setattr(series, "_row_block", spy)
    s, M = 1.0078125, 40_000
    assert series._direct_rows(atom, s, M) == _reference_direct_rows(atom, s, M, series._CHUNK_ROWS)
    first, second = blocks[:2]
    assert first[0] == 5 and first[-1] + 1 == second[0] < 70
    for u in blocks[1:]:
        for side in (atom.lower, atom.upper):
            assert series._bound_floats(side.floats, u, None)[0].shape == (1,)


_KERNEL_POINTS = [
    ("delim(const(1),pow(1,2))", 1.0078125, 1e-5),
    ("delim(pow(1,1),pow(1,3))", 1.03125, 1e-5),
    ("delim(pow(1,1/2),pow(1,2))", 1.03125, 1e-5),   # 131k rows
    ("translate(delim(pow(2,1/2),pow(3,2)),2,5)", 1.03125, 1e-5),
    ("dilate(3,2,delim(const(1),exp(1,2)))", 1.0001220703125, 1e-4),
    ("inter(delim(exp(1,2),exp(1,3)),upper(4,7))", 1.0001220703125, 1e-4),
]


def _points(cases):
    return [(density_at(parse_expression(t), s, eps).value,
             density_at(parse_expression(t), s, eps).tail_bound,
             density_at(parse_expression(t), s, eps).terms_used) for t, s, eps in cases]


def test_block_size_never_changes_a_point(monkeypatch):
    default = _points(_KERNEL_POINTS)
    monkeypatch.setattr(series, "_BLOCK_ROWS", series._CHUNK_ROWS)   # one block per chunk
    assert _points(_KERNEL_POINTS) == default
    monkeypatch.setattr(series, "_BLOCK_ROWS", 1000)
    assert _points(_KERNEL_POINTS) == default


def test_block_size_never_changes_a_point_across_chunks(monkeypatch):
    # 131k direct rows in chunks of 100k: the point spans two chunks
    monkeypatch.setattr(series, "_CHUNK_ROWS", 100_000)
    cases = _KERNEL_POINTS[2:3]
    assert _points(cases)[0][2] > 100_000
    default = _points(cases)
    for block in (100_000, 1000, 999):
        monkeypatch.setattr(series, "_BLOCK_ROWS", block)
        assert _points(cases) == default


def test_em_tail_over_exponents_equals_one_exponent_at_a_time():
    # at p = 2 the exponent 1 - p is -1, where numpy's scalar x ** -1.0
    # takes its reciprocal shortcut; with a vector pow, 1/2052 and 1/2063
    # can come out one unit in the last place away from it.  Every integer
    # and half-integer p, and p next to them, is covered.
    halves = [k / 2.0 for k in range(3, 15)]
    ps = [1.0 + 2.0 ** -13, 1.0078125, 4.25] + halves + [
        math.nextafter(h, d) for h in halves for d in (0.0, math.inf)]
    for x in (64.0, 2052.0, 2063.0, 1e8 + 1.0):
        want = tuple(series._em_tail(x, p) for p in ps)
        assert series._em_tails(x, tuple(ps)) == want


def test_coefficient_beyond_the_float_range():
    # past the float range only log c is at hand; the leading terms scale as
    # c^(1-s), so the band at c = 10^400 is the band at 10^300 times 10^(100(1-s))
    def band(c):
        return parse_expression(f"delim(pow({c},1/2),pow({c},2))")
    for s in (1.5, 1.03125):
        far = density_at(band(Fraction(10 ** 401, 3)), s, 1e-5)
        near = density_at(band(Fraction(10 ** 301, 3)), s, 1e-5)
        want = near.value * 10.0 ** (100 * (1 - s))
        assert far.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 0.0 < far.tail_bound < 1e-5


def test_an_exact_power_past_the_float_range_raises_no_warning():
    # pow(1, 1000) passes 2^62 from row 2 on; its exact product is taken only
    # on rows below saturation, where it cannot overflow
    band = parse_expression("delim(pow(1,1/2),pow(1,1000))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1.5, 1.0078125):
            assert density_at(band, s, 1e-5).terms_used > 0


def test_tiny_exponent_band_charges_its_whole_mass():
    # pow(1, 10^-6) reaches 64 only past row 2^62: no row can meet the target
    band = parse_expression("delim(pow(1,1/1000000),pow(1,1000000))")
    ev = density_at(band, 1.5, 1e-6)
    assert ev.tail_bound > 1e-6  # honest: the request was not met
    assert ev.value == 0.0
    assert ev.terms_used < 1000
    # the band lies in the quadrant, whose ratio is 1: the bound covers it
    assert ev.tail_bound >= 1.0


def test_a_later_band_sums_its_start_when_earlier_atoms_spent_the_budget(monkeypatch):
    # the first band doubles to 16,388 rows of a 17,000-term budget, leaving
    # 612; the second band's start (2,048 rows) is within the point's budget,
    # so it is summed there and meets its target, as with rows to spare
    text = "union(delim(pow(1,1/2),pow(1,2)),delim(pow(1,1),pow(1,3)))"
    s, eps, budget = 1.5, 1e-5, 17_000
    seen = []
    evaluate = series._eval_delim_atom

    def spy(atom, *args):
        seen.append((atom, args, evaluate(atom, *args)))
        return seen[-1][2]

    monkeypatch.setattr(series, "_eval_delim_atom", spy)
    density_at(parse_expression(text), s, eps, term_budget=budget)
    # the two bands, then the same two as operands of their meet's bracket
    (atom, _, first), (second, (_, eps_abs, left, _), got), *operands = seen
    assert [a for a, _, _ in operands] == [atom, second]
    assert first[2] == 16_388 and first[1] <= eps_abs
    assert left == budget - 16_388 < series._delim_plan(second).start
    assert got == evaluate(second, s, eps_abs, budget, budget)
    assert got[2] == 2048 and got[1] <= eps_abs


# ---------------------------------------------------------------------------
# quantities taken once per s and once per atom
# ---------------------------------------------------------------------------

import sys  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

from gaussdens.cli import main  # noqa: E402
from gaussdens.estimator import EstimatorConfig, estimate_density, ordered_map, schedule  # noqa: E402
from test_sets import _exprs  # noqa: E402

# every memoised quantity of the series engine: these and the axis memo
_CACHES = (series.zeta, series._tail_table, series._em_tails, series._delim_plan)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()
    series._axis_memo.clear()


def test_every_series_cache_is_bounded():
    for cache in _CACHES:
        assert isinstance(cache.cache_info().maxsize, int), cache   # None: unbounded
        assert cache.cache_info().maxsize <= 4096, cache
    # the axis memo is cleared whole before it would pass its cap, and a point's
    # batch always fits
    assert 2 * atoms_module.ATOM_CAP < series._AXIS_CAP <= 16_384
    series._axis_memo.clear()
    for k in range(2 * series._AXIS_CAP // len(_PRIME_AXES)):
        s = 1.0 + 2.0 ** -(k + 1)
        assert series._axis_sums(_PRIME_AXES, s) == series._prog_sums(_PRIME_AXES, s)
        assert len(_PRIME_AXES) <= len(series._axis_memo) <= series._AXIS_CAP


def _point_rows(e, workers):
    def point(s):
        return density_at(e, s, 1e-4, term_budget=10 ** 6).to_row()

    return ordered_map(point, (2.0, 1.5, 1.25, 1.125), workers)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([entry.expr for entry in CORPUS]), _exprs))
def test_cached_points_are_the_same_bits_cold_warm_and_shared(e):
    _clear_caches()
    cold = _point_rows(e, 1)
    assert _point_rows(e, 1) == cold            # served from the caches
    _clear_caches()
    assert _point_rows(e, 2) == cold            # filled by two threads at once
    assert _point_rows(e, 2) == cold


def test_threads_filling_the_caches_get_the_same_bits():
    # more threads than cores, switching as often as they can, from cold
    texts = ("delim(pow(1,1/2),pow(1,2))", "translate(delim(pow(2,1/2),pow(3,2)),2,5)",
             "delim(const(1),exp(1,2))", "compl(translate(lattice(3,4),1,2))",
             "union(lattice(2,3),translate(lattice(3,2),1,1))")
    cases = [(parse_expression(t), s) for t in texts for s in (2.0, 1.5, 1.25, 1.125)] * 4

    def row(case):
        return density_at(case[0], case[1], 1e-4).to_row()

    _clear_caches()
    want = [row(case) for case in cases]
    _clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(row, case) for case in cases]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    for cache in _CACHES:
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
    assert len(series._axis_memo) <= series._AXIS_CAP


def test_check_is_the_same_bytes_with_cold_and_warm_caches(tmp_path):
    # the second run takes zeta, the tail tables, the axis sums, the
    # remainder tails and the atom plans from the first run's caches
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    _clear_caches()
    assert main(["check", "--format", "csv", "--out", str(cold)]) == 0
    assert main(["check", "--format", "csv", "--out", str(warm)]) == 0
    assert warm.read_bytes() == cold.read_bytes()


def test_an_estimate_takes_each_atom_plan_once(monkeypatch):
    calls = Counter()
    for name in ("_crossover_u", "_delim_required_start"):
        def counted(*args, _fn=getattr(series, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(series, name, counted)
    _clear_caches()
    band = parse_expression("delim(pow(1,1/2),pow(1,2))")
    cfg = EstimatorConfig(s_schedule=schedule(0, 6), per_point_eps=1e-4)
    assert len(estimate_density(band, cfg).points) == 7
    # two sides, each with its saturation row and its crossover of the
    # remainder forms' target, and one start
    assert calls == {"_crossover_u": 4, "_delim_required_start": 1}
    estimate_density(band, cfg)
    assert sum(calls.values()) == 5


# ---------------------------------------------------------------------------
# the batched axis sums and the compile memo
# ---------------------------------------------------------------------------

from decimal import Decimal, localcontext  # noqa: E402

import mpmath  # noqa: E402

from gaussdens import atoms as atoms_module  # noqa: E402
from gaussdens.atoms import Prog  # noqa: E402


def _dsum_1d_reference(a, s):
    """The axis sum of a progression taken alone, as the engine took it
    before it batched them: the reference of the batch."""
    d, t = a.step, a.first
    c = t / d
    j_cut = max(0, int(math.ceil(series._EM_MIN - c)))
    head = 0.0
    if j_cut > 0:
        j = np.arange(0.0, j_cut)
        head = float(math.fsum(((t + j * d) ** -s).tolist()))
    tail = d ** (-s) * float(series._em_tail(j_cut + c, s))
    err = d ** (-s) * series._em_tail_err(j_cut + c, s) + 1e-15 * (head + tail)
    return head + tail, err, j_cut + 8


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_PRIME_UNION = reduce(Union, [Lattice(p, _PRIMES[(i + 1) % 10]) for i, p in enumerate(_PRIMES)])
_PRIME_AXES = sorted({x for a in compile_set(_PRIME_UNION) for x in (a.h, a.v)},
                     key=lambda a: (a.step, a.first))
_axes = st.one_of(
    st.integers(1, 10 ** 15).flatmap(
        lambda d: st.builds(Prog, st.just(d), st.integers(1, 3 * d))),
    st.sampled_from(_PRIME_AXES))


@settings(max_examples=300, deadline=None)
@given(st.lists(_axes, min_size=1, max_size=40, unique=True),
       st.floats(1.0, 3.0, exclude_min=True))
# axes whose error bound differs in its last bit when _em_tail_err is taken
# as a numpy power over the batch instead of a Python float power
@example([Prog(792, 1084), Prog(159, 283)], 1.0 + 1.0 / 3.0)
@example([Prog(360707150634400, 972790287503805)], 1.0078125)
def test_batched_axis_sums_are_the_per_axis_sums_bit_for_bit(axes, s):
    want = [_dsum_1d_reference(a, s) for a in axes]
    assert series._prog_sums(axes, s) == want
    # through the memo: every axis a miss, then every axis a hit
    series._axis_memo.clear()
    assert series._axis_sums(axes, s) == want
    assert series._axis_sums(axes, s) == want


def test_the_prime_union_axes_in_one_batch_are_the_per_axis_sums():
    assert len(_PRIME_AXES) == 1023
    for s in (1.0 + 2.0 ** -20, 1.0078125, 1.5, 2.0, 3.0):
        got = series._prog_sums(_PRIME_AXES, s)
        assert got == [_dsum_1d_reference(a, s) for a in _PRIME_AXES]


@pytest.mark.parametrize("e", [parse_expression("union(lattice(2,3),translate(lattice(3,2),1,1))"),
                               _PRIME_UNION], ids=["two-lattices", "ten-primes"])
def test_a_point_whose_axes_are_kept_takes_no_batch(e, monkeypatch):
    # a ten-prime union estimate keeps 1,023 axes at each of its 7 points
    series._axis_memo.clear()
    estimate_density(e)
    batches = []
    monkeypatch.setattr(series, "_prog_sums", lambda *args: batches.append(args))
    estimate_density(e)
    assert batches == []


_COMPILED_ONCE = "union(lattice(2,3),translate(lattice(3,2),1,1))"


@pytest.mark.parametrize("argv", [["compare", _COMPILED_ONCE],
                                  ["estimate", _COMPILED_ONCE],
                                  ["sweep", _COMPILED_ONCE, "--points", "25"]])
def test_each_command_compiles_its_expression_once(argv, monkeypatch, capsys):
    calls = []
    compile_node = atoms_module._compile

    def spy(e, memo=None):
        calls.append(e)
        return compile_node(e, memo)

    monkeypatch.setattr(atoms_module, "_compile", spy)
    assert main(argv) == 0
    capsys.readouterr()
    # (_compile recurses through the module name, so its children count too)
    assert sum(e == parse_expression(_COMPILED_ONCE) for e in calls) == 1


def test_a_compiled_map_is_shared_and_read_only():
    e = parse_expression(_COMPILED_ONCE)
    atoms = compile_set(e)
    assert compile_set(e) is atoms
    with pytest.raises(TypeError):
        atoms[next(iter(atoms))] = 0
    assert compile_set(parse_expression(_COMPILED_ONCE)) == atoms


_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
              Fraction(43867, 798), Fraction(-174611, 330))


def _hurwitz_decimal(a: int, s: Decimal) -> Decimal:
    """sum_{m >= a} m^(-s) by Euler-Maclaurin through B_20, for a >= 100."""
    x = Decimal(a)
    total = x ** (1 - s) / (s - 1) + x ** -s / 2
    rising, fact = s, Decimal(1)
    for k, b in enumerate(_BERNOULLI, start=1):
        # B_2k / (2k)! * s(s+1)...(s+2k-2) * x^(-s-2k+1)
        fact *= (2 * k - 1) * (2 * k)
        total += Decimal(b.numerator) / b.denominator / fact * rising * x ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def _zeta_decimal(s: Decimal) -> Decimal:
    return sum(Decimal(n) ** -s for n in range(1, 100)) + _hurwitz_decimal(100, s)


@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -7])
def test_an_axis_past_the_float_range_against_a_decimal_reference(s):
    # upper(M, 1) has the ratio sum_{m >= M} m^(-s) / zeta(s), and its first
    # axis, M + j, is past the float range
    big = 10 ** 400
    with localcontext() as ctx:
        ctx.prec = 50
        sd = Decimal(s)
        ref = _hurwitz_decimal(big, sd) / _zeta_decimal(sd)
    ev = density_at(UpperQuadrant(big, 1), s, 1e-9)
    assert ev.value > 0.0
    assert abs(Decimal(ev.value) - ref) <= Decimal(ev.tail_bound)


@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -7])
def test_a_constant_band_past_the_float_range_is_charged_its_columns(s):
    # a band of columns n = M+1..M+w past the float range is two product
    # atoms, column tails from M+1 and M+w+1 summed in logs: five columns'
    # worth at w = 5, not that of every column from M+1 on.  At w = M its
    # upper cut is past 2^62 and comes from the exact constant.
    big = 10 ** 400
    with localcontext() as ctx:
        ctx.prec = 50
        sd = Decimal(s)
        narrow = sum(Decimal(big + v) ** -sd for v in range(1, 6)) / _zeta_decimal(sd)
        wide = (_hurwitz_decimal(big + 1, sd) - _hurwitz_decimal(2 * big + 1, sd)) / _zeta_decimal(sd)
    for width, ref in ((5, narrow), (big, wide)):
        text = f"translate(delim(const(1),const({width})),0,{big})"
        ev = density_at(parse_expression(text), s, 1e-6)
        assert abs(Decimal(ev.value) - ref) <= Decimal(ev.tail_bound), width
        if width == 5:
            assert ev.tail_bound <= 1e-6


# mpmath references at 30 digits, with no slack: a band of the columns
# lo..hi has the ratio (zeta(s, lo) - zeta(s, hi + 1)) / zeta(s)
@pytest.mark.parametrize("lo,hi", [(2, 5), (1, 10 ** 400), (10 ** 400, 10 ** 401)],
                         ids=["2..5", "1..10^400", "10^400..10^401"])
@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -7])
def test_a_constant_band_against_mpmath(lo, hi, s):
    with mpmath.workdps(30):
        ref = (mpmath.zeta(s, lo) - mpmath.zeta(s, hi + 1)) / mpmath.zeta(s)
        ev = density_at(parse_expression(f"delim(const({lo}),const({hi}))"), s, 1e-9)
        assert abs(ev.value - ref) <= ev.tail_bound


# a constant side a hair off an integer is cut at its exact ceil or floor,
# not snapped onto the integer
@pytest.mark.parametrize("text,lo,hi", [
    ("delim(const(3.0000000001),const(2000000000))", 4, 2 * 10 ** 9),
    ("delim(pow(3.0000000001,0),const(2000000000))", 4, 2 * 10 ** 9),
    ("delim(const(2),const(6.9999999999))", 2, 6),
], ids=["const-lower", "pow-0-lower", "const-upper"])
@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -7])
def test_a_constant_side_near_an_integer_against_mpmath(text, lo, hi, s):
    e = parse_expression(text)
    assert [contains(e, (1, n)) for n in (lo - 1, lo, hi, hi + 1)] == [False, True, True, False]
    assert grid_mask(e, 1, 1, 8)[0].tolist() == [lo <= n <= hi for n in range(1, 9)]
    with mpmath.workdps(30):
        ref = (mpmath.zeta(s, lo) - mpmath.zeta(s, hi + 1)) / mpmath.zeta(s)
        ev = density_at(e, s, 1e-9)
        assert abs(ev.value - ref) <= ev.tail_bound


@pytest.mark.parametrize("text", [f"delim(const({2 ** 70}),pow({2 ** 71},1))",
                                  f"inter(delim(const(1),pow({2 ** 71},1)),upper(1,{2 ** 70}))"],
                         ids=["constant-side", "quadrant-cut"])
@pytest.mark.parametrize("s", [1.5, 1.0 + 2.0 ** -7])
def test_a_lower_cut_past_2_to_the_62_against_mpmath(text, s):
    # rows u >= 1 with 2^70 <= v <= 2^71 u: past the row kernel's 2^62 cap on
    # cuts, the atom is charged its whole mass.  The ratio is
    # (zeta(s) zeta(s, 2^70) - sum_u u^-s zeta(s, 2^71 u + 1)) / zeta(s)^2, and
    # the sum is 2^(71(1-s)) zeta(2s-1) / (s-1) within a relative 2^-70
    # (the leading Euler-Maclaurin term of each tail)
    with mpmath.workdps(30):
        s_ = mpmath.mpf(s)
        z = mpmath.zeta(s_)
        far = mpmath.mpf(2) ** (71 * (1 - s_)) * mpmath.zeta(2 * s_ - 1) / (s_ - 1)
        ref = (z * mpmath.zeta(s_, 2 ** 70) - far) / z ** 2
        ev = density_at(parse_expression(text), s, 1e-9)
        assert abs(ev.value - ref) <= ev.tail_bound


def test_an_exponential_band_near_s_1_against_mpmath():
    # the ratio at 30 digits, from tests/exp_band_reference.py.  At this s the
    # exponential sides' closed remainder is most of the bound
    ref = mpmath.mpf("5.61594645054444187278568773028e-5")
    ev = density_at(parse_expression("delim(exp(1,2),exp(1,3))"), 1.0 + 2.0 ** -13, 1e-6)
    assert abs(ev.value - ref) <= ev.tail_bound


@pytest.mark.parametrize("m,n", [(10 ** 308, 3), (2 ** 1020, 1), (2 ** 1030, 1),
                                 (7, 2 ** 1024 + 1)],
                         ids=["10^308x3", "2^1020", "2^1030", "7x(2^1024+1)"])
@pytest.mark.parametrize("s", [3.0, 1.5, 1.0 + 2.0 ** -7, 1.0 + 2.0 ** -20])
def test_a_subnormal_ratio_has_a_true_bound(m, n, s):
    # lattice(m, n) has the ratio (mn)^(-s), subnormal or below the float
    # range; an axis' head runs past the float range, where its terms are
    # taken in logs
    with localcontext() as ctx:
        ctx.prec = 50
        ref = Decimal(m * n) ** -Decimal(s)
    ev = density_at(parse_expression(f"lattice({m},{n})"), s, 1e-9)
    assert ev.tail_bound > 0.0
    assert abs(Decimal(ev.value) - ref) <= Decimal(ev.tail_bound)


def test_the_tail_floor_leaves_bounds_from_2_to_the_minus_1000_alone():
    for x in (2.0 ** -1000, math.nextafter(2.0 ** -1000, 1.0), 1e-300, 1e-6):
        assert x + series._TAIL_FLOOR == x


@pytest.mark.parametrize("form", ["dilate({d},1,{band})", "dilate(1,{d},{band})"])
@pytest.mark.parametrize("exp10", [300, 305, 307])
def test_a_band_dilated_toward_the_float_range_has_a_true_bound(form, exp10):
    # dilating one axis by d scales the ratio by d^(-s); at d = 10^305 the
    # direct rows' weights or the inner tail table would pass the float range
    band = "delim(const(1),pow(1,2))"
    s = 1.0 + 2.0 ** -7
    base = density_at(parse_expression(band), s, 1e-9)
    ev = density_at(parse_expression(form.format(d=10 ** exp10, band=band)), s, 1e-9)
    with localcontext() as ctx:
        ctx.prec = 50
        scale = Decimal(10) ** (-exp10 * Decimal(s))
        gap = abs(Decimal(ev.value) - scale * Decimal(base.value))
        assert gap <= Decimal(ev.tail_bound) + scale * Decimal(base.tail_bound)


# ---------------------------------------------------------------------------
# the generic box
# ---------------------------------------------------------------------------

import tracemalloc  # noqa: E402

from hypothesis import HealthCheck  # noqa: E402

from gaussdens.atoms import GenAtom  # noqa: E402
from gaussdens.sets import Complement  # noqa: E402
from test_dsl_cli import _bands, _exprs as _dsl_exprs  # noqa: E402

_GENERIC = ("inter(delim(pow(1,1/2),pow(1,2)),lattice(2,2))",
            "inter(delim(const(1),pow(1,2)),delim(pow(1,1/2),pow(1,3)))")


def _whole_chunk_box_sum(e, s, N):
    """The box sum with every row of a 4M-cell chunk in one np.where copy of
    the masked column powers: the reference of the blocked sum."""
    n = np.arange(1.0, N + 1.0)
    npow = n ** -s
    chunk = max(1, min(4096, 4_000_000 // max(N, 1)))
    row_sums = []
    for lo in range(1, N + 1, chunk):
        hi = min(lo + chunk - 1, N)
        mask = grid_mask(e, lo, hi, N)
        m = np.arange(float(lo), float(hi) + 1.0)
        rows = (m ** -s)[:, None] * np.where(mask, npow[None, :], 0.0)
        row_sums.extend(np.sum(rows, axis=1).tolist())
    return float(math.fsum(row_sums))


@settings(max_examples=120, deadline=None)
@example(e=parse_expression(_GENERIC[0]), s=1.25, N=2000, cells=series._BOX_CELLS)
@example(e=parse_expression(_GENERIC[1]), s=1.25, N=2000, cells=series._BOX_CELLS)
@given(e=st.one_of(_exprs, _dsl_exprs), s=st.sampled_from([1.5, 2.0, 1.0078125]),
       N=st.integers(1, 600),
       cells=st.one_of(st.just(series._BOX_CELLS), st.integers(1, 40_000)))
def test_the_blocked_box_sum_keeps_every_bit(e, s, N, cells):
    # any block size: each row is still one np.sum over its full length, and
    # a row with no member adds exactly 0.0
    want = _whole_chunk_box_sum(e, s, N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_BOX_CELLS", cells)
        assert partial_double_sum(e, s, N).hex() == want.hex()


def test_the_box_sum_holds_one_block_in_memory():
    e = parse_expression(_GENERIC[0])
    tracemalloc.start()
    try:
        partial_double_sum(e, 1.5, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("s", [2.0, 1.5, 1.25])
def test_a_dense_generic_atom_against_mpmath(s):
    # off the diagonal and off the lattice M_(1000,1000): the series is
    # zeta(s)^2 - zeta(2s) - c zeta(s)^2 + c zeta(2s) with c = 1000^(-2s).  Its
    # operands' bracket is c zeta(s)^2 wide, far below the box's bound
    e = parse_expression("inter(compl(delim(pow(1,1),pow(1,1))),compl(lattice(1000,1000)))")
    ev = density_at(e, s, 1e-6)
    assert ev.method == "bracket"
    with mpmath.workdps(30):
        s_ = mpmath.mpf(s)
        q = mpmath.zeta(2 * s_) / mpmath.zeta(s_) ** 2
        c = mpmath.mpf(1000) ** (-2 * s_)
        ref = 1 - q - c + c * q
        assert abs(ev.value - ref) <= ev.tail_bound


_PRIMES_11 = _PRIMES + (31,)
_PRIME_PAIRS_11 = tuple(zip(_PRIMES_11, _PRIMES_11[1:] + _PRIMES_11[:1]))


@pytest.mark.parametrize("s", [2.0, 1.5])
def test_a_dense_generic_box_against_its_closed_form(s):
    # outside eleven lattices with distinct primes on each axis: 2047 atoms,
    # past ATOM_CAP, so one generic atom of the whole expression, which the
    # box serves.  Its ratio is prod(1 - (p q)^(-s)) (CRT), and the box value
    # misses it by 0.90 (s = 2) and 0.84 (s = 1.5) of the generic bound
    e = Complement(reduce(Union, [Lattice(p, q) for p, q in _PRIME_PAIRS_11]))
    ev = density_at(e, s, 1e-6)
    assert ev.method == "direct"
    with mpmath.workdps(30):
        ref = mpmath.fprod(1 - mpmath.mpf(p * q) ** -mpmath.mpf(s) for p, q in _PRIME_PAIRS_11)
        assert ev.value <= ref <= ev.value + ev.tail_bound


_MEETS = st.builds(
    Intersection,
    st.one_of(_bands, _exprs, _dsl_exprs),
    st.one_of(st.builds(Lattice, st.integers(1, 6), st.integers(1, 6)), _bands, _exprs,
              _dsl_exprs))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@example(e=parse_expression(_GENERIC[0]))
@example(e=parse_expression(_GENERIC[1]))
@example(e=parse_expression("union(delim(pow(1,1/2),pow(1,2)),delim(pow(1,1/3),pow(1,1)))"))
# a meet one of whose operands is itself a generic atom
@example(e=parse_expression("inter(inter(delim(pow(1,1/2),pow(1,2)),lattice(2,2)),lattice(3,1))"))
@given(e=st.one_of(_exprs, _dsl_exprs, _MEETS))
def test_a_bracket_meets_the_box_enclosure(e):
    # a point of an expression with a bracketed meet lies within its bound of
    # the ratio, and so does the box's enclosure [box, box + bound]: the two
    # intervals meet
    assume(any(isinstance(a, GenAtom) and a.operands is not None for a in compile_set(e)))
    n = 600
    for s in (2.0, 1.5, 1.25, 1.0625):
        ev = density_at(e, s, 1e-3, term_budget=10 ** 6)
        z2 = zeta(s) ** 2
        box = partial_double_sum(e, s, n) / z2
        bound = 2.0 * zeta(s) * n ** (1.0 - s) / (s - 1.0) / z2
        assert ev.value - ev.tail_bound <= box + bound and box <= ev.value + ev.tail_bound, s
