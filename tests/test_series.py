"""Series engine: zeta, range sums, truncated double sums, tail bounds."""

import dataclasses
import math
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaussdens import (
    BudgetExceeded,
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
    range_sum,
    zeta,
)
from gaussdens.corpus import by_tag

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
    with pytest.raises(BudgetExceeded):
        density_at(gen, 1.0078125, 1e-6)
    ev = density_at(gen, 1.0078125, 1e-6, loosen=True)
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
from gaussdens.sets import _HUGE, _LOG_HUGE  # noqa: E402


def _reference_bound_floats(b, u):
    # every row's bound value evaluated in full, with no row skipped
    if isinstance(b, Constant):
        k = float(b.k)
        return np.full(u.shape, k), np.full(u.shape, math.log(k))
    if isinstance(b, Power):
        logs = math.log(float(b.c)) + float(b.alpha) * np.log(u)
        vals = np.exp(np.minimum(logs, _LOG_HUGE))
        if b.exact_int(1) is not None:
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
    "delim(pow(1,1/3),pow(1,3))",          # lower cut constant over runs of rows
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
            got, _ = series._tail_at_cut(x, logx, lower, s, an, bn)
            assert got.tolist() == _reference_tail_at_cut(x, logx, lower, s, an, bn).tolist()
        want = np.zeros(x.shape)
        sel = x >= float(series._TABLE)
        want[sel] = 1.2 * np.exp(-s * (math.log(an) + logx[sel]))
        assert series._jitter(x, logx, s, an, None).tolist() == want.tolist()


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
    b = series._side_of(side)
    first = _row_of(b, float(series._TABLE)) + 1.0      # the first cut past the table
    centre = min(max(_row_of(b, (coef * 2.0 ** e) ** (1.0 / p)), first), 2.0 ** 50)
    u0 = max(math.floor(centre) - before, math.ceil(first))
    u = np.arange(float(u0), float(u0 + before + after) + 1.0)
    x, logx = series._bound_floats(b, u, np.log(u))
    if x.shape == u.shape:
        n = int(np.searchsorted(x, float(series._TABLE)))
        x, logx = x[n:], logx[n:]
    assume(logx.size > 0)
    t, e_s = series._tail_em(x, logx, s, an, bn)
    assert np.array_equal(np.broadcast_to(t, logx.shape), _four_term_tail_em(x, logx, s, an, bn))
    if e_s is not None:
        assert np.array_equal(np.broadcast_to(e_s, logx.shape), np.exp(-s * logx))


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


@pytest.mark.parametrize("variant", ["{}", "translate({},3,5)", "inter({},upper(6,650))"])
def test_row_block_where_snapping_moves_a_run_boundary(variant):
    # (630^4 + j)^(1/4) - 630 is about j * 1.0e-9: the lower value snaps back
    # to 630 one row past 630^4, so the first row of cut 631 lies past the
    # inverse's guess and the block must find it by bisection
    atom = _delim_atom(variant.format("delim(pow(1,1/4),pow(1,4))"))
    base = 630.0 ** 4
    assert series._cut_keys(series._side_of(atom.lower), np.array([base + 1.0]), True, 1)[0][0] == 630.0
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
            assert series._bound_floats(series._side_of(side), u, None)[0].shape == (1,)


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
        want = [series._em_tail(x, p) for p in ps]
        assert series._em_tails(x, ps) == want


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
            assert density_at(band, s, 1e-5, loosen=True).terms_used > 0


def test_tiny_exponent_band_charges_its_whole_mass():
    # pow(1, 10^-6) reaches 64 only past row 2^62: no row can meet the target
    band = parse_expression("delim(pow(1,1/1000000),pow(1,1000000))")
    with pytest.raises(BudgetExceeded):
        density_at(band, 1.5, 1e-6)
    ev = density_at(band, 1.5, 1e-6, loosen=True)
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
    density_at(parse_expression(text), s, eps, term_budget=budget, loosen=True)
    (_, _, first), (second, (_, eps_abs, left, _), got) = seen
    assert first[2:] == (16_388, True)
    assert left == budget - 16_388 < series._delim_required_start(second)
    assert got == evaluate(second, s, eps_abs, budget, budget)
    assert got[2:] == (2048, True)
