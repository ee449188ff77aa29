"""Series engine: zeta, range sums, truncated double sums, tail bounds."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

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
