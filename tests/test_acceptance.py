"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or through ``pytest``;
the pass lines appear with ``-s``).  Every tolerance is pinned here.
"""

import time
from fractions import Fraction

from gaussdens import (
    Complement,
    Constant,
    Delimited,
    Difference,
    Dilate,
    Exponential,
    FiniteSet,
    FullP,
    Intersection,
    Lattice,
    Power,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    brute_partial_sum,
    contains,
    estimate_density,
    exact_density,
    partial_double_sum,
)
from gaussdens.cli import main
from gaussdens.corpus import CORPUS, by_tag
from gaussdens.estimator import EstimatorConfig, schedule
from paper_checks import zeta_limit_check

NEAR_CFG = EstimatorConfig(s_schedule=schedule(4, 10), per_point_eps=1e-5)
EXP_CFG = EstimatorConfig(s_schedule=schedule(7, 13), per_point_eps=1e-4)


def _passed(k, msg):
    print(f"[criterion {k:2d}] PASS  {msg}")


def _frac(e):
    v = exact_density(e)
    assert v.kind == "rational"
    return v.rational


def test_criterion_01_lattice_densities():
    start = time.monotonic()
    for p, q in [(1, 1), (2, 3), (4, 5), (7, 11)]:
        assert _frac(Lattice(p, q)) == Fraction(1, p * q)
        report = estimate_density(Lattice(p, q))
        assert abs(report.extrapolated - 1.0 / (p * q)) <= 5e-3, (p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(1, f"lattice exact=1/(pq) and estimates within 5e-3 in {elapsed:.2f}s")


def test_criterion_02_intersection_rule():
    cases = [
        (Intersection(Lattice(2, 3), Lattice(3, 2)), Fraction(1, 36)),
        (Intersection(Lattice(4, 6), Lattice(6, 4)), Fraction(1, 144)),
    ]
    for expr, want in cases:
        assert _frac(expr) == want
        report = estimate_density(expr)
        assert abs(report.extrapolated - float(want)) <= 5e-3
    _passed(2, "lcm intersection densities 1/36 and 1/144, estimates within 5e-3")


def test_criterion_03_power_delimited():
    for alpha, beta in [(Fraction(1, 2), 2), (Fraction(1), 3), (Fraction(0), 2)]:
        lower = Constant(1) if alpha == 0 else Power(1, alpha)
        expr = Delimited(lower, Power(1, beta))
        want = Fraction(1) / (1 + alpha) - Fraction(1, 1 + beta)
        assert _frac(expr) == want
        report = estimate_density(expr, NEAR_CFG)
        assert abs(report.extrapolated - float(want)) <= 2e-2, (alpha, beta)
    for beta in (2, 3, 4):
        v = _frac(Delimited(Power(1, Fraction(1, beta)), Power(1, beta)))
        assert v == Fraction(beta - 1, beta + 1)
    _passed(3, "power bands: 1/(1+a)-1/(1+b) exact, (b-1)/(b+1) at ab=1, estimates within 2e-2")


def test_criterion_04_exponential_delimited():
    expr = Delimited(Constant(1), Exponential(1, 2))
    assert _frac(expr) == 1
    assert EXP_CFG.term_budget == 10 ** 8
    report = estimate_density(expr, EXP_CFG)
    assert report.converged
    assert not report.budget_limited
    assert report.extrapolated >= 0.95
    _passed(4, f"exponential band: exact 1, extrapolated {report.extrapolated:.4f} >= 0.95, converged")


def test_criterion_05_zeta_limit_lemma():
    start = time.monotonic()
    for alpha in (0.0, 1.0, 3.0):
        pts = zeta_limit_check(alpha, [1.0 + 1e-4])
        assert abs(pts[0][1] - 1.0 / (1.0 + alpha)) <= 1e-3, alpha
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(5, f"zeta((a+1)s-a)(s-1) within 1e-3 of 1/(1+a) in {elapsed:.2f}s")


def _proposition_corpus():
    """30 expressions wired into additivity/complement/difference/monotonicity
    and inclusion-exclusion identities."""
    disjoint = [
        (Lattice(2, 2), Translate(Lattice(2, 2), (1, 1))),
        (Lattice(2, 2), Translate(Lattice(2, 2), (1, 0))),
        (Lattice(3, 3), Translate(Lattice(3, 3), (1, 1))),
        (Translate(Lattice(4, 4), (2, 0)), Lattice(4, 4)),
    ]
    ie_pairs = [
        (Lattice(2, 3), Lattice(3, 2)),
        (Lattice(2, 2), Lattice(4, 4)),
        (Lattice(3, 5), Lattice(5, 3)),
        (Lattice(2, 5), Lattice(3, 7)),
        (Lattice(2, 7), Lattice(7, 2)),
        (Lattice(4, 3), Lattice(6, 5)),
    ]
    complements = [Lattice(2, 2), Lattice(5, 5), Lattice(10, 10),
                   Union(Lattice(2, 3), Lattice(3, 2))]
    differences = [(Lattice(2, 2), Lattice(4, 4)), (Lattice(2, 3), Lattice(3, 2)),
                   (Lattice(3, 3), Lattice(9, 9))]
    return disjoint, ie_pairs, complements, differences


def test_criterion_06_proposition_suite():
    disjoint, ie_pairs, complements, differences = _proposition_corpus()
    expressions = []

    for a, b in disjoint:
        assert not any(
            contains(a, (m, n)) and contains(b, (m, n))
            for m in range(1, 201) for n in range(1, 201)
        )
        u = Union(a, b)
        assert _frac(u) == _frac(a) + _frac(b)
        expressions += [a, b, u]
    for a, b in ie_pairs:
        u, i = Union(a, b), Intersection(a, b)
        assert _frac(u) + _frac(i) == _frac(a) + _frac(b)
        assert _frac(a) <= _frac(u) and _frac(b) <= _frac(u)  # monotonicity
        expressions += [u, i]
    for e in complements:
        c = Complement(e)
        assert _frac(c) == 1 - _frac(e)
        expressions += [c]
    for a, b in differences:
        d = Difference(a, b)
        assert _frac(d) == _frac(a) - _frac(Intersection(a, b))
        expressions += [d]
    assert len(expressions) >= 30

    # estimator residual versions on lattice pairs
    for a, b in ie_pairs[:2]:
        est = lambda e: estimate_density(e).extrapolated
        resid = abs(est(Union(a, b)) + est(Intersection(a, b)) - est(a) - est(b))
        assert resid <= 4.0 * 5e-3
    for a, b in disjoint[:2]:
        est = lambda e: estimate_density(e).extrapolated
        resid = abs(est(Union(a, b)) - est(a) - est(b))
        assert resid <= 3.0 * 5e-3
    _passed(6, f"proposition identities exact on {len(expressions)} expressions, residuals in tolerance")


def test_criterion_07_translation_and_dilation():
    lattice = Lattice(2, 3)
    band = Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    base_l = estimate_density(lattice)
    base_b = estimate_density(band, NEAR_CFG)

    def tol(r):
        return max(5e-3, 3.0 * r.fit_residual)

    for off in [(1, 0), (0, 1), (3, 5)]:
        r = estimate_density(Translate(lattice, off))
        assert abs(r.extrapolated - base_l.extrapolated) <= tol(base_l) + tol(r), off
        r = estimate_density(Translate(band, off), NEAR_CFG)
        assert abs(r.extrapolated - base_b.extrapolated) <= tol(base_b) + tol(r), off
    for a, b in [(2, 1), (2, 3)]:
        r = estimate_density(Dilate((a, b), lattice))
        assert abs(r.extrapolated - base_l.extrapolated / (a * b)) <= tol(base_l) + tol(r)
        r = estimate_density(Dilate((a, b), band), NEAR_CFG)
        assert abs(r.extrapolated - base_b.extrapolated / (a * b)) <= tol(base_b) + tol(r)
    _passed(7, "translation invariance and dilation scaling within combined tolerances")


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    entries = by_tag("oracle")
    for entry in entries:
        for s in (1.25, 1.5, 2.0, 3.0):
            for n in (50, 200, 1000):
                brute = brute_partial_sum(entry.expr, s, n)
                fast = partial_double_sum(entry.expr, s, n)
                rel = abs(brute - fast) / max(abs(brute), 1e-300)
                worst = max(worst, rel)
                assert rel <= 1e-12, (entry.name, s, n, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passed(8, f"{len(entries)} sets x 4 s x 3 N equivalent, worst rel {worst:.1e}, {elapsed:.1f}s")


def test_criterion_09_heavy_tail_and_axis_nullity():
    for entry in CORPUS:
        if entry.density is None:
            continue
        v = exact_density(Intersection(entry.expr, UpperQuadrant(5, 5)))
        assert v.is_known and v.rational == entry.density, entry.name
    assert _frac(Product(FiniteSet((3,)), FullP())) == 0
    assert _frac(Product(FullP(), FiniteSet((2, 4)))) == 0
    _passed(9, "tail intersection preserves densities exactly; finite axis sections give 0")


def test_criterion_10_determinism(tmp_path):
    paths = []
    for i, workers in enumerate((1, 4, 2)):
        out = tmp_path / f"check_{i}.csv"
        code = main(["check", "--format", "csv", "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    _passed(10, "check CSV byte-identical across worker counts 1, 4, 2")
