"""Extrapolation to s = 1: agreement with the closed-form calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaussdens import (
    Constant,
    Delimited,
    Dilate,
    Exponential,
    FullQuadrant,
    Intersection,
    Lattice,
    Multiples,
    Power,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    estimate_density,
    exact_density,
)
from gaussdens.atoms import DelimAtom, GenAtom, compile_set
from gaussdens.estimator import EstimatorConfig, schedule
from gaussdens.corpus import by_tag
from paper_checks import theta_invariance_check, zeta_limit_check
from test_dsl_cli import _exprs as _dsl_exprs
from test_sets import _exprs as _set_exprs

NEAR_CFG = EstimatorConfig(s_schedule=schedule(4, 10), per_point_eps=1e-5)
EXP_CFG = EstimatorConfig(s_schedule=schedule(7, 13), per_point_eps=1e-4)


def _tolerance(report, floor=5e-3):
    return max(floor, 3.0 * report.fit_residual)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_schedule_default():
    sched = schedule()
    assert sched[0] == 1.5
    assert sched[-1] == 1.0 + 1.0 / 128.0
    assert len(sched) == 7
    assert all(a > b for a, b in zip(sched, sched[1:]))
    # the last k whose s is above 1.0 in double precision
    assert schedule(45, 51)[-1] == 1.0 + 2.0 ** -52
    with pytest.raises(ValueError):
        schedule(46, 52)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(s_schedule=(1.5, 1.25, 1.25, 1.1, 1.05))  # not decreasing
    with pytest.raises(ValueError):
        EstimatorConfig(s_schedule=(1.5, 1.25, 1.1))  # too short for degree 2
    with pytest.raises(ValueError):
        EstimatorConfig(s_schedule=(1.5, 1.0, 0.9, 0.8))  # not > 1
    with pytest.raises(ValueError):
        EstimatorConfig(per_point_eps=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(fit_degree=0)


# ---------------------------------------------------------------------------
# basic targets
# ---------------------------------------------------------------------------


def test_full_quadrant_is_exactly_one():
    report = estimate_density(FullQuadrant())
    assert report.extrapolated == pytest.approx(1.0, abs=1e-9)
    assert report.converged


@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 5), (7, 11)])
def test_lattice_extrapolation_default_schedule(p, q):
    report = estimate_density(Lattice(p, q))
    assert report.extrapolated == pytest.approx(1.0 / (p * q), abs=5e-3)


@pytest.mark.parametrize(
    "alpha,beta,target",
    [(Fraction(1, 2), 2, Fraction(1, 3)), (1, 3, Fraction(1, 4)), (0, 2, Fraction(2, 3))],
)
def test_delimited_power_extrapolation(alpha, beta, target):
    lower = Constant(1) if alpha == 0 else Power(1, alpha)
    report = estimate_density(Delimited(lower, Power(1, beta)), NEAR_CFG)
    assert report.converged
    assert report.extrapolated == pytest.approx(float(target), abs=2e-2)


def test_exponential_bound_slow_convergence():
    report = estimate_density(Delimited(Constant(1), Exponential(1, 2)), EXP_CFG)
    assert report.converged
    assert report.extrapolated >= 0.95
    # the pre-limit points themselves sit well below the limit: slow approach
    assert report.points[0].value < 0.99


def test_exact_vs_estimate_agreement_on_corpus():
    for entry in by_tag("estimate"):
        cfg = NEAR_CFG if "near" in entry.tags else EstimatorConfig()
        report = estimate_density(entry.expr, cfg)
        exact = exact_density(entry.expr)
        assert exact.is_known
        tol = _tolerance(report)
        assert abs(report.extrapolated - exact.as_float()) <= tol, entry.name


def test_report_shape():
    report = estimate_density(Lattice(2, 3))
    assert len(report.points) == 7
    assert 0.0 <= report.extrapolated <= 1.0
    assert report.fit_residual >= 0.0
    assert report.exact_reference is None
    doc = report.to_dict()
    assert set(doc) >= {"extrapolated", "points", "converged", "fit_residual"}


def test_budget_limited_reports_not_converged():
    gen = Intersection(Delimited(Constant(1), Power(1, 2)), Lattice(2, 2))
    cfg = EstimatorConfig(per_point_eps=1e-6, term_budget=10 ** 6)
    report = estimate_density(gen, cfg)
    assert report.budget_limited
    assert not report.converged


def test_workers_do_not_change_results():
    for workers in (1, 4):
        cfg = EstimatorConfig(workers=workers)
        report = estimate_density(Lattice(2, 3), cfg)
        assert report.extrapolated == estimate_density(Lattice(2, 3)).extrapolated
        assert [p.value for p in report.points] == [
            p.value for p in estimate_density(Lattice(2, 3)).points
        ]


# ---------------------------------------------------------------------------
# zeta limit lemma
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
def test_zeta_limit_lemma(alpha):
    pts = zeta_limit_check(alpha, [1.0 + 1e-4])
    assert pts[0][1] == pytest.approx(1.0 / (1.0 + alpha), abs=1e-3)


def test_zeta_limit_sequence_decreasing_toward_limit():
    pts = zeta_limit_check(1.0, schedule(0, 10))
    values = [v for _, v in pts]
    target = 0.5
    assert abs(values[-1] - target) < abs(values[0] - target)


def test_zeta_limit_validation():
    with pytest.raises(ValueError):
        zeta_limit_check(-1.0, [1.1])
    with pytest.raises(ValueError):
        zeta_limit_check(1.0, [0.99])


# ---------------------------------------------------------------------------
# coefficient invariance of delimited bounds
# ---------------------------------------------------------------------------


def test_theta_invariance_square_upper():
    rep = theta_invariance_check(Power(1, 2), 1, 3, NEAR_CFG)
    assert rep.agree
    assert rep.report_low.extrapolated == pytest.approx(2.0 / 3.0, abs=2e-2)
    assert rep.report_high.extrapolated == pytest.approx(2.0 / 3.0, abs=2e-2)


def test_theta_invariance_linear_upper():
    rep = theta_invariance_check(Power(1, 1), 1, 2, NEAR_CFG)
    assert rep.agree
    assert rep.report_low.extrapolated == pytest.approx(0.5, abs=2e-2)


def test_theta_invariance_degenerate_coefficients():
    rep = theta_invariance_check(Power(1, 2), 2, 2, NEAR_CFG)
    assert rep.delta == 0.0
    assert rep.report_low == rep.report_high


# ---------------------------------------------------------------------------
# invariance of the limit under the set operations
# ---------------------------------------------------------------------------


def test_translation_invariance_lattice():
    base = estimate_density(Lattice(2, 3))
    tol0 = _tolerance(base)
    for off in [(1, 0), (0, 1), (3, 5)]:
        rep = estimate_density(Translate(Lattice(2, 3), off))
        assert abs(rep.extrapolated - base.extrapolated) <= tol0 + _tolerance(rep), off


def test_translation_invariance_delimited():
    e = Delimited(Power(1, Fraction(1, 2)), Power(1, 2))
    base = estimate_density(e, NEAR_CFG)
    tol0 = _tolerance(base)
    for off in [(1, 0), (0, 1), (3, 5)]:
        rep = estimate_density(Translate(e, off), NEAR_CFG)
        assert abs(rep.extrapolated - base.extrapolated) <= tol0 + _tolerance(rep), off


def test_dilation_scaling():
    cases = [
        (Lattice(2, 3), EstimatorConfig()),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), NEAR_CFG),
    ]
    for e, cfg in cases:
        base = estimate_density(e, cfg)
        for a, b in [(2, 1), (2, 3)]:
            rep = estimate_density(Dilate((a, b), e), cfg)
            want = base.extrapolated / (a * b)
            assert abs(rep.extrapolated - want) <= _tolerance(base) + _tolerance(rep)


def test_inclusion_exclusion_estimates():
    pairs = [(Lattice(2, 3), Lattice(3, 2)), (Lattice(2, 2), Lattice(3, 3))]
    for a, b in pairs:
        ra = estimate_density(a)
        rb = estimate_density(b)
        ru = estimate_density(Union(a, b))
        ri = estimate_density(Intersection(a, b))
        resid = abs(ru.extrapolated + ri.extrapolated - ra.extrapolated - rb.extrapolated)
        assert resid <= 4.0 * max(_tolerance(r) for r in (ra, rb, ru, ri))


def test_heavy_tail_estimates():
    cases = [
        (Lattice(2, 3), EstimatorConfig()),
        (Delimited(Power(1, Fraction(1, 2)), Power(1, 2)), NEAR_CFG),
        (Translate(Lattice(2, 2), (1, 1)), EstimatorConfig()),
    ]
    for e, cfg in cases:
        base = estimate_density(e, cfg)
        rep = estimate_density(Intersection(e, UpperQuadrant(5, 5)), cfg)
        assert abs(rep.extrapolated - base.extrapolated) <= _tolerance(base) + _tolerance(rep)


def test_axis_independence_value():
    e = Translate(Product(Multiples(2), Multiples(3)), (4, 4))
    rep = estimate_density(e)
    assert rep.extrapolated == pytest.approx(1.0 / 6.0, abs=_tolerance(rep))


# ---------------------------------------------------------------------------
# the two engines on drawn expressions
# ---------------------------------------------------------------------------

AGREE_CFG = EstimatorConfig(s_schedule=schedule(12, 18), per_point_eps=1e-9)


def _series_atoms_only(e):
    """No generic atom and no exponential side: every atom has a series the
    estimate takes to 1e-9 at s near 1."""
    return not any(isinstance(a, GenAtom)
                   or isinstance(a, DelimAtom) and Exponential in (type(a.lower), type(a.upper))
                   for a in compile_set(e))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_set_exprs, _dsl_exprs))
def test_the_estimate_agrees_with_exact_on_drawn_expressions(e):
    exact = exact_density(e)
    if exact.is_known and not _series_atoms_only(e):
        return
    report = estimate_density(e, AGREE_CFG)
    if exact.is_known:
        assert report.converged
        assert abs(report.extrapolated - exact.as_float()) <= 1e-9
    else:
        # an unknown limit is never passed off as a converged estimate
        assert not report.converged
