"""Checks of the paper's lemmas, used only by the tests.

``zeta_limit_check`` samples the zeta limit lemma along a schedule, and
``theta_invariance_check`` estimates two delimited sets whose upper bounds
differ only in their coefficient, whose limit densities must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from gaussdens.estimator import EstimateReport, EstimatorConfig, estimate_density
from gaussdens.series import zeta
from gaussdens.sets import BoundFn, Constant, Delimited


def zeta_limit_check(alpha: float, s_schedule: Sequence[float]) -> list[tuple[float, float]]:
    """zeta((alpha+1)s - alpha) * (s-1) along the schedule.

    As s decreases to 1 the values approach 1/(1+alpha).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    out = []
    for s in s_schedule:
        if not s > 1.0:
            raise ValueError(f"schedule values must be > 1, got {s}")
        t = 1.0 + (alpha + 1.0) * (s - 1.0)
        out.append((float(s), zeta(t) * (s - 1.0)))
    return out


@dataclass(frozen=True)
class ThetaReport:
    """Coefficient-invariance check for delimited sets.

    The limit density only sees the growth class of the bounds, not their
    constants; the pre-limit values legitimately differ, so agreement is
    asserted on the extrapolated values within the combined tolerance.
    """

    report_low: EstimateReport
    report_high: EstimateReport
    delta: float
    tolerance: float

    @property
    def agree(self) -> bool:
        return self.delta <= self.tolerance


def _estimate_tolerance(report: EstimateReport, floor: float = 5e-3) -> float:
    return max(floor, 3.0 * report.fit_residual)


def theta_invariance_check(
    upper_shape: BoundFn,
    c1,
    c2,
    cfg: EstimatorConfig = EstimatorConfig(),
    lower: BoundFn = Constant(1),
) -> ThetaReport:
    """Estimate the delimited sets built from c1/c2 times the upper shape
    (a Power or an Exponential)."""
    lo = Delimited(lower, replace(upper_shape, c=c1))
    hi = Delimited(lower, replace(upper_shape, c=c2))
    rep1 = estimate_density(lo, cfg)
    rep2 = estimate_density(hi, cfg)
    delta = abs(rep1.extrapolated - rep2.extrapolated)
    tol = _estimate_tolerance(rep1) + _estimate_tolerance(rep2)
    return ThetaReport(rep1, rep2, delta, tol)
