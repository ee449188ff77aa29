"""Extrapolation of the density ratio to the limit point s = 1.

The density is a one-sided limit; the engine can only evaluate the ratio at
s > 1, and the cost of a fixed accuracy grows like eps^(-1/(s-1)) for sets
without closed or row-wise forms.  This module evaluates the ratio along a
decreasing schedule of s values and fits a polynomial in (s - 1); the fitted
constant term is the density estimate.

The default schedule stops at s = 1 + 1/128: closer approaches are opt-in
(see ``schedule``) because generic sets exhaust the term budget there.  Fit
weights are 1/max(tail_bound, per_point_eps)^2, so points that could only be
evaluated loosely near s = 1 lose influence instead of poisoning the fit.

Exponential-bound delimited sets approach their limit like (s-1)*log(1/(s-1))
-- the slowest family in the corpus -- so estimates for them should use a
near-limit schedule and a loosened per-point target; see the package README.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exact import DensityValue
from .sets import GaussSetExpr
from .series import DEFAULT_TERM_BUDGET, SeriesEval, density_at

__all__ = [
    "EstimatorConfig",
    "EstimateReport",
    "schedule",
    "estimate_density",
]


def ordered_map(fn: Callable, items: Sequence, workers: int) -> list:
    """fn over items on up to `workers` threads, results in input order, so
    the output does not depend on the worker count."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def schedule(k0: int = 0, k1: int = 6) -> tuple[float, ...]:
    """The s-schedule 1 + 0.5 * 2^(-k) for k = k0..k1 (decreasing in s)."""
    return tuple(1.0 + 0.5 * 2.0 ** (-k) for k in schedule_ks(k0, k1))


def schedule_ks(k0: int, k1: int) -> range:
    """k = k0..k1, or ValueError unless 0 <= k0 <= k1 and every
    s = 1 + 0.5 * 2^-k is above 1.0 in double precision (k <= 51)."""
    if k1 < k0 or k0 < 0:
        raise ValueError(f"need 0 <= k0 <= k1, got {k0}..{k1}")
    if 1.0 + math.ldexp(0.5, -k1) == 1.0:
        raise ValueError(f"s = 1 + 0.5*2^-k rounds to 1.0 from k = 52 on, got {k0}..{k1}")
    return range(k0, k1 + 1)


# a converged report needs fit_residual <= RESIDUAL_FACTOR * per_point_eps
# and |last point - extrapolated| <= DRIFT_TOL
RESIDUAL_FACTOR = 10.0
DRIFT_TOL = 0.05


@dataclass(frozen=True)
class EstimatorConfig:
    s_schedule: tuple[float, ...] = field(default_factory=schedule)
    per_point_eps: float = 1e-6
    fit_degree: int = 2
    term_budget: int = DEFAULT_TERM_BUDGET
    workers: int = 1

    def __post_init__(self):
        sched = tuple(float(s) for s in self.s_schedule)
        object.__setattr__(self, "s_schedule", sched)
        if any(s <= 1.0 for s in sched):
            raise ValueError("schedule values must be > 1")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly decreasing")
        if self.fit_degree < 1:
            raise ValueError("fit_degree must be >= 1")
        if len(sched) < self.fit_degree + 2:
            raise ValueError(
                f"schedule length {len(sched)} < fit_degree + 2 = {self.fit_degree + 2}"
            )
        if not self.per_point_eps > 0:
            raise ValueError("per_point_eps must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class EstimateReport:
    points: tuple[SeriesEval, ...]
    extrapolated: float            # fitted value at s = 1, clamped to [0, 1]
    raw_extrapolated: float        # fitted value before clamping
    clamped: bool
    fit_residual: float            # max |fit - point value|
    drift: float                   # |last point value - extrapolated|
    converged: bool
    budget_limited: bool           # some point missed its per-point target
    exact_reference: Optional[DensityValue] = None

    def to_dict(self) -> dict:
        out = {
            "extrapolated": repr(self.extrapolated),
            "raw_extrapolated": repr(self.raw_extrapolated),
            "clamped": self.clamped,
            "fit_residual": repr(self.fit_residual),
            "drift": repr(self.drift),
            "converged": self.converged,
            "budget_limited": self.budget_limited,
            "points": [p.to_row() for p in self.points],
        }
        if self.exact_reference is not None:
            out["exact_reference"] = self.exact_reference.to_dict()
        return out

    def summary_row(self) -> dict:
        row = {
            "extrapolated": repr(self.extrapolated),
            "fit_residual": repr(self.fit_residual),
            "drift": repr(self.drift),
            "converged": self.converged,
            "clamped": self.clamped,
            "budget_limited": self.budget_limited,
        }
        if self.exact_reference is not None and self.exact_reference.is_known:
            row["exact"] = repr(self.exact_reference.as_float())
        else:
            row["exact"] = ""
        return row


def estimate_density(
    e: GaussSetExpr,
    cfg: EstimatorConfig = EstimatorConfig(),
    exact_reference: Optional[DensityValue] = None,
) -> EstimateReport:
    """Evaluate the ratio along the schedule and extrapolate to s = 1.

    Points that cannot reach the per-point target within the term budget are
    kept (with their honest tail bounds) but down-weighted in the fit and
    flagged; such a report is never marked converged.  Nor is one with a
    point that took a generic meet's operand bracket: each such point is
    bounded, but nothing yet bounds a limit extrapolated from them.
    """

    def point(s: float) -> SeriesEval:
        return density_at(e, s, cfg.per_point_eps, term_budget=cfg.term_budget)

    points = tuple(ordered_map(point, cfg.s_schedule, cfg.workers))

    xs = np.array([p.s - 1.0 for p in points])
    ys = np.array([p.value for p in points])
    weights = np.array([1.0 / max(p.tail_bound, cfg.per_point_eps) for p in points])
    coeffs = np.polyfit(xs, ys, cfg.fit_degree, w=weights)
    fitted = np.poly1d(coeffs)(xs)
    raw = float(coeffs[-1])
    clamped = raw < 0.0 or raw > 1.0
    extrapolated = min(max(raw, 0.0), 1.0)
    fit_residual = float(np.max(np.abs(fitted - ys)))
    drift = abs(points[-1].value - extrapolated)
    budget_limited = any(p.tail_bound > cfg.per_point_eps * 1.0001 for p in points)
    converged = (
        not budget_limited
        and not any(p.method == "bracket" for p in points)
        and fit_residual <= RESIDUAL_FACTOR * cfg.per_point_eps
        and drift <= DRIFT_TOL
    )
    return EstimateReport(
        points=points,
        extrapolated=extrapolated,
        raw_extrapolated=raw,
        clamped=clamped,
        fit_residual=fit_residual,
        drift=drift,
        converged=converged,
        budget_limited=budget_limited,
        exact_reference=exact_reference,
    )
