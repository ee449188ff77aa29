"""Densities of Gaussian-integer sets in the open first quadrant.

The density of a set A of pairs (m, n) with m, n >= 1 is the limit, as s
decreases to 1, of the double Dirichlet series over A of (mn)^(-s) divided
by zeta(s)^2.  The package computes it two ways: a closed-form calculus over
a symbolic set language (:mod:`gaussdens.exact`) and a numerical engine that
evaluates the ratio at s > 1 with rigorous tail bounds and extrapolates to
the limit (:mod:`gaussdens.series`, :mod:`gaussdens.estimator`), with
brute-force oracles (:mod:`gaussdens.oracle`) cross-checking both.
"""

from .dsl import ParseError, parse_expression, to_dsl
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    estimate_density,
    schedule,
)
from .exact import DensityValue, axis_section_finite, exact_density, exact_density_1d
from .oracle import CountReport, brute_partial_sum, counting_density
from .series import (
    SeriesEval,
    density_at,
    partial_double_sum,
    zeta,
)
from .sets import (
    BoundFn,
    Complement,
    Constant,
    Delimited,
    Difference,
    Dilate,
    Empty,
    Exponential,
    FiniteSet,
    FinitePairs,
    FullP,
    FullQuadrant,
    GaussSetExpr,
    IntComplement,
    IntIntersection,
    IntSetExpr,
    IntUnion,
    Intersection,
    Lattice,
    Multiples,
    Power,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    ValidationError,
    contains,
    normalize,
    predicate,
)

__version__ = "0.1.0"
