"""Brute-force cross-checks, kept deliberately independent of the fast engine.

``brute_partial_sum`` walks the truncation box column by column: it takes
each column section A^m once from the membership procedure
(``sets.sections``) and decides every point of a non-empty column with it.
An empty column adds an exact 0.0, so it is skipped; a full column needs no
test.  Accumulation is plain and sequential: no closed forms, no
Euler-Maclaurin, no compensation.  ``counting_density`` counts lattice points
in a box, the two-dimensional analog of box-counting (natural) density.

The counting ratio is a valid cross-check only for product-like sets, where
the box-counting and series densities agree.  It is NOT a general oracle:
for delimited sets between powers the box-counting ratio tends to a different
limit (1 when the lower exponent is below one), so tests use it only on the
families where agreement holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sets import ALL, EMPTY, GaussSetExpr, grid_mask, sections

__all__ = ["CountReport", "brute_partial_sum", "counting_density"]

_SUM_SCALE_CAP = 10_000
_COUNT_SCALE_CAP = 100_000


@dataclass(frozen=True)
class CountReport:
    N: int
    count: int
    ratio: float


def brute_partial_sum(e: GaussSetExpr, s: float, N: int) -> float:
    """Sum of (mn)^(-s) over the members of e in [1, N]^2, column by column."""
    if not s > 1.0:
        raise ValueError(f"brute_partial_sum requires s > 1, got {s}")
    if not 1 <= N <= _SUM_SCALE_CAP:
        raise ValueError(f"brute_partial_sum is an oracle: need 1 <= N <= {_SUM_SCALE_CAP}")
    col = sections(e)
    total = 0.0
    neg_s = -s
    for m in range(1, N + 1):
        member = col(m)
        if member is EMPTY:
            continue
        row = 0.0
        if member is ALL:
            for n in range(1, N + 1):
                row += float(m * n) ** neg_s
        else:
            for n in range(1, N + 1):
                if member(n):
                    row += float(m * n) ** neg_s
        total += row
    return total


def counting_density(e: GaussSetExpr, N: int) -> CountReport:
    """Exact member count over [1, N]^2 and the box ratio count/N^2."""
    if not 1 <= N <= _COUNT_SCALE_CAP:
        raise ValueError(f"counting_density is an oracle: need 1 <= N <= {_COUNT_SCALE_CAP}")
    chunk = max(1, min(N, 8_000_000 // N))
    count = 0
    for lo in range(1, N + 1, chunk):
        hi = min(lo + chunk - 1, N)
        count += int(np.count_nonzero(grid_mask(e, lo, hi, N)))
    return CountReport(N=N, count=count, ratio=count / (N * N))
