"""Spans around the calls into each layer's public functions, for traced runs.

Functions are wrapped at the names their callers look up, so a span covers
exactly one call across a layer boundary.  ``sets.grid_mask`` recurses through
its own module's name, which is left alone, so recursive calls are not
counted twice.  ``sets.normalize`` must be wrapped in ``sets`` itself because
``series.density_at`` imports it at call time; its recursion then meets the
wrapper again, and a call whose innermost open span already has the same name
folds into that span instead of opening another.  ``exact`` imports
``normalize`` at module load, so it is wrapped there too and every
normalisation lands in ``sets.normalize``.

Spans are kept in memory (name, start, end, parent span, job id and a few
counts taken from the call's arguments and result) and written out when the
run ends.  Self time is a span's duration minus that of its child spans; the
wrapped calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Optional

# (module, attribute) pairs: the names callers import.  cli.main,
# estimator.estimate_density and exact.exact_density are the benchmark's own
# entry points into the package.
PATCH_POINTS = (
    ("cli", "main"),
    ("cli", "estimate_density"),
    ("cli", "exact_density"),
    ("cli", "density_at"),
    ("cli", "brute_partial_sum"),
    ("cli", "partial_double_sum"),
    ("cli", "grid_mask"),
    ("cli", "normalize"),
    ("estimator", "estimate_density"),
    ("estimator", "density_at"),
    ("exact", "exact_density"),
    ("exact", "normalize"),
    ("sets", "normalize"),
    ("series", "partial_double_sum"),
    ("series", "grid_mask"),
    ("oracle", "grid_mask"),
    ("dsl", "parse_expression"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _density_at_attrs(args, kwargs, out) -> dict:
    return {"terms": out.terms_used, "tail": out.tail_bound, "method": out.method,
            "eps": _arg(args, kwargs, 2, "eps")}


def _cells(args, kwargs, out) -> dict:
    return {"cells": _arg(args, kwargs, 2, "N") ** 2}


_ATTRS = {
    "series.density_at": _density_at_attrs,
    "series.partial_double_sum": _cells,
    "oracle.brute_partial_sum": _cells,
    "estimator.estimate_density": lambda a, k, out: {"converged": out.converged},
    "exact.exact_density": lambda a, k, out: {"known": out.is_known},
}


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    job: Optional[str]
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the patch points of ``modules`` (short name -> module)."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._patches = []
        for mod_name, attr in PATCH_POINTS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn, self._wrap(fn)))

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(next(self._ids), name, stack[-1].id if stack else None, self.job)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, fn, _ in self._patches:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics; times and counts are per pass over the job list."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / passes

    def self_time(name: str) -> float:
        return sum(s.duration - child_time[s.id] for s in by_name[name]) / passes

    def returned(name: str) -> list[Span]:
        """Spans of calls that returned, so that their counts were taken."""
        return [s for s in by_name[name] if s.attrs]

    points = returned("series.density_at")
    point_time = sum(s.duration for s in points)
    terms = sum(s.attrs["terms"] for s in points)
    estimates = returned("estimator.estimate_density")
    exacts = returned("exact.exact_density")
    return {
        "series.terms_per_point_max": max((s.attrs["terms"] for s in points), default=0),
        "series.terms_per_s": ratio(terms, point_time),
        "series.density_at_s": busy("series.density_at"),
        "series.direct_share": ratio(sum(s.attrs["method"] == "direct" for s in points),
                                     len(points)),
        "series.partial_double_sum_cells":
            sum(s.attrs["cells"] for s in returned("series.partial_double_sum")) / passes,
        "series.closed_form_point_s":
            sum(s.duration for s in points if s.attrs["method"] == "product-closed-form")
            / passes,
        "series.met_ratio": ratio(sum(s.attrs["tail"] <= s.attrs["eps"] for s in points),
                                  len(points)),
        "sets.grid_mask_s": busy("sets.grid_mask"),
        "sets.normalize_s": busy("sets.normalize"),
        "exact.density_s": busy("exact.exact_density"),
        "exact.known_ratio": ratio(sum(s.attrs["known"] for s in exacts), len(exacts)),
        "oracle.brute_s": busy("oracle.brute_partial_sum"),
        "oracle.brute_cells":
            sum(s.attrs["cells"] for s in returned("oracle.brute_partial_sum")) / passes,
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "dsl.parse_s": busy("dsl.parse_expression"),
        "estimator.estimate_s": busy("estimator.estimate_density"),
        "estimator.self_s": self_time("estimator.estimate_density"),
        "estimator.converged_ratio": ratio(sum(s.attrs["converged"] for s in estimates),
                                           len(estimates)),
    }
