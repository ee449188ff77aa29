"""Correctness gate: recorded point values and the corpus check's CSV bytes.

A point value is wrong when it differs from the recorded value of the same
job at the same s by more than the sum of both tail bounds: each bound claims
to contain the true ratio, so two honest evaluations can differ by at most
their sum.  The recorded values live in ``refs/points.json``; the corpus
check's output at one worker lives in ``refs/check.csv``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from common import REFS

POINTS_FILE = REFS / "points.json"
CHECK_FILE = REFS / "check.csv"


def load_points(path: Path = POINTS_FILE) -> dict[str, list[list[float]]]:
    """key -> [[s, value, tail_bound], ...] as recorded."""
    with open(path) as fh:
        return {k: [[float(x) for x in row] for row in rows]
                for k, rows in json.load(fh).items()}


def load_check_csv(path: Path = CHECK_FILE) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def point_rows(points) -> list[list[str]]:
    """SeriesEval points -> the rows stored in ``refs/points.json``."""
    return [[repr(p.s), repr(p.value), repr(p.tail_bound)] for p in points]


def point_failures(key: str, points: Sequence, refs: dict) -> list[str]:
    """Messages for every point of ``key`` that contradicts its recorded value."""
    recorded = refs.get(key)
    if recorded is None:
        return [f"{key}: no recorded point values"]
    if len(recorded) != len(points):
        return [f"{key}: {len(points)} points, {len(recorded)} recorded"]
    out = []
    for p, (s, value, tail) in zip(points, recorded):
        if p.s != s:
            out.append(f"{key}: point at s={p.s!r}, recorded s={s!r}")
        elif abs(p.value - value) > p.tail_bound + tail:
            out.append(f"{key} s={s!r}: value {p.value!r} is off the recorded {value!r} "
                       f"by more than the tail bounds {p.tail_bound!r} + {tail!r}")
    return out


def csv_failure(got: str, want: str) -> Optional[str]:
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"check CSV differs from the reference at character {at}"
