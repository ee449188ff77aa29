"""The benchmark's job lists, generated from a seed.

A seed varies translation offsets, dilation factors, cut corners, the order of
union terms and the order of jobs.  It never varies a band's exponents: the
lower exponent alpha sets the cost class of a delimited band (rows per point
grow steeply as alpha falls), so the heavy bands are fixed and every seed pays
the same work for them.  Every parameter is drawn from a small fixed space, so
``reference_space`` can enumerate every job any seed can produce and the
recorded point values cover all seeds.

Independent references (never taken from either engine) for periodic sets:
the share of one full period of residues, beyond every offset, whose points
are members by ``gaussdens.contains``.  For the union of lattices with
distinct prime moduli the period is too large to enumerate; there the
residue events on different primes are independent (CRT), which gives
1 - prod(1 - 1/(p q)).  Bands take ``exact_density`` as their reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from gaussdens.dsl import parse_expression
from gaussdens.sets import contains

POWER = ((4, 10), 1e-5)        # documented near-limit schedule for power bands
EXPONENTIAL = ((7, 13), 1e-4)  # and for exponential bands
DEFAULT = ((0, 6), 1e-6)       # the estimator's default schedule and target


@dataclass(frozen=True)
class Job:
    key: str                       # names the set independently of term order
    text: str                      # the DSL expression the job parses and runs
    schedule: tuple[int, int]
    eps: float
    reference: Optional[Fraction] = None   # independent density, if known
    heavy: bool = False            # runs traced only (not paired) in trace runs


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "check" | "estimate" | "compare"
    jobs: tuple[Job, ...]
    warmup: Job                    # untimed job run once during set-up


# ---------------------------------------------------------------------------
# near_limit_bands
# ---------------------------------------------------------------------------

CHEAP_BANDS = (
    ("delim(pow(1,1/2),pow(1,2))", POWER),
    ("delim(pow(1,1),pow(1,3))", POWER),
    ("delim(const(1),pow(1,2))", POWER),
    ("delim(pow(2,1/2),pow(3,2))", POWER),
    ("delim(const(1),exp(1,2))", EXPONENTIAL),
    ("delim(exp(1,2),exp(1,3))", EXPONENTIAL),
)
# alpha = 1/3 and 1/4: the delimited-row kernel's cliff.  pow(1/4..4) misses
# its target at s = 1.03125 within the 10^8-row budget (a known defect).
HEAVY_BANDS = (
    "delim(pow(1,1/3),pow(1,3))",
    "delim(pow(1,1/4),pow(1,4))",
)
OFFSETS = tuple((a, b) for a in range(1, 7) for b in range(1, 7))
DILATIONS = ((2, 3), (3, 2))     # one factor pair, so every seed pays the same rows
CORNERS = tuple((a, b) for a in range(2, 8) for b in range(2, 8))
VARIANTS = {"translate": 6, "dilate": 1, "cut": 6}   # per cheap band and pass
# pow(1/2..2) runs once per pass, without variants.  Its rows are memory-bound,
# so its time does not follow the host's speed as the calibration loop (see
# speed.py) measures it, and with variants its 14 jobs of about 25 ms would
# hold the tail job; without them the tail job is one of the exp(1,2..1,3)
# jobs, which the calibration tracks.
NO_VARIANTS = ("delim(pow(1,1/2),pow(1,2))",)


def _band_variants(band: str) -> dict[str, list[str]]:
    return {
        "translate": [f"translate({band},{a},{b})" for a, b in OFFSETS],
        "dilate": [f"dilate({a},{b},{band})" for a, b in DILATIONS],
        "cut": [f"inter({band},upper({a},{b}))" for a, b in CORNERS],
    }


def _band_job(text: str, cfg, heavy: bool = False) -> Job:
    return Job(key=text, text=text, schedule=cfg[0], eps=cfg[1], heavy=heavy)


def near_limit_bands(rng: random.Random) -> Workload:
    jobs = [_band_job(b, POWER, heavy=True) for b in HEAVY_BANDS]
    for band, cfg in CHEAP_BANDS:
        jobs.append(_band_job(band, cfg))
        if band in NO_VARIANTS:
            continue
        for kind, choices in _band_variants(band).items():
            jobs.extend(_band_job(t, cfg) for t in rng.sample(choices, VARIANTS[kind]))
    rng.shuffle(jobs)
    return Workload("near_limit_bands", "estimate", tuple(jobs), _band_job(*CHEAP_BANDS[1]))


# ---------------------------------------------------------------------------
# set_algebra
# ---------------------------------------------------------------------------

CYCLE = ((2, 3), (3, 2), (2, 2), (3, 3))
UNION_SIZES = (3, 6, 9, 10, 12)   # 2^k - 1 raw atoms; k >= 10 exceeds the atom cap
# k = 9 runs in ten term orders per pass.  With the five generic-box jobs
# above them, job_tail_s (ten jobs beyond it) lands in the middle of the k = 9
# unions (511 raw atoms compiled to 31), not on the noisy top of the
# millisecond jobs.
UNION_ORDERS = {9: 10}
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PRIME_ROTATIONS = (1, 2, 3, 4)
# Complements and differences keep fixed moduli, so their cost does not move
# with the seed; the seed picks their offsets.  They are cheap and many, so
# the median and tail job latencies rest on dozens of samples.
COMPLEMENTS = ((2, 3), (3, 4), (4, 5), (3, 2), (4, 3), (5, 4))
DIFFERENCES = ((2, 3), (3, 2), (2, 2), (3, 3), (2, 5), (5, 2))
SET_OFFSETS = tuple((a, b) for a in range(4) for b in range(4))
OFFSETS_PER_SET = 8
GENERIC = (
    "inter(delim(pow(1,1/2),pow(1,2)),lattice(2,2))",
    "inter(delim(const(1),pow(1,2)),delim(pow(1,1/2),pow(1,3)))",
)


def _union(terms: list[str]) -> str:
    text = terms[0]
    for t in terms[1:]:
        text = f"union({text},{t})"
    return text


def _set_job(key: str, text: str, reference: Optional[Fraction]) -> Job:
    return Job(key=key, text=text, schedule=DEFAULT[0], eps=DEFAULT[1], reference=reference)


def cycling_union(k: int, order: list[int]) -> Job:
    """union_i translate(lattice(p_i, q_i), (6i, 6i)), (p, q) cycling through CYCLE."""
    terms = [f"translate(lattice({CYCLE[i % 4][0]},{CYCLE[i % 4][1]}),{6 * i},{6 * i})"
             for i in order]
    text = _union(terms)
    ref = periodic_density(text, (6, 6), (6 * k, 6 * k))
    return _set_job(f"cycling_union_{k}", text, ref)


def prime_union(rotation: int, order: list[int]) -> Job:
    """Ten lattices with distinct prime moduli on each axis: 1023 distinct atoms."""
    pairs = [(PRIMES[i], PRIMES[(i + rotation) % 10]) for i in range(10)]
    text = _union([f"lattice({pairs[i][0]},{pairs[i][1]})" for i in order])
    miss = Fraction(1)
    for p, q in pairs:
        miss *= 1 - Fraction(1, p * q)
    return _set_job(f"prime_union_r{rotation}", text, 1 - miss)


def complement_job(p: int, q: int, a: int, b: int) -> Job:
    text = f"compl(translate(lattice({p},{q}),{a},{b}))"
    return _set_job(text, text, periodic_density(text, (p, q), (a, b)))


def difference_job(p: int, q: int, a: int, b: int) -> Job:
    text = f"diff(lattice({p},{q}),translate(lattice({2 * q},{2 * p}),{a},{b}))"
    period = (math.lcm(p, 2 * q), math.lcm(q, 2 * p))
    return _set_job(text, text, periodic_density(text, period, (a, b)))


def set_algebra(rng: random.Random) -> Workload:
    jobs = []
    for k in UNION_SIZES:
        for _ in range(UNION_ORDERS.get(k, 1)):
            order = list(range(k))
            rng.shuffle(order)
            jobs.append(cycling_union(k, order))
    order = list(range(10))
    rng.shuffle(order)
    jobs.append(prime_union(rng.choice(PRIME_ROTATIONS), order))
    for p, q in COMPLEMENTS:
        jobs.extend(complement_job(p, q, a, b)
                    for a, b in rng.sample(SET_OFFSETS, OFFSETS_PER_SET))
    for p, q in DIFFERENCES:
        jobs.extend(difference_job(p, q, a, b)
                    for a, b in rng.sample(SET_OFFSETS, OFFSETS_PER_SET))
    jobs.extend(_set_job(g, g, None) for g in GENERIC)
    rng.shuffle(jobs)
    return Workload("set_algebra", "compare", tuple(jobs), complement_job(2, 3, 0, 0))


def periodic_density(text: str, period: tuple[int, int], start: tuple[int, int]) -> Fraction:
    """Share of members in one period block lying beyond every offset."""
    expr = parse_expression(text)
    (pm, pn), (m0, n0) = period, start
    count = sum(contains(expr, (m0 + 1 + i, n0 + 1 + j)) for i in range(pm) for j in range(pn))
    return Fraction(count, pm * pn)


# ---------------------------------------------------------------------------
# corpus_check and the registry
# ---------------------------------------------------------------------------

def corpus_check(rng: random.Random) -> Workload:
    """``gaussdens check --format csv``: the built-in corpus has no seed to vary."""
    check = Job("check", "", DEFAULT[0], DEFAULT[1])
    return Workload("corpus_check", "check", (check,), check)


WORKLOADS = {
    "corpus_check": corpus_check,
    "near_limit_bands": near_limit_bands,
    "set_algebra": set_algebra,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))


def reference_space() -> list[Job]:
    """Every estimate or compare job any seed can produce, in canonical order."""
    jobs = [_band_job(b, POWER, heavy=True) for b in HEAVY_BANDS]
    for band, cfg in CHEAP_BANDS:
        jobs.append(_band_job(band, cfg))
        for choices in _band_variants(band).values():
            jobs.extend(_band_job(t, cfg) for t in choices)
    jobs.extend(cycling_union(k, list(range(k))) for k in UNION_SIZES)
    jobs.extend(prime_union(r, list(range(10))) for r in PRIME_ROTATIONS)
    jobs.extend(complement_job(p, q, a, b) for p, q in COMPLEMENTS for a, b in SET_OFFSETS)
    jobs.extend(difference_job(p, q, a, b) for p, q in DIFFERENCES for a, b in SET_OFFSETS)
    jobs.extend(_set_job(g, g, None) for g in GENERIC)
    return jobs
