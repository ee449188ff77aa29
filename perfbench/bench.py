"""Runs one workload: set-up, the closed loop, the correctness gate, metrics.

One client, one worker: each job starts when the previous one has finished.
A pass is one run over the workload's fixed job list; a run repeats passes
while another pass (at the median wall time of a pass so far) still fits in
the requested seconds, and always completes at least one.  Untraced runs
report job times rescaled to the host's momentary speed (see ``speed.py``);
traced runs report wall times.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from gaussdens import cli, corpus, dsl, estimator, exact, oracle, series, sets
from gaussdens.estimator import EstimatorConfig, schedule

import gate
import spans
import workloads
from speed import REF_S, Speedometer, Timing, calibrate
from common import ROOT

SETUP_PROBES = 9
TRACE_LIMIT_S = 150.0   # a traced run skips its two-worker pass rather than pass this
MODULES = {"cli": cli, "dsl": dsl, "estimator": estimator, "exact": exact,
           "oracle": oracle, "series": series, "sets": sets}


@dataclass
class JobResult:
    latency: float                                    # wall, or rescaled in timed runs
    wall: float = 0.0
    timing: Optional[Timing] = None
    failures: list[str] = field(default_factory=list)
    points: list = field(default_factory=list)        # (SeriesEval, eps target)
    abs_err: Optional[float] = None
    output: object = None                             # compared across worker counts


class Runner:
    """Holds a workload's inputs and references; runs its jobs."""

    def __init__(self, name: str, seed: int):
        self.meter = Speedometer()
        self.workload = workloads.build(name, seed)
        self.refs = gate.load_points()
        self.band_refs: dict[str, Optional[float]] = {}
        if self.workload.kind == "check":
            self.check_csv = gate.load_check_csv()
            self.corpus_names = {c.expr: c.name for c in corpus.CORPUS}
            self.captured: list = []
            cli.estimate_density = self._capturing(cli.estimate_density)
        elif self.workload.kind == "estimate":
            for job in self.workload.jobs:
                value = exact.exact_density(dsl.parse_expression(job.text))
                self.band_refs[job.key] = value.as_float() if value.is_known else None

    def _capturing(self, fn):
        """Keep each estimate the check makes, to gate and count its points."""

        @functools.wraps(fn)
        def capture(expr, cfg, *args, **kwargs):
            report = fn(expr, cfg, *args, **kwargs)
            self.captured.append((expr, cfg.per_point_eps, report))
            return report

        return capture

    def warm_up(self) -> None:
        """Run the warm-up job, then freeze every object alive so far.

        Frozen objects (the inputs, the recorded references) are never scanned
        by the cyclic garbage collector again, so its collections during the
        jobs cost what they would in a process that holds only the package.
        """
        failures = self.run(self.workload.warmup).failures
        if failures:
            raise RuntimeError(f"warm-up failed: {failures}")
        gc.collect()
        gc.freeze()

    # -- jobs ---------------------------------------------------------------

    def run(self, job: workloads.Job, workers: int = 1) -> JobResult:
        kind = self.workload.kind
        try:
            if kind == "check":
                return self._run_check(workers)
            return self._run_series(job, workers, with_exact=kind == "compare")
        except Exception as exc:  # the benchmark's boundary: count it and go on
            traceback.print_exc(file=sys.stderr)
            return JobResult(0.0, [f"{job.key}: crashed: {type(exc).__name__}: {exc}"])

    def _run_check(self, workers: int) -> JobResult:
        self.captured.clear()
        buf = io.StringIO()
        with self.meter.timing() as t, redirect_stdout(buf):
            rc = cli.main(["check", "--format", "csv", "--workers", str(workers)])
        text = buf.getvalue()
        res = JobResult(t.seconds, t.wall, t, output=text)
        if rc != 0:
            res.failures.append(f"check exited {rc}")
        bad_csv = gate.csv_failure(text, self.check_csv)
        if bad_csv:
            res.failures.append(bad_csv)
        for expr, eps, report in self.captured:
            key = "corpus:" + self.corpus_names[expr]
            res.failures += gate.point_failures(key, report.points, self.refs)
            res.points += [(p, eps) for p in report.points]
        deltas = [float(r["detail"].split("=", 1)[1]) for r in csv.DictReader(io.StringIO(text))
                  if r["check"] == "estimate-agreement"]
        res.abs_err = max(deltas, default=None)
        return res

    def _run_series(self, job: workloads.Job, workers: int, with_exact: bool) -> JobResult:
        cfg = EstimatorConfig(s_schedule=schedule(*job.schedule), per_point_eps=job.eps,
                              workers=workers)
        with self.meter.timing() as t:
            expr = dsl.parse_expression(job.text)
            value = exact.exact_density(expr) if with_exact else None
            report = estimator.estimate_density(expr, cfg)
        points = report.points
        res = JobResult(t.seconds, t.wall, t, points=[(p, job.eps) for p in points],
                        output=(gate.point_rows(points), repr(report.extrapolated)))
        res.failures += gate.point_failures(job.key, points, self.refs)
        reference = job.reference if with_exact else self.band_refs[job.key]
        if value is not None and value.is_known and job.reference is not None:
            same = (value.rational == job.reference if value.kind == "rational"
                    else abs(value.as_float() - float(job.reference)) <= 1e-12)
            if not same:
                res.failures.append(f"{job.key}: exact density {value.as_float()!r}, "
                                    f"independent reference {job.reference}")
        if reference is not None:
            res.abs_err = abs(report.extrapolated - float(reference))
        return res


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _keep_going(start: float, pass_walls: list[float], seconds: float) -> bool:
    return perf_counter() - start + statistics.median(pass_walls) <= seconds


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Nearest-rank percentile with ten samples beyond it (the minimum below 11)."""
    xs = sorted(latencies)
    rank = max(len(xs) - 10, 1)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(runner: Runner, seconds: float) -> dict:
    """Untraced closed loop; returns the end-to-end metrics and gate counts.

    Times are rescaled to the host's speed; the counts keep the wall-time
    medians beside them.
    """
    jobs = runner.workload.jobs
    results: list[JobResult] = []
    pass_walls: list[float] = []
    start = perf_counter()
    runner.meter.start()
    try:
        while True:
            batch = [runner.run(job) for job in jobs]
            results += batch
            pass_walls.append(sum(r.wall for r in batch))
            if not _keep_going(start, pass_walls, seconds):
                break
    finally:
        runner.meter.stop()
    runner.meter.finish()
    for r in results:
        if r.timing is not None:
            r.latency = r.timing.seconds
    passes = [results[i:i + len(jobs)] for i in range(0, len(results), len(jobs))]
    pass_times = [sum(r.latency for r in batch) for batch in passes]
    pass_terms = [sum(p.terms_used for r in batch for p, _ in r.points) for batch in passes]
    latencies = [r.latency for r in results]
    points = [pe for r in results for pe in r.points]
    errors = [r.abs_err for r in results if r.abs_err is not None]
    failed = [r for r in results if r.failures]
    tail, pct, beyond = _tail(latencies)
    return {
        "results": results,
        "latencies": [[job.key, r.latency, r.wall] for job, r in zip(jobs * len(pass_times), results)],
        "metrics": {
            "pass_s": (statistics.median(pass_times), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail, "s"),
            "terms_total": (statistics.median(pass_terms), "count"),
            "unmet_ratio": (spans.ratio(sum(p.tail_bound > eps for p, eps in points),
                                        len(points)), "ratio"),
            "tail_ratio_max": (max((p.tail_bound / eps for p, eps in points), default=0.0),
                               "ratio"),
            "abs_err_max": (max(errors, default=0.0), "density"),
            "failed_ratio": (len(failed) / len(results), "ratio"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        "counts": {"passes": len(pass_times), "jobs_per_pass": len(jobs),
                   "jobs_run": len(results), "series_points": len(points),
                   "job_tail_percentile": pct, "job_tail_samples": len(latencies),
                   "job_tail_beyond": beyond, "rescale_ref_s": REF_S,
                   "wall_pass_s": statistics.median(pass_walls),
                   "wall_job_p50_s": statistics.median(r.wall for r in results)},
    }


def _same_output(a: JobResult, b: JobResult, key: str) -> list[str]:
    return [] if a.output == b.output else [f"{key}: output differs between 1 and 2 workers"]


def traced_run(runner: Runner, seconds: float, tracer: spans.Tracer) -> dict:
    """Per-layer metrics from spans, tracing overhead and two-worker speed-up.

    Each job that is not marked heavy runs untraced and traced, back to back
    and in alternating order; the overhead is the traced over the untraced
    time of those pairs.
    Heavy jobs run traced only, which keeps a traced run within its time limit;
    so does skipping the two-worker pass (speed-up reported as 0) when one more
    pass at one-worker speed would end past ``TRACE_LIMIT_S``.
    """
    jobs = runner.workload.jobs
    results: list[JobResult] = []
    untraced = traced = 0.0
    w1_time = 0.0
    first_pass: list[JobResult] = []
    pass_times: list[float] = []
    start = perf_counter()
    while True:
        pass_time = 0.0
        for idx, job in enumerate(jobs):
            tracer.job = f"{len(pass_times)}:{idx}"
            plain = None
            # alternate which of a pair runs first, so warm-up effects cancel
            if not job.heavy and idx % 2 == 0:
                plain = runner.run(job)
            with tracer.installed():
                res = runner.run(job)
            if not job.heavy and idx % 2 == 1:
                plain = runner.run(job)
            results.append(res)
            pass_time += res.latency
            if plain is not None:
                results.append(plain)
                untraced += plain.latency
                traced += res.latency
                pass_time += plain.latency
            if not pass_times:
                first_pass.append(res)
                w1_time += (plain or res).latency
        pass_times.append(pass_time)
        if not _keep_going(start, pass_times, seconds):
            break
    metrics = spans.layer_metrics(tracer.spans, len(pass_times))
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0 if untraced else 0.0
    check_speedup = est_speedup = 0.0
    if runner.workload.kind == "check":
        w1, w2 = [], []
        phase = perf_counter()
        while len(w2) < 3 or perf_counter() - phase < seconds / 2:
            for workers, times in ((1, w1), (2, w2)):
                res = runner.run(jobs[0], workers)
                res.failures += _same_output(res, first_pass[0], "check")
                results.append(res)
                times.append(res.latency)
        check_speedup = statistics.median(w1) / statistics.median(w2)
    elif perf_counter() - start + w1_time <= TRACE_LIMIT_S:
        w2_time = 0.0
        for job, one in zip(jobs, first_pass):
            res = runner.run(job, workers=2)
            res.failures += _same_output(res, one, job.key)
            results.append(res)
            w2_time += res.latency
        est_speedup = w1_time / w2_time
    metrics["cli.check_workers2_speedup"] = check_speedup
    metrics["estimator.workers2_speedup"] = est_speedup
    return {"results": results, "layer_metrics": metrics,
            "counts": {"passes": len(pass_times), "jobs_per_pass": len(jobs),
                       "jobs_run": len(results), "spans": len(tracer.spans)}}


# ---------------------------------------------------------------------------
# Set-up time and provenance
# ---------------------------------------------------------------------------

def measure_setup(run_py: str, workload: str, seed: int) -> tuple[float, list[float]]:
    """Median time from starting a fresh process to its first job being ready.

    Each probe is this script in ``--setup-probe`` mode: it imports, builds the
    inputs and references, warms up, and prints CLOCK_MONOTONIC, which is
    shared by all processes on the machine.  A probe's time is rescaled to the
    host's speed by calibration loops run just before and just after it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, run_py, "--workload", workload,
                               "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, cwd=ROOT, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        after = calibrate()
        times.append((ready - t0) * REF_S / ((before + after) / 2))
    return statistics.median(times), times


def _git_revision() -> Optional[str]:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, seconds: float, trace: int) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
