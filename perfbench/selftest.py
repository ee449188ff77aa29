"""Self-tests of the benchmark's correctness gate and references.

    python3 perfbench/selftest.py

A value moved beyond its tail bounds, and a single changed byte of the check
CSV, must each be counted as a failed job.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from fractions import Fraction

import common

common.import_gaussdens()

import bench  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from gaussdens import dsl, estimator  # noqa: E402


def _one_job_runner(name: str, pick) -> bench.Runner:
    runner = bench.Runner(name, seed=0)
    job = next(j for j in runner.workload.jobs if pick(j))
    runner.workload = dataclasses.replace(runner.workload, jobs=(job,))
    return runner


class GateTest(unittest.TestCase):
    def test_recorded_values_pass(self):
        runner = _one_job_runner("set_algebra", lambda j: j.text.startswith("compl("))
        self.assertEqual(runner.run(runner.workload.jobs[0]).failures, [])

    def test_value_beyond_tail_bounds_fails(self):
        runner = _one_job_runner("set_algebra", lambda j: j.text.startswith("compl("))
        job = runner.workload.jobs[0]
        rows = [list(r) for r in runner.refs[job.key]]
        s, value, tail = rows[2]
        res = runner.run(job)
        own_tail = res.points[2][0].tail_bound
        rows[2] = [s, value + 1.01 * (tail + own_tail), tail]
        runner.refs = {**runner.refs, job.key: rows}
        self.assertTrue(runner.run(job).failures)
        rows[2] = [s, value + 0.99 * (tail + own_tail), tail]
        self.assertEqual(runner.run(job).failures, [])
        run = bench.timed_run(runner, seconds=0.0)
        self.assertEqual(run["metrics"]["failed_ratio"][0], 0.0)
        rows[2] = [s, value + 1.01 * (tail + own_tail), tail]
        run = bench.timed_run(runner, seconds=0.0)
        self.assertEqual(run["metrics"]["failed_ratio"][0], 1.0)

    def test_changed_csv_byte_fails(self):
        runner = bench.Runner("corpus_check", seed=0)
        self.assertEqual(runner.run(runner.workload.jobs[0]).failures, [])
        text = runner.check_csv
        at = text.index("pass")
        runner.check_csv = text[:at] + "P" + text[at + 1:]
        self.assertTrue(runner.run(runner.workload.jobs[0]).failures)
        self.assertIsNotNone(gate.csv_failure(text, text[:-1]))

    def test_missing_reference_fails(self):
        self.assertTrue(gate.point_failures("no-such-job", [], {}))


class ReferenceTest(unittest.TestCase):
    def test_cycling_union_density(self):
        for k in (6, 9, 10, 12):
            self.assertEqual(workloads.cycling_union(k, list(range(k))).reference,
                             Fraction(4, 9))

    def test_prime_formula_matches_residue_count(self):
        pairs = [(2, 3), (3, 5), (5, 2)]
        text = workloads._union([f"lattice({p},{q})" for p, q in pairs])
        miss = Fraction(1)
        for p, q in pairs:
            miss *= 1 - Fraction(1, p * q)
        self.assertEqual(workloads.periodic_density(text, (30, 30), (0, 0)), 1 - miss)

    def test_cycling_union_estimates(self):
        # the series engine's extrapolation for k = 6 and 9 sits at 0.43556,
        # 0.0089 below the true 4/9
        for k in (6, 9):
            job = workloads.cycling_union(k, list(range(k)))
            report = estimator.estimate_density(dsl.parse_expression(job.text))
            self.assertAlmostEqual(report.extrapolated, 0.43556, places=5)

    def test_seed_space_is_recorded(self):
        refs = gate.load_points()
        for name in ("near_limit_bands", "set_algebra"):
            for seed in range(20):
                for job in workloads.build(name, seed).jobs:
                    self.assertIn(job.key, refs)

    def test_tail_percentile(self):
        value, pct, beyond = bench._tail([float(i) for i in range(25)])
        self.assertEqual((value, pct, beyond), (14.0, 60.0, 10))


if __name__ == "__main__":
    sys.exit(unittest.main(argv=sys.argv[:1], exit=False).result.wasSuccessful() is False)
