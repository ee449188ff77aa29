"""Record the outputs the correctness gate compares later commits against.

    python3 perfbench/record_refs.py

Evaluates every job any seed can produce (``workloads.reference_space``) and
runs ``gaussdens check --format csv`` at one worker, then writes
``refs/points.json`` (s, value and tail bound of every series point) and
``refs/check.csv``.  Run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import common


def write_points(points: dict, path) -> None:
    """One job per line, keys sorted, so a re-recording diffs job by job."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(points.items())]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    common.import_gaussdens()
    from gaussdens import cli, corpus, dsl
    from gaussdens.estimator import EstimatorConfig, estimate_density, schedule

    import gate
    import workloads

    points = {}
    for job in workloads.reference_space():
        cfg = EstimatorConfig(s_schedule=schedule(*job.schedule), per_point_eps=job.eps)
        points[job.key] = gate.point_rows(estimate_density(dsl.parse_expression(job.text),
                                                           cfg).points)

    names = {c.expr: c.name for c in corpus.CORPUS}
    captured = []

    def capture(expr, cfg, *args, **kwargs):
        report = estimate_density(expr, cfg, *args, **kwargs)
        captured.append((expr, report))
        return report

    cli.estimate_density = capture
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.main(["check", "--format", "csv"])
    finally:
        cli.estimate_density = estimate_density
    if rc != 0:
        sys.stderr.write(f"check exited {rc}; references not written\n")
        return 1
    for expr, report in captured:
        points["corpus:" + names[expr]] = gate.point_rows(report.points)

    common.REFS.mkdir(exist_ok=True)
    write_points(points, gate.POINTS_FILE)
    with open(gate.CHECK_FILE, "w", newline="") as fh:
        fh.write(buf.getvalue())
    print(f"recorded {len(points)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
