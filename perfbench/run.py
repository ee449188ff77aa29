"""gaussdens benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload near_limit_bands --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Exit status 0 means every output passed the
correctness gate, 1 that some did not, 2 that the run could not start.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common

WORKLOADS = ("corpus_check", "near_limit_bands", "set_algebra")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the monotonic clock when ready, and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    common.import_gaussdens()
    import bench
    import spans

    runner = bench.Runner(args.workload, args.seed)
    runner.warm_up()
    if args.setup_probe:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    info = bench.provenance(args.seed, args.seconds, args.trace)
    common.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        declared = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        tracer = spans.Tracer(bench.MODULES)
        run = bench.traced_run(runner, args.seconds, tracer)
        tracer.write(common.OUT / f"spans-{stem}.jsonl")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in run["layer_metrics"].items()}
    else:
        declared = spec["end_to_end"]
        setup_s, probes = bench.measure_setup(str(Path(__file__).resolve()),
                                              args.workload, args.seed)
        run = bench.timed_run(runner, args.seconds)
        run["metrics"]["setup_s"] = (setup_s, "s")
        run["counts"]["setup_probes_s"] = probes
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["metrics"].items()}

    results = run["results"]
    failures = [msg for r in results for msg in r.failures]
    for msg in failures:
        sys.stderr.write(f"FAIL {msg}\n")
    report = {"workload": args.workload, "provenance": info, "counts": run["counts"],
              "metrics": metrics, "failures": failures,
              "latencies": run.get("latencies", [])}
    with open(common.OUT / f"result-{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']!r:>24} {m['unit']}")
    print("  " + json.dumps({"provenance": info, "counts": run["counts"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failures),
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
