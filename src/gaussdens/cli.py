"""Command-line front end.

Subcommands::

    exact "EXPR"      closed-form density with its derivation trace
    estimate "EXPR"   schedule evaluation + extrapolation report
    compare "EXPR"    both engines and their discrepancy
    sweep "EXPR"      dense (s, value, tail_bound) table for plotting
    oracle "EXPR"     brute-force partial sums / box counts vs the fast engine
    check             invariant suite over the built-in corpus

Exit codes: 0 success, 1 engine error, 2 parse/validation error,
3 non-convergent estimate under --strict.

Each subcommand builds its result once, as a JSON document, CSV rows and a
table text, and one renderer (``_render``) writes the representation that
``--format table|csv|json`` picks (a human table by default) to stdout, or to
a file with ``--out PATH``.  ``sweep``'s table is its CSV, as is ``check``'s
written to a file, and ``estimate``'s CSV is a points/summary pair.  CSV
output is byte-identical across runs and worker counts for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .dsl import ParseError, parse_expression, to_dsl
from .estimator import EstimatorConfig, estimate_density, ordered_map, schedule, schedule_ks
from .exact import exact_density
from .oracle import _SUM_SCALE_CAP, brute_partial_sum, counting_density
from .series import density_at, partial_double_sum
from .sets import ValidationError, grid_mask, normalize

__all__ = ["main"]

_ORACLE_S = (1.25, 1.5, 2.0, 3.0)


def _parse_schedule(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        k0, k1 = int(lo.lstrip("k")), int(hi.lstrip("k"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"schedule must look like 'k0..k6' or '0..6', got {text!r}") from None
    try:
        schedule_ks(k0, k1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return (k0, k1)


def _int_at_least(minimum: int, maximum: Optional[int] = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_ESTIMATES = ("estimate", "compare")
_SERIES = _ESTIMATES + ("sweep",)
_ALL = _SERIES + ("exact", "oracle", "check")

# Every flag once: its name, the subcommands that take it and its argparse
# spec.  The parser and the --config key check both read this table.
_FLAGS = (
    ("--schedule", _SERIES,
     dict(type=_parse_schedule, default=(0, 6), metavar="k0..k6",
          help="s-schedule range: s = 1 + 0.5*2^-k")),
    ("--eps", _SERIES,
     dict(type=_positive_float, default=1e-6, help="per-point tail target (default 1e-6)")),
    ("--budget", _SERIES,
     dict(type=_int_at_least(1), default=10 ** 8, help="term budget per evaluation (default 1e8)")),
    ("--degree", _ESTIMATES,
     dict(type=_int_at_least(1), default=2, help="polynomial degree of the extrapolation fit")),
    ("--workers", _ESTIMATES + ("check",),
     dict(type=_int_at_least(1), default=1, help="parallel evaluations (results are identical)")),
    ("--strict", _ESTIMATES,
     dict(action="store_true", help="exit 3 when the estimate does not converge")),
    ("--points", ("sweep",),
     dict(type=_int_at_least(2), default=25, help="sweep size")),
    ("--N", ("oracle",),
     dict(type=_int_at_least(1, _SUM_SCALE_CAP), default=200,
          help=f"truncation box side (at most {_SUM_SCALE_CAP})")),
    ("--format", _ALL,
     dict(choices=("table", "csv", "json"), default="table")),
    ("--out", _ALL,
     dict(default=None, help="write output to this path")),
    ("--config", _ALL,
     dict(default=None, metavar="PATH", help="key=value file supplying defaults for these flags")),
)


def _config(args) -> EstimatorConfig:
    """The estimator settings of an estimate or compare.  Each field comes from
    a flag, so a combination they reject is a usage error."""
    k0, k1 = args.schedule
    try:
        return EstimatorConfig(
            s_schedule=schedule(k0, k1),
            per_point_eps=args.eps,
            fit_degree=args.degree,
            term_budget=args.budget,
            workers=args.workers,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except BrokenPipeError:
            raise  # a closed reader at --out /dev/stdout exits 1 quietly, as on stdout
        except OSError as exc:
            raise ValidationError(f"cannot write --out: {exc}") from None


def _csv_text(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _render(args, doc, rows, table: Optional[str]) -> None:
    """Write a subcommand's result in the chosen format: ``doc`` as JSON,
    ``rows`` as CSV, or the ``table`` text, which is the CSV where it is None.

    ``estimate`` passes its rows as a (points, summary) pair: two files
    BASE.points.csv and BASE.summary.csv with ``--out``, else points, a blank
    line and summary on stdout.
    """
    if args.out == "":
        raise ValidationError("cannot write --out: the path is empty")
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    elif args.format == "table" and table is not None:
        _emit(table, args.out)
    elif not isinstance(rows, tuple):
        _emit(_csv_text(rows), args.out)
    elif args.out is not None:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        _emit(_csv_text(rows[0]), base + ".points.csv")
        _emit(_csv_text(rows[1]), base + ".summary.csv")
    else:
        _emit(_csv_text(rows[0]) + "\n" + _csv_text(rows[1]), None)


def _cmd_exact(args) -> int:
    expr = parse_expression(args.expression)
    value = exact_density(expr)
    doc = value.to_dict()
    row = {key: doc.get(key, "") for key in ("kind", "value", "numerator", "denominator")}
    row["trace"] = ";".join(value.trace)
    lines = [f"expression: {to_dsl(expr)}"]
    if value.is_known:
        lines.append(f"density   = {value.rational} = {value.as_float()!r}")
    else:
        lines.append("density   = unknown (no closed-form rule applies)")
    if value.trace:
        lines.append("trace     : " + " -> ".join(value.trace))
    _render(args, doc, [row], "\n".join(lines))
    return 0


def _cmd_estimate(args) -> int:
    expr = parse_expression(args.expression)
    report = estimate_density(expr, _config(args), exact_reference=exact_density(expr))
    lines = [f"expression  : {to_dsl(expr)}"]
    for p in report.points:
        lines.append(
            f"  s={p.s:<12.10g} value={p.value:.12g} tail<={p.tail_bound:.3g} "
            f"terms={p.terms_used} [{p.method}]"
        )
    lines.append(f"extrapolated: {report.extrapolated!r}"
                 + (" (clamped)" if report.clamped else ""))
    lines.append(f"fit residual: {report.fit_residual:.3g}   drift: {report.drift:.3g}")
    lines.append(f"converged   : {report.converged}"
                 + ("   [budget-limited]" if report.budget_limited else ""))
    if report.exact_reference.is_known:
        exact = report.exact_reference.as_float()
        lines.append(f"exact ref   : {exact!r}  |delta|={abs(report.extrapolated - exact):.3g}")
    points = [p.to_row() for p in report.points]
    _render(args, report.to_dict(), (points, [report.summary_row()]), "\n".join(lines))
    return 3 if args.strict and not report.converged else 0


def _cmd_compare(args) -> int:
    expr = parse_expression(args.expression)
    cfg = _config(args)
    reference = exact_density(expr)
    report = estimate_density(expr, cfg, exact_reference=reference)
    known = reference.is_known
    exact = reference.as_float() if known else math.nan
    discrepancy = abs(report.extrapolated - exact)
    doc = {"exact": reference.to_dict(), "estimate": report.to_dict()}
    if known:
        doc["discrepancy"] = repr(discrepancy)
    row = {"exact": repr(exact) if known else "",
           "extrapolated": repr(report.extrapolated),
           "discrepancy": repr(discrepancy) if known else "",
           "converged": report.converged}
    lines = [f"expression  : {to_dsl(expr)}",
             f"exact       : {exact!r}  [{' -> '.join(reference.trace)}]" if known
             else "exact       : unknown",
             f"extrapolated: {report.extrapolated!r} (converged={report.converged})"]
    if known:
        lines.append(f"discrepancy : {discrepancy:.6g}")
    _render(args, doc, [row], "\n".join(lines))
    return 3 if args.strict and not report.converged else 0


def _cmd_sweep(args) -> int:
    expr = parse_expression(args.expression)
    k0, k1 = args.schedule
    rows = []
    for j in range(args.points):
        k = k0 + (k1 - k0) * j / (args.points - 1)
        s = 1.0 + 0.5 * 2.0 ** (-k)
        rows.append(density_at(expr, s, args.eps, term_budget=args.budget).to_row())
    _render(args, rows, rows, None)
    return 0


def _cmd_oracle(args) -> int:
    expr = parse_expression(args.expression)
    n = args.N
    rows = []
    lines = [f"expression: {to_dsl(expr)}"]
    for s in _ORACLE_S:
        brute = brute_partial_sum(expr, s, n)
        fast = partial_double_sum(expr, s, n)
        rel = abs(brute - fast) / max(abs(brute), 1e-300)
        row = {"check": "partial_sum", "s": repr(s), "N": n, "oracle": repr(brute),
               "engine": repr(fast), "rel_diff": repr(rel)}
        rows.append(row)
        lines.append(f"  s={row['s']:<6} N={n} oracle={row['oracle']} "
                     f"engine={row['engine']} rel_diff={row['rel_diff']}")
    count = counting_density(expr, n)
    rows.append({"check": "counting", "s": "", "N": n, "oracle": repr(count.ratio),
                 "engine": "", "rel_diff": ""})
    lines.append(f"  box count ratio at N={n}: {count.ratio!r}")
    _render(args, rows, rows, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# check: corpus invariant suite
# ---------------------------------------------------------------------------

def _check_entry(item) -> list[dict]:
    entry, args = item
    expr = entry.expr
    rows: list[dict] = []

    def record(check: str, ok: bool, detail: str = "") -> None:
        rows.append({"check": check, "subject": entry.name,
                     "status": "pass" if ok else "FAIL", "detail": detail})

    # membership is preserved by normalisation on a 64x64 window
    mask_raw = grid_mask(expr, 1, 64, 64)
    mask_norm = grid_mask(normalize(expr), 1, 64, 64)
    record("normalize-membership", bool((mask_raw == mask_norm).all()))

    # exact engine agrees with the recorded corpus density
    value = exact_density(expr)
    if entry.density is None:
        record("exact-density", not value.is_known, value.kind)
    else:
        record("exact-density", value.is_known and value.rational == Fraction(entry.density),
               f"exact={value.rational if value.is_known else 'unknown'}")

    # brute force equals the fast partial sum at a small box
    brute = brute_partial_sum(expr, 1.5, 120)
    fast = partial_double_sum(expr, 1.5, 120)
    rel = abs(brute - fast) / max(abs(brute), 1e-300)
    record("oracle-equivalence", rel <= 1e-12, f"rel={rel!r}")

    # extrapolation matches the exact value
    if "estimate" in entry.tags and entry.density is not None:
        if "near" in entry.tags:
            cfg = EstimatorConfig(s_schedule=schedule(4, 10), per_point_eps=1e-5,
                                  workers=args.workers)
            tol = 2e-2
        else:
            cfg = EstimatorConfig(workers=args.workers)
            tol = 5e-3
        report = estimate_density(expr, cfg)
        delta = abs(report.extrapolated - float(entry.density))
        record("estimate-agreement", delta <= tol, f"delta={delta!r}")
    return rows


def _cmd_check(args) -> int:
    entries = [(c, args) for c in corpus_mod.CORPUS]
    rows = [row for group in ordered_map(_check_entry, entries, args.workers) for row in group]
    failed = sum(1 for r in rows if r["status"] != "pass")
    lines = [f"{r['status']:>4}  {r['check']:<22} {r['subject']:<24} {r['detail']}" for r in rows]
    lines.append(f"{len(rows) - failed}/{len(rows)} checks passed")
    # written to a file, the table is the CSV
    _render(args, rows, rows, "\n".join(lines) if args.out is None else None)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "exact": (_cmd_exact, "closed-form density"),
    "estimate": (_cmd_estimate, "extrapolated density"),
    "compare": (_cmd_compare, "exact vs estimate"),
    "sweep": (_cmd_sweep, "dense s-sweep table"),
    "oracle": (_cmd_oracle, "brute-force cross-checks"),
    "check": (_cmd_check, "corpus invariant suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdens",
        description="Densities of Gaussian-integer sets in the open first quadrant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command != "check":
            p.add_argument("expression", help="set expression in the DSL")
        for flag, commands, spec in _FLAGS:
            if command in commands:
                p.add_argument(flag, **spec)
    return parser


def _load_config_tokens(path: str, command: str) -> list[str]:
    """key=value lines -> flag tokens for the command's own flags."""
    flags = {flag[2:]: spec for flag, commands, spec in _FLAGS
             if command in commands and flag != "--config"}
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in flags:
                raise ValidationError(f"{path}:{lineno}: unknown option {key!r} for {command}")
            if flags[key].get("action") != "store_true":
                tokens.extend([f"--{key}", value])
            elif value.lower() in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """argv with --config PATH (anywhere, or --config=PATH) replaced by the
    file's flags, right after the subcommand so explicit flags beat them."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    if not rest:
        raise ValidationError("--config requires a subcommand")
    return rest[:1] + _load_config_tokens(known.config, rest[0]) + rest[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        raw = _apply_config(raw)
    except (argparse.ArgumentError, ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    args = _build_parser().parse_args(raw)
    try:
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit 1, quietly, and point stdout at the
        # null device so the flush at exit has nowhere to fail
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 1
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:    # every other failure is the engine's: one line, no traceback
        sys.stderr.write(f"engine error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
