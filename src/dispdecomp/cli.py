"""Command-line surface: decomposition, sensitivity, benchmarking, simulation.

Subcommands:

    decompose    decompose a CSV dataset with one or all methods
    sensitivity  bias-adjust the causal decomposition for a hypothesized
                 unmeasured confounder (point parameters or a grid)
    benchmark    observed covariate strengths for calibrating sensitivity
                 parameters
    simulate     replicate a synthetic scenario against analytic truths

Exit codes: 0 success, 1 usage error, 2 data or estimation error. Tables
go to standard output (markdown by default, CSV with --format csv); all
diagnostics go to standard error. Output is deterministic given flags and
seeds; randomness is opt-in via ``--seed random``. Every command runs with
the OpenBLAS builds that numpy and scipy bundle held to one thread, so a
result does not depend on the machine's core count. Fits call scipy's own
LAPACK wrappers (scipy.linalg.lapack's dgeqp3, dorgqr and dtrtrs), with
scipy.linalg's bits. They are loaded from their file, so a command imports
numpy but not scipy's package, except where that file does not load on its
own.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from .decompose import (
    _ESTIMATORS,
    _bootstrap,
    METHODS,
    CdaSettings,
    DecompositionResult,
    decompose_cda,
)
from .regress import EstimationError, _one_blas_thread
from .sensitivity import (
    AdjustedResult,
    CovariateBenchmark,
    SensitivityGrid,
    SensitivityParams,
    benchmark,
    grid,
)
from .simulate import SCENARIOS, ScenarioConfig, SimulationReport, config_from_json, run_harness
from .tabular import DataError, RoleSpec, _not_utf8, load_csv

__all__ = ["RenderedReport", "render", "main"]

FORMATS = ("markdown", "csv")
QUANTITY_HEADER = ["quantity", "estimate", "2.5%", "97.5%"]
ADJUSTED_FIELDS = ("bias", "delta_adjusted", "zeta_adjusted", "tau")


@dataclass(frozen=True)
class RenderedReport:
    """A rendered table: ``format`` in {markdown, csv} and the text body."""

    format: str
    body: str


class UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 1, like any other ValueError."""


def _fmt(value: float | None) -> str:
    if value is None:
        return "undefined"
    return "%.6g" % value


def _table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    lines = [header, ["---"] * len(header), *([cell or "—" for cell in row] for row in rows)]
    return "".join("| " + " | ".join(line) + " |\n" for line in lines)


def _method_blocks(header: list[str], blocks: list[tuple[str, list[list[str]]]], fmt: str) -> str:
    """Per-method tables: one markdown section per method, or one CSV with a method column."""
    if fmt == "csv":
        return _table(["method", *header], [[method, *row] for method, rows in blocks for row in rows], fmt)
    sections = [f"## {method}\n\n" + _table(header, rows, fmt) for method, rows in blocks]
    return "\n".join(sections) or "\n"  # no blocks: one empty line


def render(report, fmt: str = "markdown") -> RenderedReport:
    """Render a result object from this package as a markdown or CSV table."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if isinstance(report, DecompositionResult):
        report = [report]
    if isinstance(report, list) and all(isinstance(r, DecompositionResult) for r in report):
        blocks = []
        for res in report:
            intervals = res.intervals or {}
            rows = [
                [q, _fmt(res.quantity(q)), *(map(_fmt, intervals[q]) if q in intervals else ("", ""))]
                for q in res.QUANTITIES
            ]
            rows.append(["proportion_explained_pct", _fmt(res.proportion_explained_pct), "", ""])
            blocks.append((res.method, rows))
        body = _method_blocks(QUANTITY_HEADER, blocks, fmt)
    elif isinstance(report, AdjustedResult):
        rows = [[q, _fmt(getattr(report, q)), "", ""] for q in ADJUSTED_FIELDS]
        body = _method_blocks(QUANTITY_HEADER, [("CDA_adjusted", rows)], fmt)
    elif isinstance(report, SensitivityGrid):
        rows = [
            [_fmt(v) for v in (c.params.r2_yu, c.params.r2_mu, *(getattr(c, q) for q in ADJUSTED_FIELDS))]
            for c in report.cells
        ]
        body = _table(["r2_yu", "r2_mu", *ADJUSTED_FIELDS], rows, fmt)
    elif isinstance(report, tuple) and all(isinstance(r, CovariateBenchmark) for r in report):
        rows = [[b.name, _fmt(b.r2_with_y), _fmt(b.r2_with_m)] for b in report]
        body = _table(["name", "r2_with_y", "r2_with_m"], rows, fmt)
    elif isinstance(report, SimulationReport):
        blocks = []
        for method in report.methods:
            cells = [report.cell(method, q) for q in DecompositionResult.QUANTITIES]
            rows = [
                [c.quantity, *map(_fmt, (c.mean, c.lower, c.upper, c.truth)), "true" if c.covered else "false"]
                for c in cells
            ]
            blocks.append((method, rows))
        body = _method_blocks([*QUANTITY_HEADER, "truth", "covered"], blocks, fmt)
        if fmt == "markdown":
            body = (
                f"# simulate: scenario={report.scenario} n={report.n} "
                f"reps={report.reps} seed={report.seed}\n\n" + body
            )
    else:
        raise ValueError(f"cannot render object of type {type(report).__name__}")
    return RenderedReport(format=fmt, body=body)


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_seed(text: str) -> int:
    if text == "random":
        seed = int.from_bytes(os.urandom(8), "little")
        print(f"seed: {seed}", file=sys.stderr)
        return seed
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--seed expects an integer or 'random', got {text!r}") from None


def _parse_grid_axes(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    parts = text.split(";")
    if len(parts) != 2:
        raise UsageError(
            f"--grid expects 'v1,v2,...;w1,w2,...' (two axes separated by ';'), got {text!r}"
        )
    try:
        yu = tuple(float(v) for v in parts[0].split(",") if v.strip())
        mu = tuple(float(v) for v in parts[1].split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"--grid has a non-numeric value: {exc}") from None
    if not yu or not mu:
        raise UsageError(f"--grid needs at least one value on each axis, got {text!r}")
    return yu, mu


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="CSV file with a header row")
    sub.add_argument("--group", required=True, help="0/1 group indicator column")
    sub.add_argument("--outcome", required=True, help="outcome column")
    sub.add_argument("--mediator", required=True, help="mediator column")
    sub.add_argument(
        "--baseline", default="", help="comma-separated baseline covariate columns"
    )
    sub.add_argument(
        "--intermediate",
        default="",
        help="comma-separated intermediate covariate columns",
    )
    sub.add_argument("--format", choices=FORMATS, default="markdown")


def _add_cda_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mc-draws",
        type=int,
        default=None,
        help="Monte-Carlo draws per unit for the causal method "
        "(default: none, the exact expectation)",
    )
    sub.add_argument("--seed", default="0", help="integer seed or 'random' (default: 0)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dispdecomp", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="decompose a disparity in a CSV dataset")
    _add_data_flags(p)
    p.add_argument(
        "--method",
        choices=(*(m.lower() for m in METHODS), "all"),
        default="all",
        help="decomposition method (default: all)",
    )
    _add_cda_flags(p)
    p.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="B",
        help="attach percentile intervals from B within-group resamples",
    )

    p = subs.add_parser(
        "sensitivity", help="bias-adjust the causal decomposition for a confounder"
    )
    _add_data_flags(p)
    _add_cda_flags(p)
    p.add_argument("--r2-yu", type=float, default=None, help="confounder-outcome partial R^2")
    p.add_argument("--r2-mu", type=float, default=None, help="confounder-mediator partial R^2")
    p.add_argument("--sign", choices=("+", "-"), default="+", help="bias direction (default: +)")
    p.add_argument(
        "--grid",
        default=None,
        help="grid of parameter pairs as 'v1,v2,...;w1,w2,...' (outcome axis; mediator axis)",
    )

    p = subs.add_parser("benchmark", help="observed covariate strengths")
    _add_data_flags(p)

    p = subs.add_parser("simulate", help="replicate a synthetic scenario")
    p.add_argument("--scenario", choices=SCENARIOS, default=None)
    p.add_argument("--config", default=None, help="JSON scenario config file")
    p.add_argument("--reps", type=int, default=None, help="replications (default: 200)")
    p.add_argument("--n", type=int, default=None, help="sample size (default: 2000)")
    p.add_argument("--seed", default=None, help="integer seed or 'random' (default: 0)")
    p.add_argument("--format", choices=FORMATS, default="markdown")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="kept for compatibility; replications always run one after another (default: 1)",
    )
    p.add_argument(
        "--sensitivity",
        action="store_true",
        help="also run the oracle-parameter bias adjustment per replication",
    )
    return parser


def _load_data(args: argparse.Namespace):
    roles = RoleSpec(
        group=args.group,
        outcome=args.outcome,
        mediator=args.mediator,
        baseline=_comma_list(args.baseline),
        intermediate=_comma_list(args.intermediate),
    )
    return load_csv(args.data, roles)


def _run_decompose(args: argparse.Namespace) -> str:
    methods = list(METHODS) if args.method == "all" else [args.method.upper()]
    if args.mc_draws is not None and "CDA" not in methods:
        raise UsageError(f"--mc-draws applies to the causal method only, not --method {args.method}")
    if args.bootstrap and args.bootstrap < 2:
        raise UsageError(f"bootstrap needs B >= 2 replicates, got {args.bootstrap}")
    seed = _parse_seed(args.seed)
    settings = CdaSettings(args.mc_draws or 0, seed)
    data = _load_data(args)
    if args.bootstrap:
        results = _bootstrap(data, methods, settings, B=args.bootstrap, seed=seed)
    else:
        results = [_ESTIMATORS[method](data, settings) for method in methods]
    return render(results, args.format).body


def _run_sensitivity(args: argparse.Namespace) -> str:
    point = args.r2_yu is not None or args.r2_mu is not None
    if args.grid is not None and point:
        offender = "--r2-yu" if args.r2_yu is not None else "--r2-mu"
        raise UsageError(f"--grid conflicts with point parameter {offender}")
    if args.grid is None and (args.r2_yu is None or args.r2_mu is None):
        raise UsageError("sensitivity requires --r2-yu and --r2-mu together, or --grid")
    settings = CdaSettings(args.mc_draws or 0, _parse_seed(args.seed))
    sign = +1 if args.sign == "+" else -1
    yu, mu = ((args.r2_yu,), (args.r2_mu,)) if point else _parse_grid_axes(args.grid)
    for a in yu:
        for b in mu:
            SensitivityParams(r2_yu=a, r2_mu=b, sign=sign)  # flag errors come before the read
    data = _load_data(args)
    result = grid(decompose_cda(data, settings), data, yu, mu, sign)
    return render(result.cells[0] if point else result, args.format).body


def _run_benchmark(args: argparse.Namespace) -> str:
    return render(benchmark(_load_data(args)), args.format).body


def _run_simulate(args: argparse.Namespace) -> str:
    if (args.scenario is None) == (args.config is None):
        raise UsageError("simulate requires exactly one of --scenario or --config")
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --config file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read --config file {args.config!r}: {_not_utf8(exc)}") from None
        config = config_from_json(text)
    else:
        config = ScenarioConfig(scenario=args.scenario)
    overrides = {k: v for k, v in (("reps", args.reps), ("n", args.n)) if v is not None}
    if args.seed is not None:
        overrides["seed"] = _parse_seed(args.seed)
    report = run_harness(replace(config, **overrides), sensitivity=args.sensitivity, workers=args.workers)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return render(report, args.format).body


_RUNNERS = {
    "decompose": _run_decompose,
    "sensitivity": _run_sensitivity,
    "benchmark": _run_benchmark,
    "simulate": _run_simulate,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _build_parser().parse_args(argv)
        with _one_blas_thread():
            body = _RUNNERS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (DataError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
