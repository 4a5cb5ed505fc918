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
result does not depend on the machine's core count.
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
    adjust,
    benchmark,
    grid,
)
from .simulate import SCENARIOS, ScenarioConfig, SimulationReport, config_from_json, run_harness
from .tabular import DataError, RoleSpec, load_csv

__all__ = ["RenderedReport", "render", "main"]

FORMATS = ("markdown", "csv")


@dataclass(frozen=True)
class RenderedReport:
    """A rendered table: ``format`` in {markdown, csv} and the text body."""

    format: str
    body: str


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


def _fmt(value: float | None) -> str:
    if value is None:
        return "undefined"
    return "%.6g" % value


def _table(header: list[str], rows: list[list[str]], fmt: str) -> list[str]:
    if fmt == "csv":
        return [",".join(header)] + [",".join(row) for row in rows]
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(cell or "—" for cell in row) + " |")
    return lines


def _quantity_rows(
    results: list[tuple[str, list[tuple[str, str, str, str, str, str]]]],
    fmt: str,
    with_truth: bool,
) -> str:
    """Shared layout: per-method blocks of (quantity, estimate, interval...)."""
    header = ["quantity", "estimate", "2.5%", "97.5%"]
    if with_truth:
        header += ["truth", "covered"]
    ncol = len(header)
    lines: list[str] = []
    if fmt == "csv":
        lines.append(",".join(["method"] + header))
        for method, rows in results:
            for row in rows:
                lines.append(",".join([method] + list(row[:ncol])))
    else:
        for method, rows in results:
            lines.append(f"## {method}")
            lines.append("")
            lines.extend(_table(header, [list(row[:ncol]) for row in rows], fmt))
            lines.append("")
        if lines:
            lines.pop()
    return "\n".join(lines) + "\n"


def _render_decompositions(results: list[DecompositionResult], fmt: str) -> str:
    blocks = []
    for res in results:
        intervals = res.intervals or {}
        rows = []
        for q in res.QUANTITIES:
            lo, hi = intervals.get(q, (None, None))
            rows.append(
                (
                    q,
                    _fmt(res.quantity(q)),
                    _fmt(lo) if lo is not None else "",
                    _fmt(hi) if hi is not None else "",
                    "",
                    "",
                )
            )
        rows.append(
            ("proportion_explained_pct", _fmt(res.proportion_explained_pct), "", "", "", "")
        )
        blocks.append((res.method, rows))
    return _quantity_rows(blocks, fmt, with_truth=False)


def _render_adjusted(result: AdjustedResult, fmt: str) -> str:
    rows = [
        (q, _fmt(getattr(result, q)), "", "", "", "")
        for q in ("bias", "delta_adjusted", "zeta_adjusted", "tau")
    ]
    return _quantity_rows([("CDA_adjusted", rows)], fmt, with_truth=False)


def _render_grid(result: SensitivityGrid, fmt: str) -> str:
    header = ["r2_yu", "r2_mu", "bias", "delta_adjusted", "zeta_adjusted", "tau"]
    rows = [
        [
            _fmt(cell.params.r2_yu),
            _fmt(cell.params.r2_mu),
            _fmt(cell.bias),
            _fmt(cell.delta_adjusted),
            _fmt(cell.zeta_adjusted),
            _fmt(cell.tau),
        ]
        for cell in result.cells
    ]
    return "\n".join(_table(header, rows, fmt)) + "\n"


def _render_benchmark(records: tuple[CovariateBenchmark, ...], fmt: str) -> str:
    header = ["name", "r2_with_y", "r2_with_m"]
    rows = [[b.name, _fmt(b.r2_with_y), _fmt(b.r2_with_m)] for b in records]
    return "\n".join(_table(header, rows, fmt)) + "\n"


def _render_simulation(report: SimulationReport, fmt: str) -> str:
    blocks = []
    for method in report.methods:
        rows = []
        for quantity in ("initial", "explained", "unexplained"):
            cell = report.cell(method, quantity)
            rows.append(
                (
                    quantity,
                    _fmt(cell.mean),
                    _fmt(cell.lower),
                    _fmt(cell.upper),
                    _fmt(cell.truth),
                    "true" if cell.covered else "false",
                )
            )
        blocks.append((method, rows))
    body = _quantity_rows(blocks, fmt, with_truth=True)
    if fmt == "markdown":
        head = (
            f"# simulate: scenario={report.scenario} n={report.n} "
            f"reps={report.reps} seed={report.seed}\n\n"
        )
        return head + body
    return body


def render(report, fmt: str = "markdown") -> RenderedReport:
    """Render a result object from this package as a markdown or CSV table."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if isinstance(report, DecompositionResult):
        body = _render_decompositions([report], fmt)
    elif isinstance(report, list) and all(isinstance(r, DecompositionResult) for r in report):
        body = _render_decompositions(report, fmt)
    elif isinstance(report, AdjustedResult):
        body = _render_adjusted(report, fmt)
    elif isinstance(report, SensitivityGrid):
        body = _render_grid(report, fmt)
    elif isinstance(report, tuple) and all(isinstance(r, CovariateBenchmark) for r in report):
        body = _render_benchmark(report, fmt)
    elif isinstance(report, SimulationReport):
        body = _render_simulation(report, fmt)
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
        choices=("dic", "kob", "cda", "all"),
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


def _methods_for(flag: str) -> list[str]:
    return list(METHODS) if flag == "all" else [flag.upper()]


def _cda_settings(args: argparse.Namespace, seed: int) -> CdaSettings:
    if args.mc_draws is None:
        return CdaSettings(seed=seed)
    return CdaSettings(mc_draws_per_unit=args.mc_draws, seed=seed)


def _run_decompose(args: argparse.Namespace) -> str:
    methods = _methods_for(args.method)
    if args.mc_draws is not None and "CDA" not in methods:
        raise UsageError(f"--mc-draws applies to the causal method only, not --method {args.method}")
    if args.bootstrap and args.bootstrap < 2:
        raise UsageError(f"bootstrap needs B >= 2 replicates, got {args.bootstrap}")
    seed = _parse_seed(args.seed)
    settings = _cda_settings(args, seed)
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
    settings = _cda_settings(args, _parse_seed(args.seed))
    sign = +1 if args.sign == "+" else -1
    if args.grid is not None:
        yu, mu = _parse_grid_axes(args.grid)
        pairs = [(a, b) for a in yu for b in mu]
    else:
        pairs = [(args.r2_yu, args.r2_mu)]
    try:
        params = [SensitivityParams(r2_yu=a, r2_mu=b, sign=sign) for a, b in pairs]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data = _load_data(args)
    cda = decompose_cda(data, settings)
    if args.grid is not None:
        return render(grid(cda, data, yu, mu, sign), args.format).body
    return render(adjust(cda, data, params[0]), args.format).body


def _run_benchmark(args: argparse.Namespace) -> str:
    return render(benchmark(_load_data(args)), args.format).body


def _run_simulate(args: argparse.Namespace) -> str:
    if (args.scenario is None) == (args.config is None):
        raise UsageError("simulate requires exactly one of --scenario or --config")
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = config_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read --config file: {exc}") from None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        config = ScenarioConfig(scenario=args.scenario)
    overrides = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.n is not None:
        overrides["n"] = args.n
    if args.seed is not None:
        overrides["seed"] = _parse_seed(args.seed)
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    report = run_harness(config, sensitivity=args.sensitivity, workers=args.workers)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        with _one_blas_thread():
            body = _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
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
