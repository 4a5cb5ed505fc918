"""The benchmark's workloads: generated inputs, operations, output checks.

Every workload drives dispdecomp from outside, through the public
``run_harness``/``render`` or through ``dispdecomp.cli.main`` with stdout
captured. Functions are looked up on their module at call time, so the
wrappers that ``traced`` installs see every call. Inputs are generated here
from the workload seed with the benchmark's own copy of the default SEM;
the program only ever sees the generated data.

Import this module only after ``<checkout>/src`` is on ``sys.path``.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import os
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Iterator

import numpy as np

from dispdecomp import cli, decompose, regress, simulate, tabular
from spans import NameTotals, Span, Tracer, totals_by_name

# ---------------------------------------------------------------------------
# Generated inputs


def sem_table(scenario: str, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Columns R, C, X1..X3, M, Y from the default linear SEM.

    Mirrors the coefficients documented in dispdecomp.simulate; "both"
    loads the unmeasured confounder on X, M and Y (0.5 each) and leaves it
    out of the table, "cx" has no confounder.
    """
    if scenario not in ("cx", "both"):
        raise ValueError(f"no generator for scenario {scenario!r}")
    lam = 0.5 if scenario == "both" else 0.0
    r = (rng.random(n) < 0.5).astype(np.float64)
    c = 1.0 - 0.5 * r + rng.standard_normal(n)
    u = rng.standard_normal(n)
    xs = [0.4 * r + 0.2 * c + lam * u + rng.standard_normal(n) for _ in range(3)]
    sum_x = xs[0] + xs[1] + xs[2]
    m = 1.0 - 0.6 * r + 0.1 * c + 0.2 * sum_x + lam * u + rng.standard_normal(n)
    y = 0.5 * r + 0.3 * c + 0.25 * sum_x + 0.4 * m + lam * u + rng.standard_normal(n)
    return {"R": r, "C": c, "X1": xs[0], "X2": xs[1], "X3": xs[2], "M": m, "Y": y}


ROLE_FLAGS = (
    "--group", "R", "--outcome", "Y", "--mediator", "M",
    "--baseline", "C", "--intermediate", "X1,X2,X3",
)

def input_csv(work_dir: Path, workload: str, scenario: str, n: int, seed: int) -> Path:
    """Path of the workload's CSV for this seed, written on first use.

    Writing it deletes the workload's files for other seeds, so that a series
    of seeded runs does not fill the disk with 24 MB tables.
    """
    folder = work_dir / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-seed{seed}.csv"
    if path.exists():
        return path
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    columns = sem_table(scenario, n, rng)
    names = list(columns)
    rows = zip(*(columns[k].tolist() for k in names))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    os.replace(tmp, path)
    for stale in folder.glob(f"{workload}-seed*.csv"):
        if stale != path:
            stale.unlink()
    return path


# ---------------------------------------------------------------------------
# Operations and their outputs


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Failed:
    """An operation that raised one of the package's estimation errors."""

    error: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Iteration:
    """Outputs of one iteration with each operation's wall and CPU seconds."""

    outputs: list[Any]
    wall_s: list[float]
    cpu_s: list[float]


def run_ops(ops: list[Callable[[], Any]]) -> Iteration:
    """One iteration: every operation in order, each after the previous returns."""
    it = Iteration([], [], [])
    for op in ops:
        c0 = process_time()
        t0 = perf_counter()
        try:
            out = op()
        except (regress.EstimationError, tabular.DataError) as exc:
            out = Failed(f"{type(exc).__name__}: {exc}")
        it.wall_s.append(perf_counter() - t0)
        it.cpu_s.append(process_time() - c0)
        it.outputs.append(out)
    return it


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _cli_problems(result: Any, reference: Any) -> list[str]:
    """Exit status and byte-identity problems shared by the CLI workloads."""
    if isinstance(result, Failed):
        return [result.error]
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()}"]
    if reference is not None and result.stdout != reference.stdout:
        return ["stdout differs from the first iteration"]
    return []


# ---------------------------------------------------------------------------
# Workloads


class SimSuite:
    """All 7 scenarios x 200 reps x n=2000, sensitivity on the confounded ones."""

    name = "sim-suite"
    SENSITIVITY = ("xm-conf", "my-conf", "both")
    # Scenarios whose DIC/KOB/CDA estimates are unbiased for the oracle truth.
    UNCONFOUNDED = ("none", "c-only", "x-only", "cx")
    MCSE_LIMIT = 4.0
    IDENTITY_TOL = 1e-9

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.configs = [simulate.ScenarioConfig(s, seed=seed) for s in simulate.SCENARIOS]
        self.items = sum(c.reps for c in self.configs)

    def ops(self) -> list[Callable[[], Any]]:
        return [partial(self._run, config) for config in self.configs]

    def _run(self, config: simulate.ScenarioConfig) -> tuple[Any, str]:
        report = simulate.run_harness(config, sensitivity=config.scenario in self.SENSITIVITY)
        return report, cli.render(report, "csv").body

    def check(self, outputs: list[Any], reference: list[Any] | None) -> list[tuple[int, str]]:
        problems = []
        for i, out in enumerate(outputs):
            if isinstance(out, Failed):
                problems.append((i, out.error))
                continue
            report, body = out
            problems += [(i, p) for p in self.report_problems(report)]
            if reference is not None and body != reference[i][1]:
                problems.append((i, "rendered CSV differs from the first iteration"))
        return problems

    @classmethod
    def report_problems(cls, report: Any) -> list[str]:
        """Truth coverage within MCSE_LIMIT x MCSE and the per-replicate identity."""
        problems = []
        for method in report.methods:
            per_q = [np.asarray(report.cell(method, q).estimates) for q in decompose.DecompositionResult.QUANTITIES]
            initial, explained, unexplained = per_q
            if not all(v.size == report.reps for v in per_q):
                problems.append(f"{report.scenario} {method}: expected {report.reps} estimates")
                continue
            gap = np.abs(explained + unexplained - initial)
            bad = np.nonzero(gap > cls.IDENTITY_TOL * np.maximum(1.0, np.abs(initial)))[0]
            if bad.size:
                problems.append(
                    f"{report.scenario} {method}: explained + unexplained != initial "
                    f"in replication {int(bad[0])} (off by {gap[bad[0]]:.3g})"
                )
            if report.scenario not in cls.UNCONFOUNDED or method not in simulate.HARNESS_METHODS:
                continue
            for q in decompose.DecompositionResult.QUANTITIES:
                cell = report.cell(method, q)
                if not abs(cell.mean - cell.truth) <= cls.MCSE_LIMIT * cell.mc_standard_error:
                    problems.append(
                        f"{report.scenario} {method} {q}: mean {cell.mean:.6g} is more than "
                        f"{cls.MCSE_LIMIT:g} MCSE ({cell.mc_standard_error:.3g}) from truth {cell.truth:.6g}"
                    )
        return problems


class Bootstrap:
    """decompose --method all --bootstrap 500 on an n=2000 'both' CSV."""

    name = "bootstrap"
    N = 2000
    B = 500

    def __init__(self, seed: int, work_dir: Path) -> None:
        path = input_csv(work_dir, self.name, "both", self.N, seed)
        self.point_argv = [
            "decompose", "--data", str(path), *ROLE_FLAGS,
            "--method", "all", "--seed", "7", "--format", "csv",
        ]
        self.argv = self.point_argv + ["--bootstrap", str(self.B)]
        self.items = len(decompose.METHODS) * self.B
        self._point: CliResult | None = None

    def ops(self) -> list[Callable[[], Any]]:
        return [partial(run_cli, self.argv)]

    def check(self, outputs: list[Any], reference: list[Any] | None) -> list[tuple[int, str]]:
        result = outputs[0]
        problems = _cli_problems(result, reference[0] if reference else None)
        if not problems:
            if self._point is None:
                self._point = run_cli(self.point_argv)
            problems = self.interval_problems(result.stdout, self._point.stdout)
        return [(0, p) for p in problems]

    @staticmethod
    def interval_problems(stdout: str, point_stdout: str) -> list[str]:
        """Estimates equal the run without --bootstrap; every lower <= upper."""
        rows = _csv_rows(stdout)[1:]
        point = _csv_rows(point_stdout)[1:]
        if [r[:3] for r in rows] != [r[:3] for r in point]:
            return ["estimates differ from the same command without --bootstrap"]
        problems = []
        for method, quantity, _, lower, upper in rows:
            if quantity in decompose.DecompositionResult.QUANTITIES and not float(lower) <= float(upper):
                problems.append(f"{method} {quantity}: interval [{lower}, {upper}] is inverted")
        if len(rows) != 4 * len(decompose.METHODS):
            problems.append(f"expected {4 * len(decompose.METHODS)} rows, found {len(rows)}")
        return problems


class LargeN:
    """An analyst session on an n=2e5 'cx' CSV: decompose, sensitivity grid, benchmark."""

    name = "large-n"
    N = 200_000
    GRID = "0.05,0.1,0.2;0.1,0.3"
    TRUTH_TOL = 0.05

    def __init__(self, seed: int, work_dir: Path) -> None:
        path = str(input_csv(work_dir, self.name, "cx", self.N, seed))
        data = ["--data", path, *ROLE_FLAGS, "--format", "csv"]
        self.commands = [
            ["decompose", *data, "--method", "all"],
            ["sensitivity", *data, "--grid", self.GRID],
            ["benchmark", *data],
        ]
        self.items = self.N * len(self.commands)
        self._truths: Any = None

    def ops(self) -> list[Callable[[], Any]]:
        return [partial(run_cli, argv) for argv in self.commands]

    def check(self, outputs: list[Any], reference: list[Any] | None) -> list[tuple[int, str]]:
        if self._truths is None:
            self._truths = simulate.compute_truths(simulate.ScenarioConfig("cx"))
        problems = []
        content = (self.decompose_problems, self.grid_problems, self.benchmark_problems)
        for i, (out, validate) in enumerate(zip(outputs, content)):
            found = _cli_problems(out, reference[i] if reference else None)
            if not found:
                found = validate(out.stdout)
            problems += [(i, p) for p in found]
        return problems

    def decompose_problems(self, stdout: str) -> list[str]:
        problems = []
        rows = [r for r in _csv_rows(stdout)[1:] if r[1] in decompose.DecompositionResult.QUANTITIES]
        if len(rows) != 3 * len(decompose.METHODS):
            return [f"decompose: expected {3 * len(decompose.METHODS)} estimate rows, found {len(rows)}"]
        for method, quantity, estimate, *_ in rows:
            truth = self._truths.for_method(method).quantity(quantity)
            if not abs(float(estimate) - truth) <= self.TRUTH_TOL:
                problems.append(f"decompose {method} {quantity}: {estimate} is not within {self.TRUTH_TOL} of {truth:.6g}")
        return problems

    @staticmethod
    def grid_problems(stdout: str) -> list[str]:
        rows = _csv_rows(stdout)[1:]
        problems = [] if len(rows) == 6 else [f"grid: expected 6 rows, found {len(rows)}"]
        for row in rows:
            delta, zeta, tau = (float(v) for v in row[3:6])
            # Values are printed with 6 significant digits.
            if abs(delta + zeta - tau) > 1e-5 * max(1.0, abs(delta) + abs(zeta) + abs(tau)):
                problems.append(f"grid row {row}: delta_adjusted + zeta_adjusted != tau")
        return problems

    @staticmethod
    def benchmark_problems(stdout: str) -> list[str]:
        rows = _csv_rows(stdout)[1:]
        problems = [] if len(rows) == 4 else [f"benchmark: expected 4 covariates, found {len(rows)}"]
        for name, with_y, with_m in rows:
            if not (0.0 <= float(with_y) <= 1.0 and 0.0 <= float(with_m) <= 1.0):
                problems.append(f"benchmark {name}: R^2 outside [0, 1]")
        return problems


WORKLOADS = {cls.name: cls for cls in (SimSuite, Bootstrap, LargeN)}


def build(name: str, seed: int, work_dir: Path) -> Any:
    """The workload's in-memory inputs (generated files are cached by seed)."""
    return WORKLOADS[name](seed, Path(work_dir))


# ---------------------------------------------------------------------------
# Tracing: which functions get spans, and the layer metrics derived from them


def _fit_attrs(columns: Any, response: Any, intercept: bool = True) -> dict[str, float]:
    # Mirrors the fit_ols signature; sizes give the Householder QR cost.
    n = len(response)
    p = len(columns) + bool(intercept)
    return {"flops_computed": 2.0 * n * p * p - 2.0 * p**3 / 3.0, "bytes_computed": 8.0 * n * (p + 1)}


def _cda_attrs(data: Any, settings: Any = None) -> dict[str, float]:
    n1 = int(np.count_nonzero(data.column(data.roles.group) == 1.0))
    draws = (settings or decompose.CdaSettings()).mc_draws_per_unit
    return {"draws_computed": float(n1 * draws)}


def _bootstrap_attrs(data: Any, method: str, settings: Any = None, B: int = 1000, seed: int = 0) -> dict[str, float]:
    return {"B": float(B)}


def _load_attrs(path: str, roles: Any) -> dict[str, float]:
    return {"bytes": float(os.path.getsize(path))}


# (span name, module, attribute, attrs function). Module-level functions are
# wrapped at every binding in LAYER_MODULES, because callers bind them at
# import (``from .regress import fit_ols``); Dataset.take is wrapped on the
# class. bootstrap reaches the estimators through decompose's globals.
TRACED = (
    ("regress.fit_ols", "regress", "fit_ols", _fit_attrs),
    ("regress.partial_r2", "regress", "partial_r2", None),
    ("decompose.dic", "decompose", "decompose_dic", None),
    ("decompose.kob", "decompose", "decompose_kob", None),
    ("decompose.cda", "decompose", "decompose_cda", _cda_attrs),
    ("decompose.bootstrap", "decompose", "bootstrap", _bootstrap_attrs),
    ("tabular.load_csv", "tabular", "load_csv", _load_attrs),
    ("tabular.Dataset.take", "tabular", "Dataset.take", None),
    ("sensitivity.adjust", "sensitivity", "adjust", None),
    ("sensitivity.grid", "sensitivity", "grid", None),
    ("sensitivity.benchmark", "sensitivity", "benchmark", None),
    ("simulate.generate", "simulate", "generate", None),
    ("simulate.run_harness", "simulate", "run_harness", None),
    ("simulate.compute_truths", "simulate", "compute_truths", None),
    ("streams.substream", "_streams", "substream", None),
    ("cli.main", "cli", "main", None),
    ("cli.render", "cli", "render", None),
)
LAYER_MODULES = ("tabular", "regress", "decompose", "sensitivity", "simulate", "_streams", "cli")
ESTIMATOR_SPANS = frozenset({"decompose.dic", "decompose.kob", "decompose.cda"})


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Install span wrappers for everything in TRACED; restore on exit."""
    modules = [importlib.import_module(f"dispdecomp.{m}") for m in LAYER_MODULES]
    patches: list[tuple[Any, str, Any]] = []
    try:
        for span, module, attr, attrs in TRACED:
            owner: Any = importlib.import_module(f"dispdecomp.{module}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = tracer.wrap(span, original, attrs)
            if outer:
                sites = [(owner, leaf)]
            else:
                sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            for site, key in sites:
                patches.append((site, key, original))
                setattr(site, key, wrapper)
        yield
    finally:
        for site, key, original in reversed(patches):
            setattr(site, key, original)


# Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "regress.fit_ols.calls": "count",
    "regress.fit_ols.s": "s",
    "regress.fit_ols.failed": "count",
    "regress.fit_ols.flops_computed": "flop",
    "regress.fit_ols.bytes_computed": "B",
    "regress.partial_r2.calls": "count",
    "regress.partial_r2.s": "s",
    "decompose.dic.calls": "count",
    "decompose.dic.self_s": "s",
    "decompose.kob.calls": "count",
    "decompose.kob.self_s": "s",
    "decompose.cda.calls": "count",
    "decompose.cda.self_s": "s",
    "decompose.cda.draws_computed": "count",
    "decompose.bootstrap.s": "s",
    "decompose.bootstrap.self_s": "s",
    "decompose.bootstrap.attempts": "count",
    "decompose.bootstrap.retries": "count",
    "decompose.bootstrap.useful_ratio": "ratio",
    "tabular.load_csv.calls": "count",
    "tabular.load_csv.s": "s",
    "tabular.load_csv.bytes": "B",
    "tabular.Dataset.take.calls": "count",
    "tabular.Dataset.take.s": "s",
    "sensitivity.adjust.calls": "count",
    "sensitivity.adjust.self_s": "s",
    "sensitivity.grid.s": "s",
    "sensitivity.benchmark.s": "s",
    "simulate.generate.calls": "count",
    "simulate.generate.s": "s",
    "simulate.run_harness.self_s": "s",
    "simulate.compute_truths.s": "s",
    "streams.substream.calls": "count",
    "streams.substream.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.render.s": "s",
}

# Times of layers that every workload calls. Every other per-layer time reads
# exactly 0 on some workload, run after run, which is no measurement: those
# are printed in the table but left out of the result line (RESULT_METRICS).
SHARED_TIMES = (
    "regress.fit_ols.s",
    "decompose.dic.self_s",
    "decompose.kob.self_s",
    "decompose.cda.self_s",
    "streams.substream.s",
    "cli.render.s",
)
RESULT_METRICS = tuple(
    key for key, unit in LAYER_UNITS.items() if unit != "s" or key in SHARED_TIMES
) + ("trace.overhead_s",)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """LAYER_UNITS metrics for the spans of one iteration."""
    totals = totals_by_name(spans)
    # Estimator calls directly under a bootstrap span, less its point estimate.
    boots = {i for i, s in enumerate(spans) if s.name == "decompose.bootstrap"}
    attempts = sum(1 for s in spans if s.parent in boots and s.name in ESTIMATOR_SPANS) - len(boots)
    useful = int(totals.get("decompose.bootstrap", NameTotals()).attrs.get("B", 0))
    out: dict[str, float] = {
        "decompose.bootstrap.attempts": attempts,
        "decompose.bootstrap.retries": attempts - useful,
        "decompose.bootstrap.useful_ratio": useful / attempts if attempts else 0.0,
    }
    for key in LAYER_UNITS:
        if key in out:
            continue
        name, stat = key.rsplit(".", 1)
        agg = totals.get(name, NameTotals())
        if stat == "calls":
            out[key] = agg.calls
        elif stat == "s":
            out[key] = agg.seconds
        elif stat == "self_s":
            out[key] = agg.self_seconds
        elif stat == "failed":
            out[key] = agg.failed
        else:
            out[key] = agg.attrs.get(stat, 0.0)
    return {key: out[key] for key in LAYER_UNITS}
