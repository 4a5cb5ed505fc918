"""Benchmark for dispdecomp: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all workloads, seed 0
    python3 perfbench/run.py --workload bootstrap --seed 3 --seconds 20 --trace 0

The package is imported from ``<checkout>/src``; nothing needs installing.
Each workload is measured closed-loop with one caller for ``--seconds``
seconds after one untimed reference iteration, and every iteration's output
is checked. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The lines before it
are a readable table and a record of the machine. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("sim-suite", "bootstrap", "large-n")

# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 5

# regress.fit_ols calls per iteration at seed 0 on the parent program:
# 12 fits per replication with sensitivity on, 8 without.
FIT_ANCHORS = {"sim-suite": 13_600, "bootstrap": 4_008, "large-n": 32}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_mem_mb": "MB",
}

SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import dispdecomp\n"
    "import workloads\n"
    "workload = workloads.build({name!r}, {seed!r}, {work!r})\n"
)
# Appended to SETUP_CODE: one untimed iteration; writes the process's peak
# RSS in KiB and the iteration's outputs to stdout as one pickle.
REFERENCE_CODE = (
    "import pickle, resource\n"
    "outputs = workloads.run_ops(workload.ops()).outputs\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "sys.stdout.buffer.write(pickle.dumps((rss, outputs)))\n"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (e.g. the package is missing)."""


def load_package() -> None:
    """Import dispdecomp from this checkout's src/ and nowhere else."""
    if not (SRC / "dispdecomp" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'dispdecomp'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import dispdecomp

    where = Path(dispdecomp.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"dispdecomp was imported from {where}, not from {SRC}")


def machine_record(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for lib, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib] = f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            blas[lib] = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "git_commit": commit,
        "seed": seed,
    }


def child_code(name: str, seed: int) -> str:
    return SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, work=str(WORK_DIR))


def time_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing dispdecomp and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", child_code(name, seed)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_run(name: str, seed: int) -> tuple[float, list[Any]]:
    """Peak RSS in MB of a fresh process running one untimed iteration, and its outputs."""
    proc = subprocess.run(
        [sys.executable, "-c", child_code(name, seed) + REFERENCE_CODE],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    )
    rss_kib, outputs = pickle.loads(proc.stdout)
    return rss_kib * 1024 / 1e6, outputs


@dataclass
class Tally:
    """Operations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, n_ops: int, problems: list[tuple[int, str]]) -> None:
        self.attempted += n_ops
        self.failed += len({i for i, _ in problems})
        self.problems += [p for _, p in problems][: max(0, 10 - len(self.problems))]


def iterate(workload: Any, ops: list, reference: list, tally: Tally) -> Any:
    """One checked iteration, after a full collection so garbage from the last one is gone."""
    import workloads

    gc.collect()
    it = workloads.run_ops(ops)
    tally.add(len(ops), workload.check(it.outputs, reference))
    return it


def measure(name: str, seed: int, seconds: float) -> tuple[dict[str, float], Tally, dict[str, Any]]:
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    workload = workloads.build(name, seed, WORK_DIR)
    setup_s = time_setup(name, seed)
    peak_mb, reference = reference_run(name, seed)
    ops = workload.ops()
    tally = Tally()
    tally.add(len(ops), workload.check(reference, None))
    its = []
    began = time.perf_counter()
    while not tally.failed and (not its or time.perf_counter() - began < seconds):
        its.append(iterate(workload, ops, reference, tally))
    samples = {"items": workload.items, "iterations": [it.wall_s for it in its]}
    if tally.failed:
        return {}, tally, samples
    wall = statistics.median(sum(it.wall_s) for it in its)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "cpu_s": statistics.median(sum(it.cpu_s) for it in its),
        "peak_mem_mb": peak_mb,
    }
    return metrics, tally, samples


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict[str, float], Tally, dict[str, Any]]:
    """Per-layer metrics from traced iterations, each paired with an untraced one."""
    import spans
    import workloads

    workload = workloads.build(name, seed, WORK_DIR)
    ops = workload.ops()
    tally = Tally()
    reference = workloads.run_ops(ops).outputs
    tally.add(len(ops), workload.check(reference, None))
    tracer = spans.Tracer()
    per_iteration: list[list[spans.Span]] = []
    overheads: list[float] = []
    began = time.perf_counter()
    while not tally.failed and (not overheads or time.perf_counter() - began < seconds):
        plain = iterate(workload, ops, reference, tally)
        with workloads.traced(tracer):
            traced = iterate(workload, ops, reference, tally)
        per_iteration.append(tracer.take())
        overheads.append(sum(traced.wall_s) - sum(plain.wall_s))
    if tally.failed:
        return {}, tally, {}
    spans.write_spans(str(WORK_DIR / f"spans-{name}.jsonl"), per_iteration)
    layers = [workloads.layer_metrics(s) for s in per_iteration]
    metrics = {}
    for key, unit in workloads.LAYER_UNITS.items():
        values = [m[key] for m in layers]
        metrics[key] = statistics.median(values) if unit == "s" else values[0]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    unstable = [
        key for key, unit in workloads.LAYER_UNITS.items()
        if unit != "s" and any(m[key] != layers[0][key] for m in layers)
    ]
    samples = {
        "traced_iterations": len(layers),
        "overhead_s": overheads,
        "counts_repeat": not unstable,
        "counts_that_differ": unstable,
    }
    if seed == 0:
        samples["fit_anchor"] = {
            "expected": FIT_ANCHORS[name],
            "measured": metrics["regress.fit_ols.calls"],
        }
    return metrics, tally, samples


def unit_of(metric: str) -> str:
    import workloads

    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return "s" if metric == "trace.overhead_s" else workloads.LAYER_UNITS[metric]


def print_table(name: str, metrics: dict[str, float], tally: Tally, samples: dict[str, Any]) -> None:
    print(f"== {name}")
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {unit_of(key)}")
    frac = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"  {'failed_frac':<36} {frac:>16.6g} ratio ({tally.failed}/{tally.attempted} operations)")
    if samples.get("iterations"):
        totals = [sum(it) for it in samples["iterations"]]
        print(f"  iteration wall over {len(totals)} iterations: min {min(totals):.4g} s, max {max(totals):.4g} s")
    anchor = samples.get("fit_anchor")
    if anchor:
        verdict = "matches" if anchor["measured"] == anchor["expected"] else "DIFFERS from"
        print(f"  regress.fit_ols.calls {anchor['measured']:g} {verdict} the seed-0 anchor {anchor['expected']}")
    if "counts_repeat" in samples and not samples["counts_repeat"]:
        print(f"  counts differ between traced iterations: {samples['counts_that_differ']}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    print("machine " + json.dumps(machine_record(args.seed)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    total = Tally()
    merged: dict[str, dict[str, Any]] = {}
    for name in names:
        metrics, tally, samples = run(name, args.seed, args.seconds)
        print_table(name, metrics, tally, samples)
        print(f"samples {name} " + json.dumps(samples))
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in metrics.items():
            if not args.trace or key in workloads.RESULT_METRICS:
                merged[prefix + key] = {"value": value, "unit": unit_of(key)}
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": merged,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
