"""Tests of the benchmark itself: span arithmetic, output checks, seed plumbing.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for entry in (HERE.parent / "src", HERE):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dispdecomp import Dataset, RoleSpec, decompose, simulate  # noqa: E402
from dispdecomp.regress import fit_ols  # noqa: E402


def hand_built_tree() -> list[spans.Span]:
    # root [0, 10]: a [1, 4] with grandchild g [2, 3]; b [5, 9]; c [8, 12]
    # overlaps b and runs past the root's end.
    return [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("g", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("c", 8.0, 12.0, 0, failed=True, attrs={"bytes": 5.0}),
    ]


def test_self_time_subtracts_the_union_of_children():
    # Root's children cover [1, 4] and [5, 10] after clipping: 8 of 10 s.
    assert spans.self_times(hand_built_tree()) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_totals_by_name_sums_calls_times_failures_and_attrs():
    tree = hand_built_tree() + [spans.Span("a", 20.0, 21.5, -1, attrs={"bytes": 1.0})]
    totals = spans.totals_by_name(tree)
    assert totals["a"].calls == 2
    assert totals["a"].seconds == pytest.approx(4.5)
    assert totals["a"].self_seconds == pytest.approx(3.5)
    assert totals["a"].attrs == {"bytes": 1.0}
    assert totals["c"].failed == 1


def test_tracer_records_parents_and_failures():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner, attrs=lambda x: {"x": float(x)})
    outer = tracer.wrap("outer", lambda: [traced_inner(2), traced_inner(3)])
    assert outer() == [2, 3]
    with pytest.raises(ValueError):
        traced_inner(-1)
    recorded = tracer.take()
    assert [(s.name, s.parent, s.failed) for s in recorded] == [
        ("outer", -1, False), ("inner", 0, False), ("inner", 0, False), ("inner", -1, True),
    ]
    assert recorded[2].attrs == {"x": 3.0}
    assert tracer.take() == []


def small_dataset(n=80, seed=1):
    rng = np.random.default_rng(seed)
    r = (np.arange(n) % 2).astype(float)
    c = rng.normal(1.0 - 0.5 * r, 1.0)
    m = rng.normal(1.0 - 0.6 * r + 0.1 * c, 1.0)
    y = rng.normal(0.5 * r + 0.3 * c + 0.4 * m, 1.0)
    roles = RoleSpec(group="R", outcome="Y", mediator="M", baseline=("C",))
    return Dataset({"R": r, "C": c, "M": m, "Y": y}, roles)


def test_traced_sees_bootstrap_resamples_and_restores_bindings():
    data = small_dataset()
    originals = {name: getattr(decompose, name) for name in ("fit_ols", "decompose_dic", "substream")}
    take = Dataset.take
    tracer = spans.Tracer()
    with workloads.traced(tracer):
        assert decompose.fit_ols is not originals["fit_ols"]
        decompose.bootstrap(data, "DIC", B=3, seed=2)
    metrics = workloads.layer_metrics(tracer.take())
    assert metrics["decompose.bootstrap.attempts"] == 3
    assert metrics["decompose.bootstrap.retries"] == 0
    assert metrics["decompose.bootstrap.useful_ratio"] == 1.0
    assert metrics["tabular.Dataset.take.calls"] == 3
    assert metrics["decompose.dic.calls"] == 4
    assert metrics["streams.substream.calls"] == 3
    assert metrics["regress.fit_ols.calls"] > 0
    assert {name: getattr(decompose, name) for name in originals} == originals
    assert Dataset.take is take


def test_fit_attrs_use_the_qr_cost_of_the_design():
    attrs = workloads._fit_attrs({"a": np.zeros(10), "b": np.zeros(10)}, np.zeros(10))
    assert attrs == {"flops_computed": 2 * 10 * 9 - 2 * 27 / 3, "bytes_computed": 8 * 10 * 4}
    assert workloads._fit_attrs({"a": np.zeros(10)}, np.zeros(10), intercept=False)["bytes_computed"] == 160


def small_report():
    return simulate.run_harness(simulate.ScenarioConfig("cx", n=300, reps=40, seed=3))


def test_sim_suite_check_accepts_the_oracle_and_rejects_a_perturbed_truth():
    report = small_report()
    assert workloads.SimSuite.report_problems(report) == []
    cell = report.cell("KOB", "explained")
    moved = replace(cell, truth=cell.truth + 5 * cell.mc_standard_error)
    perturbed = replace(report, cells=tuple(moved if c is cell else c for c in report.cells))
    problems = workloads.SimSuite.report_problems(perturbed)
    assert len(problems) == 1 and "cx KOB explained" in problems[0]


def test_sim_suite_check_rejects_a_broken_identity():
    report = small_report()
    cell = report.cell("CDA", "unexplained")
    broken = replace(cell, estimates=(cell.estimates[0] + 1e-6,) + cell.estimates[1:])
    report = replace(report, cells=tuple(broken if c is cell else c for c in report.cells))
    assert any("explained + unexplained != initial" in p for p in workloads.SimSuite.report_problems(report))


def test_large_n_check_rejects_a_perturbed_truth():
    truths = simulate.compute_truths(simulate.ScenarioConfig("cx"))
    lines = ["method,quantity,estimate,2.5%,97.5%"]
    for method in decompose.METHODS:
        for q in decompose.DecompositionResult.QUANTITIES:
            lines.append(f"{method},{q},{truths.for_method(method).quantity(q) + 0.01:.6g},,")
    stdout = "\n".join(lines) + "\n"
    check = object.__new__(workloads.LargeN)
    check._truths = truths
    assert check.decompose_problems(stdout) == []
    check._truths = replace(truths, cda=replace(truths.cda, explained=truths.cda.explained + 0.1))
    assert check.decompose_problems(stdout) == [
        f"decompose CDA explained: {truths.cda.explained + 0.01:.6g} is not within 0.05 of "
        f"{truths.cda.explained + 0.1:.6g}"
    ]


def test_bootstrap_check_rejects_moved_estimates_and_inverted_intervals():
    point = "method,quantity,estimate,2.5%,97.5%\nDIC,initial,0.5,,\n"
    good = "method,quantity,estimate,2.5%,97.5%\nDIC,initial,0.5,0.4,0.6\n"
    problems = workloads.Bootstrap.interval_problems(good, point)
    assert problems == [f"expected {4 * len(decompose.METHODS)} rows, found 1"]
    inverted = good.replace("0.4,0.6", "0.6,0.4")
    assert "DIC initial: interval [0.6, 0.4] is inverted" in workloads.Bootstrap.interval_problems(inverted, point)
    moved = good.replace("0.5,", "0.7,")
    assert workloads.Bootstrap.interval_problems(moved, point) == [
        "estimates differ from the same command without --bootstrap"
    ]


def test_grid_and_benchmark_checks():
    header = "r2_yu,r2_mu,bias,delta_adjusted,zeta_adjusted,tau\n"
    rows = "".join(f"0.1,0.1,0.01,0.2,0.3,{tau}\n" for tau in (0.5,) * 5 + (0.6,))
    problems = workloads.LargeN.grid_problems(header + rows)
    assert len(problems) == 1 and "delta_adjusted + zeta_adjusted != tau" in problems[0]
    table = "name,r2_with_y,r2_with_m\nC,0.1,0.2\nX1,0.1,0.2\nX2,0.1,0.2\nX3,1.5,0.2\n"
    assert workloads.LargeN.benchmark_problems(table) == ["benchmark X3: R^2 outside [0, 1]"]


def test_seed_changes_the_generated_inputs(tmp_path):
    first = workloads.build("bootstrap", 1, tmp_path / "a")
    again = workloads.build("bootstrap", 1, tmp_path / "b")
    other = workloads.build("bootstrap", 2, tmp_path / "c")
    read = lambda w: Path(w.argv[w.argv.index("--data") + 1]).read_bytes()  # noqa: E731
    assert read(first) == read(again)
    assert read(first) != read(other)
    assert [c.seed for c in workloads.build("sim-suite", 5, tmp_path).configs] == [5] * 7


def test_input_cache_keeps_one_seed_per_workload(tmp_path):
    for seed in range(3):
        workloads.input_csv(tmp_path, "bootstrap", "both", 60, seed)
    workloads.input_csv(tmp_path, "large-n", "cx", 60, 0)
    kept = sorted(p.name for p in (tmp_path / "inputs").glob("*.csv"))
    assert kept == ["bootstrap-seed2.csv", "large-n-seed0.csv"]


def test_command_line_plumbs_the_seed_and_knows_every_workload():
    args = run.parse_args(["--workload", "large-n", "--seed", "9", "--seconds", "3", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("large-n", 9, 3.0, 1)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(run.FIT_ANCHORS)


def test_generated_table_follows_the_sem_gap_and_fits():
    table = workloads.sem_table("cx", 20_000, np.random.default_rng(0))
    fit = fit_ols({k: table[k] for k in ("R", "C", "X1", "X2", "X3", "M")}, table["Y"])
    assert fit.coef("M") == pytest.approx(0.4, abs=0.03)
    assert fit.coef("R") == pytest.approx(0.5, abs=0.05)


def test_benchmark_json_lists_the_printed_metrics_with_their_units():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in doc["per_layer"]] == list(workloads.RESULT_METRICS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])
