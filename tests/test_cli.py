import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dispdecomp.cli
import dispdecomp.decompose
from dispdecomp import (
    CdaSettings, DecompositionResult, RenderedReport, decompose_cda, decompose_dic, main, render,
)

from conftest import build_dataset, random_dataset, src_env

REPO_ROOT = Path(__file__).resolve().parents[1]

WORKED_CSV = "r,m,y\n0,0,0\n0,1,2\n1,1,3\n1,2,5\n"

BENCH_CSV = (
    "R,Z,M,Y\n"
    "0,1,2,1\n0,2,1,2\n0,3,3,2\n0,4,2,3\n"
    "1,2,4,3\n1,3,3,4\n1,4,5,4\n1,5,4,6\n"
)


def console_script(directory):
    """Write the launcher an install generates for the ``dispdecomp`` script.

    The entry is read from ``[project.scripts]`` in this checkout's
    pyproject.toml, and the launcher has the body of distlib's
    SCRIPT_TEMPLATE, which pip uses: import the declared function and exit
    with what it returns. Returns the command that runs it, so no installed
    copy is needed and none is picked up from PATH.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["dispdecomp"]
    module, _, func = entry.partition(":")
    launcher = directory / "dispdecomp"
    launcher.write_text(
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    return [sys.executable, str(launcher)]


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_CSV)
    return str(path)


def base_flags(path):
    return ["--data", path, "--group", "r", "--outcome", "y", "--mediator", "m"]


class TestDecomposeCommand:
    def test_worked_example_markdown(self, worked_csv, capsys):
        assert main(["decompose", *base_flags(worked_csv), "--method", "dic"]) == 0
        out = capsys.readouterr().out
        assert "## DIC" in out
        assert "| initial | 3 | — | — |" in out
        assert "| explained | 2 | — | — |" in out
        assert "| unexplained | 1 | — | — |" in out
        assert "| proportion_explained_pct | 66.6667 | — | — |" in out

    def test_worked_example_csv(self, worked_csv, capsys):
        assert main(
            ["decompose", *base_flags(worked_csv), "--method", "dic", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "method,quantity,estimate,2.5%,97.5%"
        assert lines[1] == "DIC,initial,3,,"
        assert lines[2] == "DIC,explained,2,,"
        assert lines[3] == "DIC,unexplained,1,,"
        assert lines[4] == "DIC,proportion_explained_pct,66.6667,,"

    def test_estimators_come_from_the_dispatch_table(self, worked_csv, capsys, monkeypatch):
        stub = DecompositionResult("KOB", 1.0, 0.25, 0.75, 25.0)
        monkeypatch.setitem(dispdecomp.decompose._ESTIMATORS, "KOB", lambda data, settings: stub)
        argv = ["decompose", *base_flags(worked_csv), "--method", "kob", "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:3] == ["KOB,initial,1,,", "KOB,explained,0.25,,"]

    def test_all_methods_in_canonical_order(self, worked_csv, capsys):
        assert main(["decompose", *base_flags(worked_csv)]) == 0
        out = capsys.readouterr().out
        assert out.index("## DIC") < out.index("## KOB") < out.index("## CDA")

    def test_undefined_proportion_rendered(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("r,m,y\n0,-1,-1\n0,1,1\n1,-1,-1\n1,1,1\n")
        assert main(["decompose", *base_flags(str(path)), "--method", "dic"]) == 0
        assert "| proportion_explained_pct | undefined |" in capsys.readouterr().out

    def test_bootstrap_intervals_rendered_and_deterministic(self, tmp_path, capsys):
        path = tmp_path / "boot.csv"
        rows = ["r,m,y"]
        vals = [
            (0, 1.0, 2.1), (0, 2.0, 2.9), (0, 3.0, 4.2), (0, 1.5, 2.4), (0, 2.5, 3.6),
            (1, 2.0, 4.9), (1, 3.0, 6.1), (1, 4.0, 7.2), (1, 2.5, 5.4), (1, 3.5, 6.6),
        ]
        rows += [f"{r},{m},{y}" for r, m, y in vals]
        path.write_text("\n".join(rows) + "\n")
        argv = [
            "decompose", *base_flags(str(path)),
            "--method", "kob", "--bootstrap", "40", "--format", "csv",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        initial_row = [l for l in first.splitlines() if l.startswith("KOB,initial")][0]
        cells = initial_row.split(",")
        assert cells[3] != "" and cells[4] != ""
        assert float(cells[3]) <= float(cells[2]) <= float(cells[4])

    def test_seed_random_reports_to_stderr(self, worked_csv, capsys):
        assert main(
            ["decompose", *base_flags(worked_csv), "--method", "dic", "--seed", "random"]
        ) == 0
        assert "seed: " in capsys.readouterr().err

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("r,m,y\n0,oops,0\n0,1,2\n1,1,3\n1,2,5\n")
        assert main(["decompose", *base_flags(str(path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "row 2" in err and "'m'" in err

    def test_bad_group_value_is_printed_as_a_plain_number(self, tmp_path, capsys):
        path = tmp_path / "bad_group.csv"
        path.write_text("r,m,y\n0,0,0\n2,1,2\n1,1,3\n1,2,5\n")
        assert main(["decompose", *base_flags(str(path))]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: group column 'r' must contain only 0 and 1, found 2.0\n"
        assert captured.out == ""

    def test_collinear_design_is_estimation_error(self, tmp_path, capsys):
        path = tmp_path / "collinear.csv"
        path.write_text("r,m,y\n0,0,1\n0,0,2\n1,1,3\n1,1,5\n")
        assert main(["decompose", *base_flags(str(path)), "--method", "dic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "linearly dependent" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["decompose", *base_flags(str(tmp_path / "nope.csv"))]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [0, 3], ids=["header", "data-row"])
    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path, capsys, line):
        lines = WORKED_CSV.splitlines()
        lines[line] += "\xe9"  # Latin-1 e-acute
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        assert main(["decompose", *base_flags(str(path))]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {str(path)!r}: not valid UTF-8 (byte 0xe9: invalid continuation byte)\n"
        )
        assert captured.out == ""

    def test_draw_total_beyond_a_64_bit_count_is_a_usage_error(self, worked_csv, capsys):
        draws = 2**62  # two group-1 units make 2**63 draws
        argv = ["decompose", *base_flags(worked_csv), "--method", "cda", "--mc-draws", str(draws)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: 2 group-1 units x {draws} draws per unit exceeds the limit of "
            f"{2**63 - 1} draws in total\n"
        )
        assert captured.out == ""

    def test_default_cda_is_the_exact_expectation_whatever_the_seed(self, tmp_path, capsys):
        path = tmp_path / "cda.csv"
        data = random_dataset(8, n=40, n_baseline=1, n_intermediate=0)
        np.savetxt(path, np.column_stack(list(data.columns.values())), fmt="%.17g",
                   delimiter=",", header=",".join(data.columns), comments="")
        flags = ["--data", str(path), "--group", "R", "--outcome", "Y", "--mediator", "M",
                 "--baseline", "C1", "--method", "cda", "--format", "csv"]
        outputs = []
        for extra in ([], ["--seed", "5"], ["--mc-draws", "0"]):
            assert main(["decompose", *flags, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [render(decompose_cda(data), "csv").body] * 3
        assert main(["decompose", *flags, "--mc-draws", "100", "--seed", "5"]) == 0
        drawn = capsys.readouterr().out
        assert drawn == render(decompose_cda(data, CdaSettings(100, 5)), "csv").body
        assert drawn != outputs[0]

    @pytest.mark.parametrize("method", ["dic", "kob"])
    @pytest.mark.parametrize("draws", ["0", "7"])
    def test_mc_draws_without_the_causal_method_is_a_usage_error(self, worked_csv, capsys, method, draws):
        argv = ["decompose", *base_flags(worked_csv), "--method", method, "--mc-draws", draws]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: --mc-draws applies to the causal method only, not --method {method}\n"
        assert captured.out == ""

    def test_help_says_the_default_is_exact(self, capsys):
        for command in ("decompose", "sensitivity"):
            assert main([command, "--help"]) == 0
            assert "(default: none, the exact expectation)" in " ".join(capsys.readouterr().out.split())

    def test_usage_errors(self, worked_csv, capsys):
        assert main(["decompose", *base_flags(worked_csv), "--bogus"]) == 1
        assert main(["decompose", *base_flags(worked_csv), "--mc-draws", "-1"]) == 1
        assert main(["decompose", *base_flags(worked_csv), "--seed", "abc"]) == 1
        assert main(["decompose", "--data", worked_csv, "--group", "r", "--outcome", "y"]) == 1
        assert main(["nosuchcommand"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("sensitivity", ["--grid", "a;b"],
             "--grid has a non-numeric value: could not convert string to float: 'a'"),
            ("sensitivity", ["--r2-yu", "1.5", "--r2-mu", "0.1"], "r2_yu must be in [0, 1), got 1.5"),
            ("decompose", ["--seed", "abc"], "--seed expects an integer or 'random', got 'abc'"),
            ("decompose", ["--mc-draws", "-1"], "mc_draws_per_unit must be >= 0, got -1"),
            ("sensitivity", ["--grid", "1.5;0.1"], "r2_yu must be in [0, 1), got 1.5"),
            ("decompose", ["--bootstrap", "1"], "bootstrap needs B >= 2 replicates, got 1"),
            ("decompose", ["--bootstrap", "-3"], "bootstrap needs B >= 2 replicates, got -3"),
        ],
        ids=["grid", "r2-yu", "seed", "mc-draws", "grid-range", "bootstrap-1", "bootstrap-negative"],
    )
    def test_flag_errors_come_before_reading_the_data(self, tmp_path, monkeypatch, capsys, command, flags, message):
        argv = [command, *base_flags(str(tmp_path / "missing.csv")), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

        def no_read(*args, **kwargs):
            raise AssertionError("load_csv called before every flag was checked")

        monkeypatch.setattr(dispdecomp.cli, "load_csv", no_read)
        assert main(argv) == 1


class TestSensitivityCommand:
    def test_point_adjustment(self, worked_csv, capsys):
        assert main(
            [
                "sensitivity", *base_flags(worked_csv),
                "--r2-yu", "0.2", "--r2-mu", "0.2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "## CDA_adjusted" in out
        for row in ("bias", "delta_adjusted", "zeta_adjusted", "tau"):
            assert f"| {row} |" in out

    def test_grid(self, worked_csv, capsys):
        assert main(
            [
                "sensitivity", *base_flags(worked_csv),
                "--grid", "0.1,0.3;0.2,0.4", "--format", "csv",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r2_yu,r2_mu,bias,delta_adjusted,zeta_adjusted,tau"
        assert len(lines) == 5
        assert lines[1].startswith("0.1,0.2,")
        assert lines[2].startswith("0.1,0.4,")
        assert lines[3].startswith("0.3,0.2,")

    def test_parameter_conflicts(self, worked_csv, capsys):
        assert main(
            [
                "sensitivity", *base_flags(worked_csv),
                "--grid", "0.1;0.2", "--r2-yu", "0.3",
            ]
        ) == 1
        assert "--r2-yu" in capsys.readouterr().err
        assert main(["sensitivity", *base_flags(worked_csv)]) == 1
        assert main(["sensitivity", *base_flags(worked_csv), "--r2-yu", "0.3"]) == 1
        capsys.readouterr()

    def test_method_is_a_usage_error(self, worked_csv, capsys):
        # The adjustment is defined for CDA only, so there is no method to pick.
        assert main(
            [
                "sensitivity", *base_flags(worked_csv),
                "--r2-yu", "0.1", "--r2-mu", "0.2", "--method", "dic",
            ]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert "--method" in captured.err

    def test_out_of_range_parameter(self, worked_csv, capsys):
        assert main(
            [
                "sensitivity", *base_flags(worked_csv),
                "--r2-yu", "1.5", "--r2-mu", "0.2",
            ]
        ) == 1
        assert "r2_yu" in capsys.readouterr().err

    def test_malformed_grid(self, worked_csv, capsys):
        assert main(["sensitivity", *base_flags(worked_csv), "--grid", "0.1"]) == 1
        assert main(["sensitivity", *base_flags(worked_csv), "--grid", "a;b"]) == 1
        assert main(["sensitivity", *base_flags(worked_csv), "--grid", ";0.2"]) == 1
        capsys.readouterr()

    def test_negative_sign_flips_direction(self, worked_csv, capsys):
        args = [
            "sensitivity", *base_flags(worked_csv),
            "--r2-yu", "0.2", "--r2-mu", "0.2", "--format", "csv",
        ]
        assert main(args) == 0
        plus = capsys.readouterr().out
        assert main(args + ["--sign", "-"]) == 0
        minus = capsys.readouterr().out
        bias_plus = float([l for l in plus.splitlines() if l.startswith("CDA_adjusted,bias")][0].split(",")[2])
        bias_minus = float([l for l in minus.splitlines() if l.startswith("CDA_adjusted,bias")][0].split(",")[2])
        assert bias_plus == -bias_minus != 0.0


class TestBenchmarkCommand:
    def test_frozen_strengths(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        path.write_text(BENCH_CSV)
        assert main(
            [
                "benchmark", "--data", str(path),
                "--group", "R", "--outcome", "Y", "--mediator", "M",
                "--baseline", "Z", "--format", "csv",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,r2_with_y,r2_with_m"
        assert lines[1] == "Z,0.925926,0.1"

    def test_markdown_table(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        path.write_text(BENCH_CSV)
        assert main(
            [
                "benchmark", "--data", str(path),
                "--group", "R", "--outcome", "Y", "--mediator", "M",
                "--baseline", "Z",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "| name | r2_with_y | r2_with_m |" in out
        assert "| Z | 0.925926 | 0.1 |" in out

    def test_perfect_outcome_fit_is_an_error_with_no_output(self, tmp_path, capsys):
        path = tmp_path / "perfect.csv"
        path.write_text("R,Z,M,Y\n0,1,2,0\n0,2,1,0\n0,4,3,0\n1,1,1,1\n1,3,2,1\n1,4,4,1\n")
        assert main(
            ["benchmark", "--data", str(path), "--group", "R", "--outcome", "Y", "--mediator", "M",
             "--baseline", "Z"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: outcome fully explained by group, covariates and mediator\n"
        assert captured.out == ""


class TestSimulateCommand:
    def test_markdown_report(self, capsys):
        argv = ["simulate", "--scenario", "none", "--reps", "25", "--n", "60"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# simulate: scenario=none n=60 reps=25 seed=0")
        assert "## DIC" in captured.out
        assert "| quantity | estimate | 2.5% | 97.5% | truth | covered |" in captured.out
        assert "| initial |" in captured.out
        assert "0.26" in captured.out
        assert captured.err == ""

    def test_repeatable_and_worker_invariant(self, capsys):
        argv = ["simulate", "--scenario", "c-only", "--reps", "6", "--n", "60", "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert main(argv + ["--workers", "3"]) == 0
        third = capsys.readouterr()
        assert first.out == second.out == third.out
        assert "warning: interval unreliable: fewer than 20 replications" in first.err

    def test_csv_includes_truth_and_covered(self, capsys):
        argv = ["simulate", "--scenario", "none", "--reps", "21", "--n", "60", "--format", "csv"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "method,quantity,estimate,2.5%,97.5%,truth,covered"
        dic_initial = [l for l in lines if l.startswith("DIC,initial")][0]
        cells = dic_initial.split(",")
        assert cells[5] == "0.26"
        assert cells[6] in ("true", "false")
        assert captured.err == ""

    def test_sensitivity_flag_adds_adjusted_block(self, capsys):
        argv = [
            "simulate", "--scenario", "my-conf", "--reps", "2", "--n", "80",
            "--sensitivity", "--format", "csv",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert any(l.startswith("CDA_adjusted,explained") for l in out.splitlines())

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"scenario": "none", "n": 70, "reps": 9, "seed": 4}')
        assert main(["simulate", "--config", str(cfg), "--reps", "3", "--format", "csv"]) == 0
        first = capsys.readouterr()
        assert main(
            ["simulate", "--scenario", "none", "--n", "70", "--reps", "3", "--seed", "4",
             "--format", "csv"]
        ) == 0
        second = capsys.readouterr()
        assert first.out == second.out

    def test_config_errors(self, tmp_path, capsys):
        assert main(["simulate"]) == 1
        assert main(["simulate", "--scenario", "none", "--config", "x.json"]) == 1
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "marsupial"]) == 1
        assert main(["simulate", "--scenario", "none", "--n", "10"]) == 1
        assert "n must be >= 50" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"scenario": "cx", "n": "100"}', 'n must be a JSON integer, got "100"'),
            (
                '{"scenario": "cx", "coefficients": {"outcome": {"on_intermediate": 0.2}}}',
                "outcome.on_intermediate must be a JSON array of numbers, got 0.2",
            ),
        ],
    )
    def test_config_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(doc)
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_config_number_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(
            '{"scenario": "cx", "n": 60, "reps": 3, "coefficients": {"baseline": {"noise_sd": Infinity}}}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: baseline.noise_sd must be a JSON number, got Infinity\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                '{"scenario": "none", "n": 100000000000000000000, "reps": 1}',
                "n must be <= 10000000, got 100000000000000000000",
            ),
            (
                '{"scenario": "none", "n": 1' + "0" * 5000 + "}",
                "n must be a JSON integer, got an integer of 5001 digits, too many to read",
            ),
        ],
        ids=["beyond-the-bound", "too-long-to-read"],
    )
    def test_config_integer_too_large_is_a_usage_error_naming_its_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(doc)
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""

    def test_n_override_beyond_its_bound_is_a_usage_error(self, capsys):
        assert main(["simulate", "--scenario", "none", "--n", "100000000000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: n must be <= 10000000, got 100000000000000000000\n"
        assert captured.out == ""

    def test_config_that_is_not_utf8_is_a_usage_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"scenario": "none\xe9"}'.encode("latin-1"))
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: cannot read --config file {str(cfg)!r}: "
            "not valid UTF-8 (byte 0xe9: invalid continuation byte)\n"
        )
        assert captured.out == ""

    def test_config_nested_too_deeply_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000)
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: invalid JSON scenario config: nested too deeply\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_seed_random_allowed(self, capsys):
        argv = ["simulate", "--scenario", "none", "--reps", "2", "--n", "60",
                "--seed", "random"]
        assert main(argv) == 0
        assert "seed: " in capsys.readouterr().err


class TestRender:
    def test_unknown_format_rejected(self):
        data = build_dataset({"R": [0, 0, 1, 1], "M": [0, 1, 1, 2], "Y": [0, 2, 3, 5]})
        res = decompose_dic(data)
        with pytest.raises(ValueError, match="unknown format"):
            render(res, "html")

    def test_unrenderable_object_rejected(self):
        with pytest.raises(ValueError, match="cannot render"):
            render({"not": "supported"})

    def test_rendered_report_equality(self):
        a = RenderedReport("csv", "x\n")
        assert a == RenderedReport("csv", "x\n")
        assert a != RenderedReport("markdown", "x\n")
        assert "csv" in repr(a)
        assert repr(a) == "RenderedReport(format='csv', body='x\\n')"

    def test_markdown_has_constant_column_count(self):
        data = build_dataset({"R": [0, 0, 1, 1], "M": [0, 1, 1, 2], "Y": [0, 2, 3, 5]})
        body = render(decompose_dic(data), "markdown").body
        widths = {line.count("|") for line in body.splitlines() if line.startswith("|")}
        assert widths == {5}  # four columns -> five pipes


class TestConsoleScript:
    def test_help_runs(self, tmp_path):
        proc = subprocess.run(
            [*console_script(tmp_path), "--help"],
            capture_output=True, text=True, timeout=60, env=src_env(),
        )
        assert proc.returncode == 0
        assert "decompose" in proc.stdout
        assert "simulate" in proc.stdout

    def test_worked_example_end_to_end(self, tmp_path):
        path = tmp_path / "worked.csv"
        path.write_text(WORKED_CSV)
        proc = subprocess.run(
            [*console_script(tmp_path), "decompose", "--data", str(path), "--group", "r",
             "--outcome", "y", "--mediator", "m", "--method", "dic"],
            capture_output=True, text=True, timeout=60, env=src_env(),
        )
        assert proc.returncode == 0
        assert "| initial | 3 | — | — |" in proc.stdout

    def test_help_mentions_exit_codes_in_module_doc(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()
        doc = " ".join(dispdecomp.cli.__doc__.split())
        assert "Exit codes:" in doc
        for code, meaning in (("0", "success"), ("1", "usage"), ("2", "data")):
            assert f"{code} {meaning}" in doc


class TestModuleEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dispdecomp", "--help"],
            capture_output=True, text=True, timeout=60, env=src_env(),
        )
        assert proc.returncode == 0
        assert "decompose" in proc.stdout
        assert "simulate" in proc.stdout


# Every report kind in both formats, pinned byte for byte. GOLDEN and FLAT
# stand for the data flags of the two CSVs below; on FLAT, KOB's initial
# disparity is exactly 0, so its proportion is undefined.
GOLDEN_CSV = """\
R,C,X,M,Y
0,0.6,0.0,1.2,1.1
0,-0.1,0.0,0.9,-0.8
0,1.7,-0.8,2.1,0.6
0,-0.1,0.1,0.8,-0.8
0,3.0,0.2,1.2,0.8
0,1.9,-0.1,2.9,1.7
0,0.6,0.0,-0.8,-1.4
0,1.6,0.7,0.2,2.3
0,2.6,-0.7,1.1,-0.2
0,3.8,0.7,1.8,1.5
1,-0.4,0.2,0.2,0.5
1,1.6,0.5,1.0,2.1
1,1.0,0.2,1.7,1.7
1,0.2,1.3,-0.8,0.6
1,1.6,1.2,4.1,3.4
1,1.0,0.4,1.4,1.8
1,1.6,0.0,0.1,0.0
1,0.0,2.3,0.3,1.8
1,0.5,0.9,0.2,0.3
1,0.9,-0.7,-1.7,-1.3
"""

FLAT_CSV = "r,m,y\n0,0,0\n0,2,2\n1,0,0\n1,2,2\n"

GOLDEN = "<golden data flags>"
FLAT = "<flat data flags>"

GOLDEN_REPORTS = [
    (
        "decompose-markdown",
        ["decompose", GOLDEN, "--format", "markdown"],
        """\
## DIC

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.43215 | — | — |
| explained | -0.179059 | — | — |
| unexplained | 0.611209 | — | — |
| proportion_explained_pct | -41.4345 | — | — |

## KOB

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.61 | — | — |
| explained | -0.318708 | — | — |
| unexplained | 0.928708 | — | — |
| proportion_explained_pct | -52.2472 | — | — |

## CDA

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.998248 | — | — |
| explained | -0.16136 | — | — |
| unexplained | 1.15961 | — | — |
| proportion_explained_pct | -16.1644 | — | — |
""",
        "",
    ),
    (
        "decompose-csv",
        ["decompose", GOLDEN, "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%
DIC,initial,0.43215,,
DIC,explained,-0.179059,,
DIC,unexplained,0.611209,,
DIC,proportion_explained_pct,-41.4345,,
KOB,initial,0.61,,
KOB,explained,-0.318708,,
KOB,unexplained,0.928708,,
KOB,proportion_explained_pct,-52.2472,,
CDA,initial,0.998248,,
CDA,explained,-0.16136,,
CDA,unexplained,1.15961,,
CDA,proportion_explained_pct,-16.1644,,
""",
        "",
    ),
    (
        "bootstrap-markdown",
        ["decompose", GOLDEN, "--bootstrap", "20", "--seed", "3", "--format", "markdown"],
        """\
## DIC

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.43215 | -1.01911 | 1.17209 |
| explained | -0.179059 | -0.867026 | 0.15054 |
| unexplained | 0.611209 | -0.818685 | 1.44298 |
| proportion_explained_pct | -41.4345 | — | — |

## KOB

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.61 | -0.03 | 1.41 |
| explained | -0.318708 | -1.00989 | 0.0734318 |
| unexplained | 0.928708 | 0.595028 | 1.72148 |
| proportion_explained_pct | -52.2472 | — | — |

## CDA

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0.998248 | -0.397488 | 1.64517 |
| explained | -0.16136 | -1.01449 | 0.333457 |
| unexplained | 1.15961 | 0.590595 | 1.87519 |
| proportion_explained_pct | -16.1644 | — | — |
""",
        "",
    ),
    (
        "bootstrap-csv",
        ["decompose", GOLDEN, "--bootstrap", "20", "--seed", "3", "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%
DIC,initial,0.43215,-1.01911,1.17209
DIC,explained,-0.179059,-0.867026,0.15054
DIC,unexplained,0.611209,-0.818685,1.44298
DIC,proportion_explained_pct,-41.4345,,
KOB,initial,0.61,-0.03,1.41
KOB,explained,-0.318708,-1.00989,0.0734318
KOB,unexplained,0.928708,0.595028,1.72148
KOB,proportion_explained_pct,-52.2472,,
CDA,initial,0.998248,-0.397488,1.64517
CDA,explained,-0.16136,-1.01449,0.333457
CDA,unexplained,1.15961,0.590595,1.87519
CDA,proportion_explained_pct,-16.1644,,
""",
        "",
    ),
    (
        "undefined-markdown",
        ["decompose", FLAT, "--method", "kob", "--format", "markdown"],
        """\
## KOB

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| initial | 0 | — | — |
| explained | 0 | — | — |
| unexplained | 0 | — | — |
| proportion_explained_pct | undefined | — | — |
""",
        "",
    ),
    (
        "undefined-csv",
        ["decompose", FLAT, "--method", "kob", "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%
KOB,initial,0,,
KOB,explained,0,,
KOB,unexplained,0,,
KOB,proportion_explained_pct,undefined,,
""",
        "",
    ),
    (
        "point-markdown",
        ["sensitivity", GOLDEN, "--r2-yu", "0.1", "--r2-mu", "0.2", "--format", "markdown"],
        """\
## CDA_adjusted

| quantity | estimate | 2.5% | 97.5% |
| --- | --- | --- | --- |
| bias | -0.0215753 | — | — |
| delta_adjusted | -0.139785 | — | — |
| zeta_adjusted | 1.13803 | — | — |
| tau | 0.998248 | — | — |
""",
        "",
    ),
    (
        "point-csv",
        ["sensitivity", GOLDEN, "--r2-yu", "0.1", "--r2-mu", "0.2", "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%
CDA_adjusted,bias,-0.0215753,,
CDA_adjusted,delta_adjusted,-0.139785,,
CDA_adjusted,zeta_adjusted,1.13803,,
CDA_adjusted,tau,0.998248,,
""",
        "",
    ),
    (
        "grid-markdown",
        ["sensitivity", GOLDEN, "--grid", "0.05,0.2;0.1,0.3", "--sign", "-", "--format", "markdown"],
        """\
| r2_yu | r2_mu | bias | delta_adjusted | zeta_adjusted | tau |
| --- | --- | --- | --- | --- | --- |
| 0.05 | 0.1 | 0.0101707 | -0.171531 | 1.16978 | 0.998248 |
| 0.05 | 0.3 | 0.0199748 | -0.181335 | 1.17958 | 0.998248 |
| 0.2 | 0.1 | 0.0203414 | -0.181702 | 1.17995 | 0.998248 |
| 0.2 | 0.3 | 0.0399496 | -0.20131 | 1.19956 | 0.998248 |
""",
        "",
    ),
    (
        "grid-csv",
        ["sensitivity", GOLDEN, "--grid", "0.05,0.2;0.1,0.3", "--sign", "-", "--format", "csv"],
        """\
r2_yu,r2_mu,bias,delta_adjusted,zeta_adjusted,tau
0.05,0.1,0.0101707,-0.171531,1.16978,0.998248
0.05,0.3,0.0199748,-0.181335,1.17958,0.998248
0.2,0.1,0.0203414,-0.181702,1.17995,0.998248
0.2,0.3,0.0399496,-0.20131,1.19956,0.998248
""",
        "",
    ),
    (
        "benchmark-markdown",
        ["benchmark", GOLDEN, "--format", "markdown"],
        """\
| name | r2_with_y | r2_with_m |
| --- | --- | --- |
| X | 0.41128 | 0.0291713 |
| C | 0.154213 | 0.153381 |
""",
        "",
    ),
    (
        "benchmark-csv",
        ["benchmark", GOLDEN, "--format", "csv"],
        """\
name,r2_with_y,r2_with_m
X,0.41128,0.0291713
C,0.154213,0.153381
""",
        "",
    ),
    (
        "simulate-markdown",
        ["simulate", "--scenario", "c-only", "--reps", "3", "--n", "60", "--format", "markdown"],
        """\
# simulate: scenario=c-only n=60 reps=3 seed=0

## DIC

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.176424 | -0.0718711 | 0.425463 | 0.26 | true |
| explained | -0.216555 | -0.349656 | -0.0494223 | -0.24 | true |
| unexplained | 0.392979 | 0.277784 | 0.474885 | 0.5 | false |

## KOB

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.0674665 | -0.10501 | 0.340264 | 0.09 | true |
| explained | -0.312528 | -0.440458 | -0.0567259 | -0.26 | true |
| unexplained | 0.379994 | 0.335448 | 0.407543 | 0.35 | true |

## CDA

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.183924 | -0.0850687 | 0.435382 | 0.26 | true |
| explained | -0.234139 | -0.46231 | -0.0437398 | -0.24 | true |
| unexplained | 0.418062 | 0.377241 | 0.479122 | 0.5 | false |
""",
        "warning: interval unreliable: fewer than 20 replications\n",
    ),
    (
        "simulate-csv",
        ["simulate", "--scenario", "c-only", "--reps", "3", "--n", "60", "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%,truth,covered
DIC,initial,0.176424,-0.0718711,0.425463,0.26,true
DIC,explained,-0.216555,-0.349656,-0.0494223,-0.24,true
DIC,unexplained,0.392979,0.277784,0.474885,0.5,false
KOB,initial,0.0674665,-0.10501,0.340264,0.09,true
KOB,explained,-0.312528,-0.440458,-0.0567259,-0.26,true
KOB,unexplained,0.379994,0.335448,0.407543,0.35,true
CDA,initial,0.183924,-0.0850687,0.435382,0.26,true
CDA,explained,-0.234139,-0.46231,-0.0437398,-0.24,true
CDA,unexplained,0.418062,0.377241,0.479122,0.5,false
""",
        "warning: interval unreliable: fewer than 20 replications\n",
    ),
    (
        "simulate-sensitivity-markdown",
        ["simulate", "--scenario", "my-conf", "--reps", "3", "--n", "60", "--sensitivity", "--format", "markdown"],
        """\
# simulate: scenario=my-conf n=60 reps=3 seed=0

## DIC

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.395515 | 0.23155 | 0.679466 | 0.26 | true |
| explained | -0.314483 | -0.3333 | -0.296337 | -0.24 | false |
| unexplained | 0.709999 | 0.545363 | 1.01277 | 0.5 | false |

## KOB

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.422337 | 0.195226 | 0.555227 | 0.387 | true |
| explained | -0.258616 | -0.414689 | -0.105199 | -0.188 | true |
| unexplained | 0.680953 | 0.609914 | 0.811188 | 0.575 | false |

## CDA

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.650811 | 0.445007 | 0.911884 | 0.656 | true |
| explained | -0.199673 | -0.251235 | -0.117904 | -0.144 | true |
| unexplained | 0.850484 | 0.562911 | 1.14177 | 0.8 | true |

## CDA_adjusted

| quantity | estimate | 2.5% | 97.5% | truth | covered |
| --- | --- | --- | --- | --- | --- |
| initial | 0.650811 | 0.445007 | 0.911884 | 0.656 | true |
| explained | -0.101583 | -0.166778 | 0.00514889 | -0.144 | true |
| unexplained | 0.752393 | 0.439858 | 1.055 | 0.8 | true |
""",
        "warning: interval unreliable: fewer than 20 replications\n",
    ),
    (
        "simulate-sensitivity-csv",
        ["simulate", "--scenario", "my-conf", "--reps", "3", "--n", "60", "--sensitivity", "--format", "csv"],
        """\
method,quantity,estimate,2.5%,97.5%,truth,covered
DIC,initial,0.395515,0.23155,0.679466,0.26,true
DIC,explained,-0.314483,-0.3333,-0.296337,-0.24,false
DIC,unexplained,0.709999,0.545363,1.01277,0.5,false
KOB,initial,0.422337,0.195226,0.555227,0.387,true
KOB,explained,-0.258616,-0.414689,-0.105199,-0.188,true
KOB,unexplained,0.680953,0.609914,0.811188,0.575,false
CDA,initial,0.650811,0.445007,0.911884,0.656,true
CDA,explained,-0.199673,-0.251235,-0.117904,-0.144,true
CDA,unexplained,0.850484,0.562911,1.14177,0.8,true
CDA_adjusted,initial,0.650811,0.445007,0.911884,0.656,true
CDA_adjusted,explained,-0.101583,-0.166778,0.00514889,-0.144,true
CDA_adjusted,unexplained,0.752393,0.439858,1.055,0.8,true
""",
        "warning: interval unreliable: fewer than 20 replications\n",
    ),
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "argv, out, err", [pytest.param(*case[1:], id=case[0]) for case in GOLDEN_REPORTS]
    )
    def test_report_bytes(self, tmp_path, capsys, argv, out, err):
        golden = tmp_path / "golden.csv"
        golden.write_text(GOLDEN_CSV)
        flat = tmp_path / "flat.csv"
        flat.write_text(FLAT_CSV)
        flags = {
            GOLDEN: ["--data", str(golden), "--group", "R", "--outcome", "Y", "--mediator", "M",
                     "--baseline", "C", "--intermediate", "X"],
            FLAT: base_flags(str(flat)),
        }
        assert main([part for arg in argv for part in flags.get(arg, [arg])]) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == err
