"""The one-thread BLAS scope of the CLI, run_harness and bootstrap changes no result."""
import subprocess
import sys

import numpy as np
import pytest

import dispdecomp.decompose as decompose_module
import dispdecomp.regress as regress_module
from dispdecomp import CdaSettings, ScenarioConfig, bootstrap, generate, main, run_harness

from conftest import src_env

# A run_harness report and the bootstrap of every method, as one repr; the
# second line repeats them with the thread scope disabled.
SCRIPT = """
import dispdecomp.regress as regress
from dispdecomp import CdaSettings, ScenarioConfig, bootstrap, generate, run_harness

def results():
    report = run_harness(ScenarioConfig("both", n=400, reps=50, seed=2), sensitivity=True)
    data = generate(ScenarioConfig("both", n=400, seed=6), 0)
    settings = CdaSettings(mc_draws_per_unit=20, seed=5)
    boots = [bootstrap(data, m, settings=settings, B=50, seed=9) for m in ("DIC", "KOB", "CDA")]
    return repr((report, boots))

print(results())
regress._openblas_controls = lambda: ()
print(results())
"""

# The CLI with every fit's coefficients printed in hex before the table.
CLI_SCRIPT = """
import sys
import dispdecomp.decompose as decompose
from dispdecomp import main

fit_ols = decompose.fit_ols

def recording(*args, **kwargs):
    fit = fit_ols(*args, **kwargs)
    print(*(value.hex() for value in fit.coefficients.values()))
    return fit

decompose.fit_ols = recording
sys.exit(main(sys.argv[1:]))
"""


def thread_counts():
    return [get() for get, _ in regress_module._openblas_controls()]


@pytest.fixture
def controls():
    """The thread controls found, each library set to 2 threads for the test."""
    found = regress_module._openblas_controls()
    if not found:
        pytest.skip("no bundled OpenBLAS with thread controls in this process")
    saved = thread_counts()
    try:
        for _, set_ in found:
            set_(2)
        if thread_counts() != [2] * len(found):
            pytest.skip("OpenBLAS does not run 2 threads here")
        yield found
    finally:
        for (_, set_), count in zip(found, saved):
            set_(count)


class TestOneBlasThread:
    def test_each_library_runs_one_thread_inside_and_its_count_is_restored(self, controls):
        with regress_module._one_blas_thread():
            assert thread_counts() == [1] * len(controls)
        assert thread_counts() == [2] * len(controls)

    def test_count_is_restored_when_the_body_raises(self, controls):
        with pytest.raises(RuntimeError, match="inside"):
            with regress_module._one_blas_thread():
                raise RuntimeError("inside")
        assert thread_counts() == [2] * len(controls)

    def test_nested_scopes_restore_the_outer_count(self, controls):
        with regress_module._one_blas_thread():
            with regress_module._one_blas_thread():
                pass
            assert thread_counts() == [1] * len(controls)
        assert thread_counts() == [2] * len(controls)

    def test_no_controls_found_is_a_no_op(self, controls, monkeypatch):
        monkeypatch.setattr(regress_module, "_openblas_controls", lambda: ())
        with regress_module._one_blas_thread():
            assert [get() for get, _ in controls] == [2] * len(controls)


def test_results_equal_with_the_thread_controls_found_or_not(monkeypatch):
    config = ScenarioConfig("both", n=300, reps=20, seed=4)
    data = generate(ScenarioConfig("cx", n=300, seed=8), 0)
    settings = CdaSettings(mc_draws_per_unit=10, seed=3)

    def results():
        boots = [bootstrap(data, m, settings=settings, B=20, seed=1) for m in ("DIC", "KOB", "CDA")]
        return run_harness(config, sensitivity=True), boots

    scoped = results()
    monkeypatch.setattr(regress_module, "_openblas_controls", lambda: ())
    assert results() == scoped


def test_results_are_byte_identical_under_one_and_two_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env={**src_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.extend(proc.stdout.splitlines())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1


class TestCli:
    def test_every_fit_runs_on_one_blas_thread(self, controls, monkeypatch, tmp_path, capsys):
        counts = []

        def recording(fit_ols):
            def fit(*args, **kwargs):
                counts.append(thread_counts())
                return fit_ols(*args, **kwargs)
            return fit

        # decompose._fit makes every fit; regress's own binding is watched too,
        # so a fit made there (by partial_r2) would be checked as well.
        monkeypatch.setattr(decompose_module, "fit_ols", recording(decompose_module.fit_ols))
        monkeypatch.setattr(regress_module, "fit_ols", recording(regress_module.fit_ols))
        data = generate(ScenarioConfig("cx", n=200, seed=1), 0)
        path = tmp_path / "cx.csv"
        np.savetxt(path, np.column_stack(list(data.columns.values())), delimiter=",",
                   header=",".join(data.columns), comments="")
        flags = ["--data", str(path), "--group", "R", "--outcome", "Y", "--mediator", "M",
                 "--baseline", "C", "--intermediate", "X1,X2,X3"]
        commands = [
            ["decompose", *flags, "--bootstrap", "3"],
            ["sensitivity", *flags, "--r2-yu", "0.1", "--r2-mu", "0.1"],
            ["benchmark", *flags],
            ["simulate", "--scenario", "both", "--n", "100", "--reps", "2", "--sensitivity"],
        ]
        for argv in commands:
            before = len(counts)
            assert main(argv) == 0
            assert len(counts) > before, argv[0]
            assert thread_counts() == [2] * len(controls)
        capsys.readouterr()
        assert counts == [[1] * len(controls)] * len(counts)

    def test_wide_tall_fits_are_bit_identical_under_one_and_two_blas_threads(self, tmp_path):
        # n = 5e4 and 16 regressors in the pooled design: at the library's
        # default threading, the last bits of these fits depend on the
        # thread count.
        rng = np.random.default_rng(0)
        n = 50_000
        r = (rng.random(n) < 0.5).astype(float)
        cols = {"R": r}
        for i in range(1, 8):
            cols[f"C{i}"] = rng.normal(0.3 * r, 1.0)
        for i in range(1, 8):
            cols[f"X{i}"] = rng.normal(0.4 * r + 0.2 * cols[f"C{i}"], 1.0)
        cols["M"] = rng.normal(-0.6 * r + 0.1 * sum(cols[f"X{i}"] for i in range(1, 8)), 1.0)
        cols["Y"] = rng.normal(0.5 * r + 0.4 * cols["M"] + 0.1 * cols["C1"], 1.0)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.column_stack(list(cols.values())), delimiter=",",
                   header=",".join(cols), comments="")
        argv = [
            "decompose", "--data", str(path), "--group", "R", "--outcome", "Y",
            "--mediator", "M", "--baseline", ",".join(f"C{i}" for i in range(1, 8)),
            "--intermediate", ",".join(f"X{i}" for i in range(1, 8)), "--format", "csv",
        ]
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", CLI_SCRIPT, *argv],
                env={**src_env(), "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        fits = [line for line in outputs[0].splitlines() if line.startswith(("0x", "-0x"))]
        assert len(fits) == 6
        assert outputs[1] == outputs[0]
