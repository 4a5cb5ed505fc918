"""The one-thread BLAS scope of run_harness and bootstrap changes no result."""
import subprocess
import sys

import pytest

import dispdecomp.regress as regress_module
from dispdecomp import CdaSettings, ScenarioConfig, bootstrap, generate, run_harness

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
