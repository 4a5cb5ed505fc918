import subprocess
import sys
from pathlib import Path

import dispdecomp

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_every_public_name_is_unique_and_resolves():
    # A stale name in __all__ breaks only `from dispdecomp import *`.
    names = dispdecomp.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(dispdecomp, name)


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # Reporting a hypothesis failure imports libcst, which warns on import;
    # under the project's warning filters that warning must not stop pytest.
    (tmp_path / "test_two.py").write_text(ONE_FAILING_GIVEN_TEST)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
