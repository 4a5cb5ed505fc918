import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import dispdecomp

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE_DIR = Path(dispdecomp.__file__).resolve().parent
# The package and each of its modules whose name has no leading underscore.
PUBLIC_MODULES = ["dispdecomp"] + [
    f"dispdecomp.{path.stem}" for path in sorted(PACKAGE_DIR.glob("*.py")) if not path.stem.startswith("_")
]

ONE_FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_the_unused_import_check_sees_plain_aliased_and_exported_names():
    source = "import os\nimport a.b\nfrom c import d as e, f, g\n__all__ = ['f']\nprint(a, g)\n"
    assert unused_imports(source) == ["e", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on the package; this is its unused-import check.
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_every_public_name_is_unique_and_resolves(module_name):
    # A stale name in __all__ breaks only `from <module> import *`.
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(module, name)


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
