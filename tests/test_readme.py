"""README's examples run as written, and the docs state no measurements.

Every fenced ``python`` block of README.md is executed, and every line of a
``sh`` block that starts with ``dispdecomp`` is passed to ``cli.main``, in a
directory holding the ``study.csv`` and ``scenario.json`` that the examples
name. Other ``sh`` lines (pip, pytest) and untagged blocks are not run.
"""
import ast
import csv
import io
import re
import shlex
import tokenize
from pathlib import Path

import numpy as np
import pytest

from dispdecomp import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "dispdecomp"


def fenced_blocks(text, lang):
    """The bodies of the fenced blocks tagged lang, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def cli_lines(text):
    """Each dispdecomp command of the sh blocks, continuations joined."""
    commands = []
    for block in fenced_blocks(text, "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("dispdecomp "):
                commands.append(shlex.split(line)[1:])
    return commands


def write_study_csv(path, n=500, seed=0):
    """n rows of a seeded linear SEM with the columns the README examples name."""
    rng = np.random.default_rng(seed)
    r = (rng.random(n) < 0.5).astype(float)
    c1 = 1.0 - 0.5 * r + rng.normal(size=n)
    c2 = 0.3 * r + rng.normal(size=n)
    x1 = 0.4 * r + 0.2 * c1 + rng.normal(size=n)
    x2 = 0.4 * r + 0.2 * c2 + rng.normal(size=n)
    m = 1.0 - 0.6 * r + 0.1 * c1 + 0.2 * (x1 + x2) + rng.normal(size=n)
    y = 0.5 * r + 0.3 * c1 + 0.25 * (x1 + x2) + 0.4 * m + rng.normal(size=n)
    columns = {"R": r, "Y": y, "M": m, "C1": c1, "C2": c2, "X1": x1, "X2": x2}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        # repr of a numpy scalar is "np.float64(...)", which does not parse.
        writer.writerows([repr(float(v)) for v in row] for row in zip(*columns.values()))


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    write_study_csv(tmp_path / "study.csv")
    (config,) = fenced_blocks(text, "json")
    (tmp_path / "scenario.json").write_text(config, encoding="utf-8")
    return text


def test_cli_lines_cover_every_command_kind():
    seen = {(args[0], flag) for args in cli_lines(README.read_text(encoding="utf-8")) for flag in args[1:]}
    for expected in [
        ("decompose", "--bootstrap"),
        ("sensitivity", "--r2-yu"),
        ("sensitivity", "--grid"),
        ("benchmark", "--data"),
        ("simulate", "--scenario"),
        ("simulate", "--config"),
    ]:
        assert expected in seen


def test_every_cli_line_runs(readme_dir, capsys):
    commands = cli_lines(readme_dir)
    assert commands
    for args in commands:
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == 0, (args, err)
        assert out.strip(), args


def test_every_python_block_runs(readme_dir, capsys):
    blocks = fenced_blocks(readme_dir, "python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


# Measurements and change history go stale with the next change that moves
# them; they belong in CHANGES.md and the benchmark's records. Docs state
# the bound and name the test that enforces it.
STALE = re.compile(
    r"\bvCPUs?\b|[0-9] ?(ms|µs|MB|GB)\b|\b(slower|faster)\b|\bhalves\b|where (it|there) (made|were)"
    r"|\bPR [0-9]+|traced peak|\bformer\b|[0-9]+ tests\b"
)


def doc_lines(path):
    """(line number, text) of every docstring and comment line of a module."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                for number in range(doc.lineno, doc.end_lineno + 1):
                    yield number, lines[number - 1]
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def test_docs_state_no_measurements():
    lines = enumerate(README.read_text(encoding="utf-8").splitlines(), start=1)
    found = [f"README.md:{number}" for number, line in lines if STALE.search(line)]
    for path in sorted(SRC.glob("*.py")):
        found += sorted({f"{path.name}:{number}" for number, line in doc_lines(path) if STALE.search(line)})
    assert found == []


def test_named_tests_exist():
    # A bound the docs name by its test must have that test to enforce it.
    texts = [README.read_text(encoding="utf-8")]
    texts += [line for path in sorted(SRC.glob("*.py")) for _, line in doc_lines(path)]
    named = {node for text in texts for node in re.findall(r"tests/\w+\.py(?:::\w+)+", text)}
    assert named
    for node in sorted(named):
        path, *names = node.split("::")
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
            assert found, node
            scope = found[0].body
